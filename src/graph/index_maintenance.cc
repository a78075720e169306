#include "graph/index_maintenance.h"

#include <algorithm>

namespace neosi {

namespace {

bool Contains(const std::vector<LabelId>& labels, LabelId label) {
  return std::find(labels.begin(), labels.end(), label) != labels.end();
}

}  // namespace

std::vector<IndexChange> DiffIndexEntries(const EntityKey& key,
                                          const VersionData* pre,
                                          const VersionData* post) {
  static const VersionData kAbsent;
  const VersionData& from = pre != nullptr && !pre->deleted ? *pre : kAbsent;
  const VersionData& to = post != nullptr && !post->deleted ? *post : kAbsent;
  const bool node = key.type == EntityType::kNode;

  std::vector<IndexChange> out;
  auto emit = [&](IndexId index, bool add, uint32_t token,
                  const PropertyValue& value) {
    out.push_back(IndexChange{index, add, key.id, token, value, {}});
  };
  if (node) {
    // A label is filed under the null value.
    auto diff = [&](const std::vector<LabelId>& a,
                    const std::vector<LabelId>& b, bool add) {
      for (LabelId label : a) {
        if (!Contains(b, label)) {
          emit(IndexId::kLabel, add, label, PropertyValue());
        }
      }
    };
    diff(from.labels, to.labels, /*add=*/false);
    diff(to.labels, from.labels, /*add=*/true);
  }
  const IndexId index = node ? IndexId::kNodeProperty : IndexId::kRelProperty;
  // A changed value is a removal of the old tuple plus an addition of the
  // new one: the two live under different index keys.
  auto diff = [&](const PropertyMap& a, const PropertyMap& b, bool add) {
    for (const auto& [prop, value] : a) {
      auto found = b.find(prop);
      if (found == b.end() || !(found->second == value)) {
        emit(index, add, prop, value);
      }
    }
  };
  diff(from.props, to.props, /*add=*/false);
  diff(to.props, from.props, /*add=*/true);
  return out;
}

void StageIndexChange(Engine* engine, IndexChange* change, TxnId txn) {
  change->handle = engine->index(change->index)
                       .Stage(change->add, change->token, change->value,
                              change->entity, txn);
}

void CommitIndexDiff(Engine* engine, const EntityKey& key,
                     const VersionData* pre, const VersionData* post,
                     TxnId txn, Timestamp ts) {
  for (IndexChange& change : DiffIndexEntries(key, pre, post)) {
    StageIndexChange(engine, &change, txn);
    engine->index(change.index).Commit(change.handle, ts);
  }
}

Status ReadPersistedState(GraphStore& store, const EntityKey& key,
                          VersionData* out, Timestamp* commit_ts) {
  Status s;
  bool in_use = false;
  if (key.type == EntityType::kNode) {
    NodeState state;
    s = store.ReadNodeState(key.id, &state);
    in_use = state.in_use;
    *out = {state.deleted, std::move(state.labels), std::move(state.props)};
    *commit_ts = state.commit_ts;
  } else {
    RelState state;
    s = store.ReadRelState(key.id, &state);
    in_use = state.in_use;
    *out = {state.deleted, {}, std::move(state.props)};
    *commit_ts = state.commit_ts;
  }
  if (s.IsOutOfRange() || s.IsNotFound() || (s.ok() && !in_use)) {
    return Status::NotFound(key.ToString() + " has no persisted record");
  }
  return s;
}

}  // namespace neosi
