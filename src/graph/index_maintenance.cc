#include "graph/index_maintenance.h"

#include <algorithm>

namespace neosi {

namespace {

bool Contains(const std::vector<LabelId>& labels, LabelId label) {
  return std::find(labels.begin(), labels.end(), label) != labels.end();
}

/// `index`'s call for one step of `c`; `key` is the index key (a label, or
/// a property key and value) the entity is filed under.
template <typename Index, typename... Key>
void Step(Index& index, const IndexChange& c, IndexStep step, TxnId txn,
          Timestamp ts, const Key&... key) {
  switch (step) {
    case IndexStep::kPending:
      return c.add ? index.AddPending(key..., c.entity, txn)
                   : index.RemovePending(key..., c.entity, txn);
    case IndexStep::kCommit:
      return c.add ? index.CommitAdd(key..., c.entity, txn, ts)
                   : index.CommitRemove(key..., c.entity, txn, ts);
    case IndexStep::kAbort:
      return c.add ? index.AbortAdd(key..., c.entity, txn)
                   : index.AbortRemove(key..., c.entity, txn);
  }
}

}  // namespace

SsiWriteFootprint IndexChange::Footprint() const {
  if (index == Index::kLabel) return SsiWriteFootprint::Label(label);
  return index == Index::kNodeProperty
             ? SsiWriteFootprint::NodeProperty(key, value)
             : SsiWriteFootprint::RelProperty(key, value);
}

std::vector<IndexChange> DiffIndexEntries(const EntityKey& key,
                                          const VersionData* pre,
                                          const VersionData* post) {
  static const VersionData kAbsent;
  const VersionData& from = pre != nullptr && !pre->deleted ? *pre : kAbsent;
  const VersionData& to = post != nullptr && !post->deleted ? *post : kAbsent;
  const bool node = key.type == EntityType::kNode;

  std::vector<IndexChange> out;
  auto emit = [&](IndexChange::Index index, bool add) -> IndexChange& {
    IndexChange& change = out.emplace_back();
    change.index = index;
    change.add = add;
    change.entity = key.id;
    return change;
  };
  if (node) {
    auto diff = [&](const std::vector<LabelId>& a,
                    const std::vector<LabelId>& b, bool add) {
      for (LabelId label : a) {
        if (!Contains(b, label)) {
          emit(IndexChange::Index::kLabel, add).label = label;
        }
      }
    };
    diff(from.labels, to.labels, /*add=*/false);
    diff(to.labels, from.labels, /*add=*/true);
  }
  const IndexChange::Index index = node ? IndexChange::Index::kNodeProperty
                                        : IndexChange::Index::kRelProperty;
  // A changed value is a removal of the old tuple plus an addition of the
  // new one: the two live under different index keys.
  auto diff = [&](const PropertyMap& a, const PropertyMap& b, bool add) {
    for (const auto& [prop, value] : a) {
      auto found = b.find(prop);
      if (found == b.end() || !(found->second == value)) {
        IndexChange& change = emit(index, add);
        change.key = prop;
        change.value = value;
      }
    }
  };
  diff(from.props, to.props, /*add=*/false);
  diff(to.props, from.props, /*add=*/true);
  return out;
}

void ApplyIndexChange(Engine* engine, const IndexChange& change,
                      IndexStep step, TxnId txn, Timestamp ts) {
  switch (change.index) {
    case IndexChange::Index::kLabel:
      return Step(engine->label_index, change, step, txn, ts, change.label);
    case IndexChange::Index::kNodeProperty:
      return Step(engine->node_prop_index, change, step, txn, ts, change.key,
                  change.value);
    case IndexChange::Index::kRelProperty:
      return Step(engine->rel_prop_index, change, step, txn, ts, change.key,
                  change.value);
  }
}

void CommitIndexDiff(Engine* engine, const EntityKey& key,
                     const VersionData* pre, const VersionData* post,
                     TxnId txn, Timestamp ts) {
  for (const IndexChange& change : DiffIndexEntries(key, pre, post)) {
    ApplyIndexChange(engine, change, IndexStep::kPending, txn);
    ApplyIndexChange(engine, change, IndexStep::kCommit, txn, ts);
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
