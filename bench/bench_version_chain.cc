// Experiment E6 — version-list traversal cost (paper §4: "the right version
// for the reading transaction can be obtained by traversing the list of
// versions").
//
// One node accumulates V versions (GC disabled, a straggler snapshot pins
// them). A fresh-snapshot reader finds its version at the head (O(1)); a
// stale-snapshot reader walks the whole list (O(V)). Walks are latch-free:
// raw atomic links inside an epoch guard.

#include "bench/bench_common.h"

namespace neosi {
namespace bench {
namespace {

struct Row {
  uint64_t versions = 0;
  double fresh_ns = 0;
  double stale_ns = 0;
  uint64_t chain_len = 0;
};

Row RunRow(uint64_t versions, uint64_t reads) {
  DatabaseOptions options;
  options.in_memory = true;
  options.conflict_policy = ConflictPolicy::kFirstUpdaterWinsWait;
  options.background_gc_interval_ms = 0;  // garbage must stay put
  auto opened = GraphDatabase::Open(options);
  if (!opened.ok()) std::abort();
  auto db = std::move(*opened);
  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    txn->Commit();
  }
  // Straggler pins every version.
  auto straggler = db->Begin(IsolationLevel::kSnapshotIsolation);
  (void)straggler->GetNodeProperty(id, "v");

  for (uint64_t i = 1; i < versions; ++i) {
    auto txn = db->Begin();
    (void)txn->SetNodeProperty(id, "v",
                               PropertyValue(static_cast<int64_t>(i)));
    (void)txn->Commit();
  }

  Row row;
  row.versions = versions;
  row.chain_len = db->engine().cache->PeekNode(id)->chain.Length();

  {
    // Fresh snapshot: visible version is at the head.
    auto reader = db->Begin(IsolationLevel::kSnapshotIsolation);
    Timer t;
    for (uint64_t r = 0; r < reads; ++r) {
      auto v = reader->GetNodeProperty(id, "v");
      if (!v.ok()) std::abort();
    }
    row.fresh_ns = t.Seconds() * 1e9 / static_cast<double>(reads);
  }
  {
    // Stale snapshot: visible version is at the tail.
    Timer t;
    for (uint64_t r = 0; r < reads; ++r) {
      auto v = straggler->GetNodeProperty(id, "v");
      if (!v.ok() || v->AsInt() != 0) std::abort();
    }
    row.stale_ns = t.Seconds() * 1e9 / static_cast<double>(reads);
  }
  return row;
}

}  // namespace
}  // namespace bench
}  // namespace neosi

int main() {
  using namespace neosi;
  using namespace neosi::bench;

  Banner("E6: read latency vs version-list length",
         "snapshot reads walk the per-entity version list: head hits are "
         "O(1), reads of old snapshots pay O(list length) — which is why GC "
         "matters (E8)");

  const uint64_t reads = Scaled(20000);
  std::printf("%-10s %10s %12s %12s\n", "versions", "chain-len",
              "fresh-read", "stale-read");
  std::printf("%-10s %10s %12s %12s\n", "", "", "(ns)", "(ns)");
  for (uint64_t v : {1, 4, 16, 64, 256, 1024}) {
    const Row row = RunRow(v, reads);
    std::printf("%-10llu %10llu %12.0f %12.0f\n",
                static_cast<unsigned long long>(row.versions),
                static_cast<unsigned long long>(row.chain_len), row.fresh_ns,
                row.stale_ns);
  }
  std::printf("\nexpected shape: fresh-read latency flat in V, stale-read "
              "latency roughly linear in V.\n");
  return 0;
}
