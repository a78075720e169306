// Experiment E4 — the write rule: first-updater-wins vs first-committer-wins
// (paper §3/§4).
//
// Update-only transactions touch K hot nodes with Zipf-skewed access. The
// three conflict policies are compared on abort rate, throughput, and where
// the abort happens (early at write time vs late at commit — the wasted
// work the policy choice trades off).

#include "bench/bench_common.h"
#include "common/random.h"
#include "workload/driver.h"
#include "workload/zipf.h"

namespace neosi {
namespace bench {
namespace {

struct Cell {
  DriverResult result;
  double avg_writes_per_abort = 0;  // Work performed before aborting.
};

Cell RunCell(ConflictPolicy policy, double theta, int threads,
             uint64_t ops_per_thread, uint64_t hot_nodes) {
  auto db = OpenDb(policy, /*gc_interval_ms=*/10,
                   /*gc_backlog_threshold=*/256);
  std::vector<NodeId> nodes;
  {
    auto txn = db->Begin();
    for (uint64_t i = 0; i < hot_nodes; ++i) {
      nodes.push_back(
          *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}}));
    }
    txn->Commit();
  }
  std::atomic<uint64_t> aborted_writes{0};
  std::atomic<uint64_t> aborts{0};

  // One key sampler and one value generator per thread, each seeded once:
  // the sampler's CDF is built here, not per operation.
  struct alignas(64) ThreadGen {
    ZipfSampler zipf;
    Random rng;
  };
  std::vector<ThreadGen> gens;
  gens.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    const auto stream = static_cast<uint64_t>(t);
    gens.push_back(
        {ZipfSampler(hot_nodes, theta, StreamSeed(kBenchSeed, 1000 + stream)),
         Random(StreamSeed(kBenchSeed, stream))});
  }

  Cell cell;
  cell.result = RunForOps(threads, ops_per_thread, [&](int t, uint64_t) {
    ZipfSampler& zipf = gens[static_cast<size_t>(t)].zipf;
    Random& rng = gens[static_cast<size_t>(t)].rng;
    auto txn = db->Begin(IsolationLevel::kSnapshotIsolation);
    uint64_t writes_done = 0;
    // Each transaction updates 4 hot nodes.
    for (int i = 0; i < 4; ++i) {
      const NodeId id = nodes[zipf.Next()];
      Status s = txn->SetNodeProperty(
          id, "v", PropertyValue(static_cast<int64_t>(rng.Next() >> 1)));
      if (!s.ok()) {
        if (s.IsRetryable()) {
          aborts.fetch_add(1);
          aborted_writes.fetch_add(writes_done);
        }
        return s;
      }
      ++writes_done;
    }
    Status s = txn->Commit();
    if (s.IsRetryable()) {
      aborts.fetch_add(1);
      aborted_writes.fetch_add(writes_done);
    }
    return s;
  });
  cell.avg_writes_per_abort =
      aborts.load() ? static_cast<double>(aborted_writes.load()) /
                          static_cast<double>(aborts.load())
                    : 0.0;
  return cell;
}

}  // namespace
}  // namespace bench
}  // namespace neosi

int main() {
  using namespace neosi;
  using namespace neosi::bench;

  Banner("E4: write-write conflict policies",
         "no two concurrent transactions update the same item; "
         "first-updater-wins aborts early (little wasted work), "
         "first-committer-wins aborts late (whole transaction wasted)");

  const uint64_t ops = Scaled(300);
  const uint64_t hot_nodes = 64;
  const int threads = 4;

  std::printf("%-26s %6s %10s %12s %10s %18s\n", "policy", "theta",
              "commits", "abort-rate", "txn/s", "writes-per-abort");
  for (ConflictPolicy policy : {ConflictPolicy::kFirstUpdaterWinsNoWait,
                                ConflictPolicy::kFirstUpdaterWinsWait,
                                ConflictPolicy::kFirstCommitterWins}) {
    for (double theta : {0.0, 0.6, 0.99}) {
      const auto cell = RunCell(policy, theta, threads, ops, hot_nodes);
      std::printf("%-26s %6.2f %10llu %11.2f%% %10.0f %18.2f\n",
                  std::string(ConflictPolicyToString(policy)).c_str(), theta,
                  static_cast<unsigned long long>(cell.result.committed),
                  100.0 * cell.result.AbortRate(), cell.result.Throughput(),
                  cell.avg_writes_per_abort);
    }
  }
  std::printf(
      "\nexpected shape: abort rate grows with theta (contention) for every "
      "policy; writes-per-abort is highest for FirstCommitterWins (aborts "
      "carry a full transaction of work) and lowest for the no-wait "
      "first-updater policy.\n");
  return 0;
}
