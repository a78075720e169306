// Micro benchmarks: version chain visibility and GC list operations.

#include <benchmark/benchmark.h>

#include "mvcc/epoch.h"
#include "mvcc/gc_list.h"
#include "mvcc/version_chain.h"

namespace neosi {
namespace {

void BM_ChainInstallCommit(benchmark::State& state) {
  EpochManager epochs;
  VersionChain chain(&epochs);
  TxnId txn = 1;
  Timestamp ts = 1;
  for (auto _ : state) {
    auto v = chain.InstallUncommitted(txn, VersionData{});
    benchmark::DoNotOptimize(chain.CommitHead(txn, ts));
    ++txn;
    ++ts;
    if (ts % 1024 == 0) {  // Keep it bounded.
      chain.PruneSupersededUpTo(ts);
      epochs.Drain();
    }
  }
}
BENCHMARK(BM_ChainInstallCommit);

void BM_VisibleHeadHit(benchmark::State& state) {
  EpochManager epochs;
  VersionChain chain(&epochs);
  for (Timestamp ts = 1; ts <= static_cast<Timestamp>(state.range(0)); ++ts) {
    (void)chain.InstallUncommitted(ts, VersionData{});
    (void)chain.CommitHead(ts, ts * 10);
  }
  const Timestamp fresh = state.range(0) * 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.Visible(fresh, kNoTxn));
  }
}
BENCHMARK(BM_VisibleHeadHit)->Arg(1)->Arg(64)->Arg(1024);

void BM_VisibleTailWalk(benchmark::State& state) {
  EpochManager epochs;
  VersionChain chain(&epochs);
  for (Timestamp ts = 1; ts <= static_cast<Timestamp>(state.range(0)); ++ts) {
    (void)chain.InstallUncommitted(ts, VersionData{});
    (void)chain.CommitHead(ts, ts * 10);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.Visible(10, kNoTxn));  // Oldest version.
  }
}
BENCHMARK(BM_VisibleTailWalk)->Arg(1)->Arg(64)->Arg(1024);

void BM_GcListAppendPop(benchmark::State& state) {
  GcList list;
  Timestamp ts = 1;
  for (auto _ : state) {
    list.Append({EntityKey::Node(ts), ts, /*tombstone=*/false});
    if (ts % 64 == 0) {
      benchmark::DoNotOptimize(list.PopReclaimable(ts));
    }
    ++ts;
  }
}
BENCHMARK(BM_GcListAppendPop);

void BM_PruneSuperseded(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    EpochManager epochs;
    VersionChain chain(&epochs);
    for (Timestamp ts = 1; ts <= static_cast<Timestamp>(state.range(0));
         ++ts) {
      (void)chain.InstallUncommitted(ts, VersionData{});
      (void)chain.CommitHead(ts, ts);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(chain.PruneSupersededUpTo(kMaxTimestamp - 1));
  }
  state.SetItemsProcessed(state.iterations() * (state.range(0) - 1));
}
BENCHMARK(BM_PruneSuperseded)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace neosi

BENCHMARK_MAIN();
