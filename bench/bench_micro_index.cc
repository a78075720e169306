// Micro benchmarks: versioned index operations.

#include <benchmark/benchmark.h>

#include "index/versioned_index.h"

namespace neosi {
namespace {

/// A label entry's value.
const PropertyValue kLabelValue;

/// Files `entity` under (token, value), committed at `ts`.
void Add(VersionedIndex& index, uint32_t token, const PropertyValue& value,
         uint64_t entity, Timestamp ts) {
  VersionedEntrySet& set = index.SetFor(token, value);
  set.AddPending(entity, 7);
  set.CommitAdd(entity, 7, ts);
}

/// Removes `entity` from (token, value), committed at `ts`.
void Remove(VersionedIndex& index, uint32_t token, const PropertyValue& value,
            uint64_t entity, Timestamp ts) {
  VersionedEntrySet& set = index.SetFor(token, value);
  set.RemovePending(entity, 8);
  set.CommitRemove(entity, 8, ts);
}

void BM_LabelIndexAddCommit(benchmark::State& state) {
  VersionedIndex index;
  NodeId node = 0;
  for (auto _ : state) {
    Add(index, 1, kLabelValue, node, node + 1);
    ++node;
  }
}
BENCHMARK(BM_LabelIndexAddCommit);

void BM_LabelIndexLookup(benchmark::State& state) {
  VersionedIndex index;
  for (NodeId n = 0; n < static_cast<NodeId>(state.range(0)); ++n) {
    Add(index, 1, kLabelValue, n, 5);
  }
  const Snapshot snap{100, kNoTxn};
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Scan(1, std::nullopt, std::nullopt, snap));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LabelIndexLookup)->Arg(100)->Arg(10000);

void BM_LabelIndexLookupWithDeadEntries(benchmark::State& state) {
  VersionedIndex index;
  // Half the entries are dead intervals (removed below any snapshot).
  for (NodeId n = 0; n < static_cast<NodeId>(state.range(0)); ++n) {
    Add(index, 1, kLabelValue, n, 5);
    if (n % 2 == 0) Remove(index, 1, kLabelValue, n, 6);
  }
  const Snapshot snap{100, kNoTxn};
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Scan(1, std::nullopt, std::nullopt, snap));
  }
}
BENCHMARK(BM_LabelIndexLookupWithDeadEntries)->Arg(10000);

void BM_PropertyIndexPointLookup(benchmark::State& state) {
  VersionedIndex index;
  for (int64_t v = 0; v < state.range(0); ++v) {
    Add(index, 1, PropertyValue(v), static_cast<uint64_t>(v), 5);
  }
  const Snapshot snap{100, kNoTxn};
  const PropertyValue needle(state.range(0) / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Scan(1, needle, needle, snap));
  }
}
BENCHMARK(BM_PropertyIndexPointLookup)->Arg(1000)->Arg(100000);

void BM_PropertyIndexRangeScan(benchmark::State& state) {
  VersionedIndex index;
  for (int64_t v = 0; v < 100000; ++v) {
    Add(index, 1, PropertyValue(v), static_cast<uint64_t>(v), 5);
  }
  const Snapshot snap{100, kNoTxn};
  const int64_t width = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Scan(1, PropertyValue(int64_t{50000}),
                                        PropertyValue(50000 + width), snap));
  }
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_PropertyIndexRangeScan)->Arg(10)->Arg(1000);

void BM_IndexCompact(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    VersionedIndex index;
    for (NodeId n = 0; n < 10000; ++n) {
      Add(index, 1, kLabelValue, n, 5);
      Remove(index, 1, kLabelValue, n, 6);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(index.Compact(100));
  }
}
BENCHMARK(BM_IndexCompact);

}  // namespace
}  // namespace neosi

BENCHMARK_MAIN();
