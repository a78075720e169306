// Micro benchmarks: versioned index operations.

#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "index/versioned_index.h"

namespace neosi {
namespace {

/// A label entry's value.
const PropertyValue kLabelValue;

/// Files `entity` under (token, value), committed at `ts`.
void Add(VersionedIndex& index, uint32_t token, const PropertyValue& value,
         uint64_t entity, Timestamp ts) {
  index.Commit(index.Stage(/*add=*/true, token, value, entity, 7), ts);
}

/// Removes `entity` from (token, value), committed at `ts`.
void Remove(VersionedIndex& index, uint32_t token, const PropertyValue& value,
            uint64_t entity, Timestamp ts) {
  index.Commit(index.Stage(/*add=*/false, token, value, entity, 8), ts);
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

/// Frees 10k closed intervals of one key (which the pass then erases).
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
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_IndexCompact)->Iterations(50);

/// One committed move of a random entity within one key of range(0)
/// entities — the shape of a relationship's `since` value set under
/// serializable_overcache — with the interval it closes freed right away.
void BM_EntrySetMove(benchmark::State& state) {
  VersionedIndex index;
  const uint64_t entities = static_cast<uint64_t>(state.range(0));
  for (uint64_t e = 0; e < entities; ++e) Add(index, 1, kLabelValue, e, 1);
  std::mt19937_64 rng(42);
  Timestamp ts = 1;
  for (auto _ : state) {
    const uint64_t entity = rng() % entities;
    ++ts;
    const IndexHandle removed =
        index.Stage(/*add=*/false, 1, kLabelValue, entity, 9);
    const IndexHandle added =
        index.Stage(/*add=*/true, 1, kLabelValue, entity, 9);
    index.Commit(removed, ts);
    index.Commit(added, ts);
    benchmark::DoNotOptimize(index.Compact(ts));
  }
}
BENCHMARK(BM_EntrySetMove)->Arg(11560);

/// A staged removal of a random entity from one key of range(0) committed
/// entities, aborted again: the lookup of the entity's open interval. At
/// 16 entries it is the scan; above kScanLimit, the slot table.
void BM_IndexRemovePending(benchmark::State& state) {
  VersionedEntrySet set;
  const uint64_t entities = static_cast<uint64_t>(state.range(0));
  for (uint64_t e = 0; e < entities; ++e) {
    set.CommitAdd(set.AddPending(e, 7), 1);
  }
  std::mt19937_64 rng(42);
  for (auto _ : state) {
    const uint32_t slot = set.RemovePending(rng() % entities, 9);
    set.AbortRemove(slot);
  }
}
BENCHMARK(BM_IndexRemovePending)->Arg(16)->Arg(1000)->Arg(16000);

/// A GC pass over an index of range(0) keys in which 16 intervals closed
/// since the last pass.
void BM_IndexCompactSparse(benchmark::State& state) {
  VersionedIndex index;
  const int64_t keys = state.range(0);
  for (int64_t v = 0; v < keys; ++v) {
    Add(index, 1, PropertyValue(v), static_cast<uint64_t>(v), 1);
  }
  std::mt19937_64 rng(42);
  Timestamp ts = 1;
  uint64_t visitor = static_cast<uint64_t>(keys);
  for (auto _ : state) {
    state.PauseTiming();
    ++ts;
    for (int i = 0; i < 16; ++i) {
      const PropertyValue value(static_cast<int64_t>(rng() % keys));
      Add(index, 1, value, visitor, ts);
      Remove(index, 1, value, visitor, ts);
      ++visitor;
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(index.Compact(ts));
  }
}
BENCHMARK(BM_IndexCompactSparse)->Arg(100000);

}  // namespace
}  // namespace neosi

BENCHMARK_MAIN();
