// Micro benchmarks: record store and property chain hot paths, and the
// durable WAL commit.

#include <benchmark/benchmark.h>
#include <linux/magic.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "storage/graph_store.h"

namespace neosi {
namespace {

std::unique_ptr<GraphStore> MakeStore() {
  auto store = std::make_unique<GraphStore>(DatabaseOptions{},
                                            std::make_shared<InMemoryDir>());
  if (!store->Open().ok()) std::abort();
  return store;
}

void BM_NodeRecordEncodeDecode(benchmark::State& state) {
  NodeRecord rec;
  rec.in_use = true;
  rec.first_rel = 42;
  rec.first_prop = 7;
  rec.commit_ts = 100;
  char buf[NodeRecord::kSize];
  for (auto _ : state) {
    rec.EncodeTo(buf);
    NodeRecord out;
    benchmark::DoNotOptimize(
        NodeRecord::DecodeFrom(Slice(buf, sizeof buf), &out));
  }
}
BENCHMARK(BM_NodeRecordEncodeDecode);

void BM_PersistNewNode(benchmark::State& state) {
  auto store = MakeStore();
  PropertyMap props{{1, PropertyValue(int64_t{5})},
                    {2, PropertyValue("name-string")}};
  uint64_t i = 0;
  for (auto _ : state) {
    const NodeId id = *store->AllocateNodeId();
    benchmark::DoNotOptimize(store->PersistNewNode(id, {1}, props, ++i));
  }
}
BENCHMARK(BM_PersistNewNode);

// One in-memory store shared by every thread of a multi-threaded
// benchmark. Thread 0 builds it before the timed loop and drops it after;
// the loop's start and end are barriers across the threads. Each thread
// works on its own nodes: the ids congruent to its index mod the thread
// count.
constexpr uint64_t kSharedNodes = 1024;
std::unique_ptr<GraphStore> shared_store;
const PropertyMap kSharedProps{{1, PropertyValue(int64_t{5})},
                               {2, PropertyValue("name-string")}};

void SetUpSharedStore(const benchmark::State& state) {
  if (state.thread_index() != 0) return;
  shared_store = MakeStore();
  for (uint64_t i = 0; i < kSharedNodes; ++i) {
    const NodeId id = *shared_store->AllocateNodeId();
    if (!shared_store->PersistNewNode(id, {1, 2}, kSharedProps, 1).ok()) {
      std::abort();
    }
  }
}

void TearDownSharedStore(const benchmark::State& state) {
  if (state.thread_index() == 0) shared_store.reset();
}

void BM_ReadNodeState(benchmark::State& state) {
  SetUpSharedStore(state);
  NodeId id = static_cast<NodeId>(state.thread_index());
  for (auto _ : state) {
    NodeState out;
    benchmark::DoNotOptimize(shared_store->ReadNodeState(id, &out));
    id = (id + state.threads()) % kSharedNodes;
  }
  TearDownSharedStore(state);
}
BENCHMARK(BM_ReadNodeState)->Threads(1)->Threads(4);

// Rewrites a node's record with a fresh two-property chain and frees the
// old chain: every rewrite allocates and frees property records.
void BM_PersistNodeState(benchmark::State& state) {
  SetUpSharedStore(state);
  NodeId id = static_cast<NodeId>(state.thread_index());
  uint64_t ts = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        shared_store->PersistNodeState(id, {1, 2}, kSharedProps, ++ts));
    id = (id + state.threads()) % kSharedNodes;
  }
  TearDownSharedStore(state);
}
BENCHMARK(BM_PersistNodeState)->Threads(1)->Threads(4);

void BM_RelChainScan(benchmark::State& state) {
  auto store = MakeStore();
  const NodeId a = *store->AllocateNodeId();
  const NodeId b = *store->AllocateNodeId();
  if (!store->PersistNewNode(a, {}, {}, 1).ok()) std::abort();
  if (!store->PersistNewNode(b, {}, {}, 1).ok()) std::abort();
  for (int64_t i = 0; i < state.range(0); ++i) {
    const RelId r = *store->AllocateRelId();
    if (!store->PersistNewRel(r, a, b, 0, {}, 2).ok()) std::abort();
  }
  std::vector<RelId> chain;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->RelChainOf(a, &chain));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RelChainScan)->Arg(8)->Arg(64)->Arg(512);

void BM_WalAppend(benchmark::State& state) {
  auto store = MakeStore();
  WalRecord record;
  record.txn_id = 1;
  record.commit_ts = 1;
  record.ops.push_back(
      WalOp::CreateNode(1, {1}, {{1, PropertyValue(int64_t{5})}}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->wal().Append(record));
  }
}
BENCHMARK(BM_WalAppend);

// Durable group commits on a real directory under the build tree, with the
// engine's flush settings: each ack waits for the fdatasync that covers
// it, so this times what the WAL's fill-ahead saves (a data-only fsync).
// Skipped on tmpfs, where an fsync costs nothing.
void BM_WalDurableCommit(benchmark::State& state) {
  static std::filesystem::path path;
  static std::unique_ptr<Wal> wal;
  struct statfs fs;
  const bool tmpfs = ::statfs(NEOSI_BENCH_BUILD_DIR, &fs) == 0 &&
                     fs.f_type == TMPFS_MAGIC;
  if (tmpfs) {
    state.SkipWithError("build tree is on tmpfs: no fsync cost to time");
  } else if (state.thread_index() == 0) {
    path = std::filesystem::path(NEOSI_BENCH_BUILD_DIR) /
           ("bench_wal_durable_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    WalOptions options;
    options.async_flush = true;
    options.preallocate = true;
    wal = std::make_unique<Wal>(std::make_shared<PosixDir>(path.string()),
                                options);
    if (!wal->Open().ok()) std::abort();
  }
  WalRecord record;
  record.txn_id = static_cast<TxnId>(state.thread_index()) + 1;
  record.commit_ts = 1;
  record.ops.push_back(
      WalOp::NodeState(7, {1}, {{1, PropertyValue(int64_t{5})}}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal->group().Commit(record, /*sync=*/true));
  }
  if (!tmpfs && state.thread_index() == 0) {
    wal.reset();
    std::filesystem::remove_all(path);
  }
}
BENCHMARK(BM_WalDurableCommit)->Threads(1)->Threads(4)->UseRealTime();

void BM_PropertyChainRoundTrip(benchmark::State& state) {
  auto store = MakeStore();
  const NodeId id = *store->AllocateNodeId();
  PropertyMap props;
  for (int64_t k = 0; k < state.range(0); ++k) {
    props[static_cast<PropertyKeyId>(k)] = PropertyValue(k);
  }
  uint64_t ts = 0;
  if (!store->PersistNewNode(id, {}, props, ++ts).ok()) std::abort();
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->PersistNodeState(id, {}, props, ++ts));
  }
}
BENCHMARK(BM_PropertyChainRoundTrip)->Arg(1)->Arg(8)->Arg(32);

}  // namespace
}  // namespace neosi

BENCHMARK_MAIN();
