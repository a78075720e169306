// Micro benchmarks: transaction begin/commit and lock manager hot paths.

#include <benchmark/benchmark.h>

#include "graph/graph_database.h"
#include "txn/lock_manager.h"

namespace neosi {
namespace {

std::unique_ptr<GraphDatabase> OpenDb() {
  DatabaseOptions options;
  options.in_memory = true;
  options.background_gc_interval_ms = 10;
  return std::move(*GraphDatabase::Open(options));
}

// Threads share one database: the read-only Begin/Commit path should scale,
// which it only does while it writes no line shared by all transactions.
void BM_BeginCommitReadOnly(benchmark::State& state) {
  static std::unique_ptr<GraphDatabase> db;
  if (state.thread_index() == 0) db = OpenDb();
  for (auto _ : state) {
    auto txn = db->Begin();
    benchmark::DoNotOptimize(txn->Commit());
  }
  if (state.thread_index() == 0) db.reset();
}
BENCHMARK(BM_BeginCommitReadOnly)->Threads(1)->Threads(4);

void BM_SingleWriteCommit(benchmark::State& state) {
  auto db = OpenDb();
  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    (void)txn->Commit();
  }
  int64_t i = 0;
  for (auto _ : state) {
    auto txn = db->Begin();
    (void)txn->SetNodeProperty(id, "v", PropertyValue(++i));
    benchmark::DoNotOptimize(txn->Commit());
  }
}
BENCHMARK(BM_SingleWriteCommit);

void BM_CreateNodeCommit(benchmark::State& state) {
  auto db = OpenDb();
  for (auto _ : state) {
    auto txn = db->Begin();
    (void)txn->CreateNode({"L"}, {{"v", PropertyValue(int64_t{1})}});
    benchmark::DoNotOptimize(txn->Commit());
  }
}
BENCHMARK(BM_CreateNodeCommit);

void BM_LockAcquireReleaseExclusive(benchmark::State& state) {
  LockManager lm;
  const EntityKey key = EntityKey::Node(1);
  TxnId txn = 1;
  for (auto _ : state) {
    uint64_t shards = 0;
    benchmark::DoNotOptimize(lm.AcquireExclusive(txn, key, false, &shards));
    lm.ReleaseAll(txn, shards);
    ++txn;
  }
}
BENCHMARK(BM_LockAcquireReleaseExclusive);

void BM_LockSharedThroughput(benchmark::State& state) {
  static LockManager lm;
  const EntityKey key = EntityKey::Node(state.thread_index());
  TxnId txn = state.thread_index() * 1000000 + 1;
  uint64_t shards = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm.AcquireShared(txn, key, &shards));
    lm.Release(txn, key);
    ++txn;
  }
}
BENCHMARK(BM_LockSharedThroughput)->Threads(1)->Threads(4);

void BM_SnapshotRead(benchmark::State& state) {
  auto db = OpenDb();
  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    (void)txn->Commit();
  }
  auto txn = db->Begin(IsolationLevel::kSnapshotIsolation);
  for (auto _ : state) {
    benchmark::DoNotOptimize(txn->GetNodeProperty(id, "v"));
  }
}
BENCHMARK(BM_SnapshotRead);

void BM_ReadCommittedRead(benchmark::State& state) {
  auto db = OpenDb();
  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    (void)txn->Commit();
  }
  auto txn = db->Begin(IsolationLevel::kReadCommitted);
  for (auto _ : state) {
    benchmark::DoNotOptimize(txn->GetNodeProperty(id, "v"));
  }
}
BENCHMARK(BM_ReadCommittedRead);

}  // namespace
}  // namespace neosi

BENCHMARK_MAIN();
