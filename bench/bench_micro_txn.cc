// Micro benchmarks: transaction begin/commit, cached reads and lock manager
// hot paths.

#include <benchmark/benchmark.h>

#include <vector>

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

// Each thread reads `since` of its own resident relationships, so threads
// share no cache entry: a hit that wrote a shared line (a latch, a reference
// count) would show as CPU per read growing from 1 to 4 threads.
void BM_CachedRelPropertyRead(benchmark::State& state) {
  constexpr int kRelsPerThread = 64;
  // Thread 0 replaces the previous run's database (its threads have all
  // finished); the last one lives until exit, after every reader is done.
  static std::unique_ptr<GraphDatabase> db;
  static std::vector<RelId> rels;
  if (state.thread_index() == 0) {
    db = OpenDb();
    rels.clear();
    auto txn = db->Begin();
    for (int i = 0; i < state.threads() * kRelsPerThread; ++i) {
      const NodeId a = *txn->CreateNode({});
      const NodeId b = *txn->CreateNode({});
      rels.push_back(*txn->CreateRelationship(
          a, b, "KNOWS", {{"since", PropertyValue(int64_t{2000 + i})}}));
    }
    (void)txn->Commit();
  }
  const size_t first = static_cast<size_t>(state.thread_index()) *
                       kRelsPerThread;
  // Begun inside the loop: only its start barrier orders the other
  // threads after thread 0's set-up.
  std::unique_ptr<Transaction> txn;
  size_t i = 0;
  for (auto _ : state) {
    if (txn == nullptr) txn = db->Begin(IsolationLevel::kSnapshotIsolation);
    benchmark::DoNotOptimize(txn->GetRelProperty(rels[first + i], "since"));
    i = (i + 1) % kRelsPerThread;
  }
}
BENCHMARK(BM_CachedRelPropertyRead)->Threads(1)->Threads(4);

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
