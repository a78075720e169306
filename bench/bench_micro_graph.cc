// Micro benchmarks: public-API hot paths (CRUD, adjacency, scans).

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "graph/graph_database.h"
#include "workload/social_graph.h"

namespace neosi {
namespace {

std::unique_ptr<GraphDatabase> OpenDb() {
  DatabaseOptions options;
  options.in_memory = true;
  options.background_gc_interval_ms = 10;
  return std::move(*GraphDatabase::Open(options));
}

void BM_GetNode(benchmark::State& state) {
  auto db = OpenDb();
  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({"Person"}, {{"name", PropertyValue("alice")},
                                       {"age", PropertyValue(int64_t{30})}});
    (void)txn->Commit();
  }
  auto txn = db->Begin();
  for (auto _ : state) {
    benchmark::DoNotOptimize(txn->GetNode(id));
  }
}
BENCHMARK(BM_GetNode);

void BM_Adjacency(benchmark::State& state) {
  auto db = OpenDb();
  NodeId hub;
  {
    auto txn = db->Begin();
    hub = *txn->CreateNode({});
    for (int64_t i = 0; i < state.range(0); ++i) {
      NodeId other = *txn->CreateNode({});
      (void)txn->CreateRelationship(hub, other, "E");
    }
    (void)txn->Commit();
  }
  auto txn = db->Begin();
  for (auto _ : state) {
    benchmark::DoNotOptimize(txn->GetRelationships(hub));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Adjacency)->Arg(4)->Arg(32)->Arg(256);

// The cold shape BM_Adjacency hides: each call reads a random person of a
// 20k-person graph, so its node entry, relationship list and relationship
// entries are rarely in the CPU cache. Threads share one database.
void BM_AdjacencyScattered(benchmark::State& state) {
  // Thread 0 replaces the previous run's database (its threads have all
  // finished); the last one lives until exit, after every reader is done.
  static std::unique_ptr<GraphDatabase> db;
  static SocialGraph graph;
  if (state.thread_index() == 0) {
    db = OpenDb();
    SocialGraphSpec spec;
    spec.people = 20000;
    graph = *BuildSocialGraph(*db, spec);
  }
  Random rng(11 + state.thread_index());
  // Begun inside the loop: only its start barrier orders the other threads
  // after thread 0's set-up.
  std::unique_ptr<Transaction> txn;
  for (auto _ : state) {
    if (txn == nullptr) txn = db->Begin(IsolationLevel::kSnapshotIsolation);
    const NodeId person = graph.people[rng.Uniform(graph.people.size())];
    auto rels = txn->GetRelationships(person);
    if (!rels.ok()) std::abort();
    benchmark::DoNotOptimize(rels->size());
  }
}
BENCHMARK(BM_AdjacencyScattered)->Threads(1)->Threads(4);

void BM_LabelScan(benchmark::State& state) {
  auto db = OpenDb();
  {
    auto txn = db->Begin();
    for (int64_t i = 0; i < state.range(0); ++i) {
      (void)txn->CreateNode({"Member"});
    }
    (void)txn->Commit();
  }
  auto txn = db->Begin();
  for (auto _ : state) {
    benchmark::DoNotOptimize(txn->GetNodesByLabel("Member"));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LabelScan)->Arg(100)->Arg(10000);

void BM_TwoHopTraversal(benchmark::State& state) {
  auto db = OpenDb();
  SocialGraphSpec spec;
  spec.people = 2000;
  auto graph = *BuildSocialGraph(*db, spec);
  auto txn = db->Begin();
  Random rng(1);
  for (auto _ : state) {
    const NodeId start = graph.people[rng.Uniform(graph.people.size())];
    auto neighbors = txn->GetNeighbors(start);
    if (!neighbors.ok()) std::abort();
    size_t total = 0;
    for (NodeId n : *neighbors) {
      auto second = txn->GetNeighbors(n);
      if (second.ok()) total += second->size();
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_TwoHopTraversal);

void BM_MixedTxn(benchmark::State& state) {
  auto db = OpenDb();
  SocialGraphSpec spec;
  spec.people = 1000;
  auto graph = *BuildSocialGraph(*db, spec);
  Random rng(7);
  for (auto _ : state) {
    auto txn = db->Begin();
    const NodeId person = graph.people[rng.Uniform(graph.people.size())];
    auto age = txn->GetNodeProperty(person, "age");
    if (age.ok()) {
      (void)txn->SetNodeProperty(person, "age",
                                 PropertyValue(age->AsInt() + 1));
    }
    benchmark::DoNotOptimize(txn->Commit());
  }
}
BENCHMARK(BM_MixedTxn);

}  // namespace
}  // namespace neosi

BENCHMARK_MAIN();
