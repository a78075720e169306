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

// The 20k-person graph the scattered benchmarks read. Thread 0 replaces
// the previous run's database (its threads have all finished); the last
// one lives until exit, after every reader is done.
struct ScatteredGraph {
  std::unique_ptr<GraphDatabase> db;
  SocialGraph graph;
};

ScatteredGraph& SetUpScattered(const benchmark::State& state) {
  static ScatteredGraph scattered;
  if (state.thread_index() == 0) {
    scattered.db = OpenDb();
    SocialGraphSpec spec;
    spec.people = 20000;
    scattered.graph = *BuildSocialGraph(*scattered.db, spec);
  }
  return scattered;
}

// Runs `read(txn, person)` on random people of the scattered graph, each
// thread in one SI transaction of its own.
template <typename Read>
void ReadScattered(benchmark::State& state, Read read) {
  ScatteredGraph& scattered = SetUpScattered(state);
  Random rng(11 + state.thread_index());
  // Begun inside the loop: only its start barrier orders the other threads
  // after thread 0's set-up.
  std::unique_ptr<Transaction> txn;
  for (auto _ : state) {
    if (txn == nullptr) {
      txn = scattered.db->Begin(IsolationLevel::kSnapshotIsolation);
    }
    const std::vector<NodeId>& people = scattered.graph.people;
    const size_t found = read(*txn, people[rng.Uniform(people.size())]);
    benchmark::DoNotOptimize(found);
  }
}

// The cold shape BM_Adjacency hides: each call reads a random person of a
// 20k-person graph, so its node entry, relationship list and relationship
// entries are rarely in the CPU cache. Threads share one database.
void BM_AdjacencyScattered(benchmark::State& state) {
  ReadScattered(state, [](Transaction& txn, NodeId person) {
    auto rels = txn.GetRelationships(person);
    if (!rels.ok()) std::abort();
    return rels->size();
  });
}
BENCHMARK(BM_AdjacencyScattered)->Threads(1)->Threads(4);

// The same cold shape through GetNeighbors, which takes each neighbour from
// the relationship entry the adjacency walk already resolved.
void BM_NeighborsScattered(benchmark::State& state) {
  ReadScattered(state, [](Transaction& txn, NodeId person) {
    auto neighbors = txn.GetNeighbors(person);
    if (!neighbors.ok()) std::abort();
    return neighbors->size();
  });
}
BENCHMARK(BM_NeighborsScattered)->Threads(1)->Threads(4);

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
