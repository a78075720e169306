// Experiment E11 — end-to-end throughput & latency, read committed vs
// snapshot isolation (paper §1: SI "provides an isolation very close to ...
// serializability while avoiding read-write conflicts").
//
// Social-graph workload: read transactions do a 1-hop neighbourhood read
// with property fetches; write transactions update a person and an edge.
// Read/write mix and thread count are swept for both isolation levels.
//
// E11b — commit pipeline scaling: write-only transactions on disjoint keys
// sweep the writer count. With the staged commit pipeline (no global commit
// mutex; ordered publication via the oracle watermark) commit throughput
// scales with writers instead of serializing end-to-end.
//
// E11c — group-commit WAL: the same sweep on an on-disk database with
// sync_commits=true; concurrent committers share one fsync per batch.
//
// E11d / E12 / E13 — GC daemon on vs off, checkpoint jitter fuzzy vs
// none, segmented-WAL disk high-water (see the banners below).
//
// E14 — bounded version backlog: backlog high-water with a pinned long
// reader, snapshot-too-old policy on vs off.
//
// Set NEOSI_BENCH_JSON=<path> to also emit every cell as JSON (the perf
// trajectory file BENCH_throughput.json).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/random.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/driver.h"
#include "workload/social_graph.h"

namespace neosi {
namespace bench {
namespace {

struct JsonCell {
  std::string section;
  std::string config;
  int threads = 0;
  double txn_per_sec = 0;
  double abort_rate = 0;
  uint64_t p50_us = 0;
  uint64_t p99_us = 0;
};

std::vector<JsonCell>& Cells() {
  static std::vector<JsonCell> cells;
  return cells;
}

void Record(const std::string& section, const std::string& config,
            int threads, const DriverResult& r) {
  Cells().push_back({section, config, threads, r.Throughput(), r.AbortRate(),
                     r.latency_ns.Percentile(50) / 1000,
                     r.latency_ns.Percentile(99) / 1000});
}

void MaybeWriteJson() {
  const char* path = std::getenv("NEOSI_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') return;
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for JSON output\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"throughput\",\n");
  std::fprintf(f, "  \"cells\": [\n");
  for (size_t i = 0; i < Cells().size(); ++i) {
    const JsonCell& c = Cells()[i];
    std::fprintf(f,
                 "    {\"section\": \"%s\", \"config\": \"%s\", "
                 "\"threads\": %d, \"txn_per_sec\": %.1f, "
                 "\"abort_rate\": %.4f, \"p50_us\": %llu, \"p99_us\": %llu}%s\n",
                 c.section.c_str(), c.config.c_str(), c.threads,
                 c.txn_per_sec, c.abort_rate,
                 static_cast<unsigned long long>(c.p50_us),
                 static_cast<unsigned long long>(c.p99_us),
                 i + 1 < Cells().size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %zu cells to %s\n", Cells().size(), path);
}

DriverResult RunCell(IsolationLevel isolation, double read_fraction,
                     int threads, uint64_t duration_ms,
                     const SocialGraph& graph, GraphDatabase& db) {
  return RunForDuration(threads, duration_ms, [&](int t, uint64_t op) {
    Random rng(t * 104729 + op);
    const NodeId person = graph.people[rng.Uniform(graph.people.size())];
    auto txn = db.Begin(isolation);
    if (rng.NextDouble() < read_fraction) {
      // Read txn: neighbourhood + properties.
      auto rels = txn->GetRelationships(person);
      NEOSI_RETURN_IF_ERROR(rels.status());
      auto name = txn->GetNodeProperty(person, "name");
      NEOSI_RETURN_IF_ERROR(name.status());
      for (RelId r : *rels) {
        auto since = txn->GetRelProperty(r, "since");
        if (!since.ok() && !since.status().IsNotFound()) {
          return since.status();
        }
      }
    } else {
      // Write txn: bump the person's age, touch one incident edge.
      auto age = txn->GetNodeProperty(person, "age");
      NEOSI_RETURN_IF_ERROR(age.status());
      NEOSI_RETURN_IF_ERROR(txn->SetNodeProperty(
          person, "age", PropertyValue(age->AsInt() + 1)));
      auto rels = txn->GetRelationships(person);
      NEOSI_RETURN_IF_ERROR(rels.status());
      if (!rels->empty()) {
        NEOSI_RETURN_IF_ERROR(txn->SetRelProperty(
            (*rels)[rng.Uniform(rels->size())], "since",
            PropertyValue(static_cast<int64_t>(2000 + rng.Uniform(26)))));
      }
    }
    return txn->Commit();
  });
}

/// Write-only transactions over per-thread disjoint key ranges: pure commit
/// pipeline pressure with no conflict aborts. Each transaction updates
/// `writes_per_txn` nodes it exclusively owns.
DriverResult RunCommitScalingCell(GraphDatabase& db,
                                  const std::vector<NodeId>& nodes,
                                  int threads, uint64_t duration_ms,
                                  int writes_per_txn) {
  const size_t stripe = nodes.size() / static_cast<size_t>(threads);
  // One generator per thread, padded so threads never share a line.
  struct alignas(64) ThreadRng {
    Random rng;
  };
  std::vector<ThreadRng> rngs;
  rngs.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    rngs.push_back({Random(StreamSeed(kBenchSeed, static_cast<uint64_t>(t)))});
  }
  return RunForDuration(threads, duration_ms, [&, stripe](int t, uint64_t op) {
    Random& rng = rngs[static_cast<size_t>(t)].rng;
    auto txn = db.Begin(IsolationLevel::kSnapshotIsolation);
    const size_t base = static_cast<size_t>(t) * stripe;
    for (int i = 0; i < writes_per_txn; ++i) {
      const NodeId node = nodes[base + rng.Uniform(stripe)];
      NEOSI_RETURN_IF_ERROR(txn->SetNodeProperty(
          node, "v", PropertyValue(static_cast<int64_t>(op))));
    }
    return txn->Commit();
  });
}

Result<std::vector<NodeId>> BuildFlatNodes(GraphDatabase& db, size_t n) {
  std::vector<NodeId> nodes;
  nodes.reserve(n);
  auto txn = db.Begin();
  for (size_t i = 0; i < n; ++i) {
    auto id = txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    if (!id.ok()) return id.status();
    nodes.push_back(*id);
    if (i % 1024 == 1023) {
      NEOSI_RETURN_IF_ERROR(txn->Commit());
      txn = db.Begin();
    }
  }
  NEOSI_RETURN_IF_ERROR(txn->Commit());
  return nodes;
}

std::string MakeTempDir() {
  char tmpl[] = "/tmp/neosi_bench_XXXXXX";
  char* dir = mkdtemp(tmpl);
  return dir ? std::string(dir) : std::string();
}

/// Sum of the on-disk bytes of every WAL file in `dir` (E13's gauge).
uint64_t WalDiskBytesIn(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal.", 0) == 0) {
      const auto size = std::filesystem::file_size(entry, ec);
      // The checkpoint daemon unlinks segments concurrently: a file gone
      // between readdir and stat reports uintmax_t(-1), not a size.
      if (ec) {
        ec.clear();
        continue;
      }
      total += static_cast<uint64_t>(size);
    }
  }
  return total;
}

}  // namespace
}  // namespace bench
}  // namespace neosi

int main() {
  using namespace neosi;
  using namespace neosi::bench;

  Banner("E11: throughput & latency, RC vs SI",
         "removing short read locks lets SI readers run through writers' "
         "long write locks: higher throughput and flatter tail latency, "
         "especially in mixed workloads");

  const uint64_t duration_ms = static_cast<uint64_t>(250 * Scale());

  std::printf("%-20s %7s %8s %10s %12s %10s %10s\n", "isolation", "read%",
              "threads", "txn/s", "abort-rate", "p50(us)", "p99(us)");
  for (double read_fraction : {0.95, 0.80, 0.50}) {
    // A fresh database per mix keeps version chains comparable.
    auto db = OpenDb(ConflictPolicy::kFirstUpdaterWinsWait,
                     /*gc_interval_ms=*/10);
    SocialGraphSpec spec;
    spec.people = Scaled(2000);
    auto graph = *BuildSocialGraph(*db, spec);
    for (IsolationLevel isolation : {IsolationLevel::kReadCommitted,
                                     IsolationLevel::kSnapshotIsolation}) {
      for (int threads : {1, 2, 4, 8}) {
        const DriverResult r =
            RunCell(isolation, read_fraction, threads, duration_ms, graph,
                    *db);
        std::printf(
            "%-20s %6.0f%% %8d %10.0f %11.2f%% %10llu %10llu\n",
            std::string(IsolationLevelToString(isolation)).c_str(),
            read_fraction * 100, threads, r.Throughput(),
            100.0 * r.AbortRate(),
            static_cast<unsigned long long>(r.latency_ns.Percentile(50) /
                                            1000),
            static_cast<unsigned long long>(r.latency_ns.Percentile(99) /
                                            1000));
        char config[64];
        std::snprintf(config, sizeof(config), "%s/read%.0f",
                      std::string(IsolationLevelToString(isolation)).c_str(),
                      read_fraction * 100);
        Record("mixed", config, threads, r);
      }
    }
  }
  std::printf("\nexpected shape: SI >= RC throughput at every cell, with "
              "the gap widening as the write fraction and thread count grow "
              "(RC readers block on write locks and die under wait-die); SI "
              "p99 stays flat while RC p99 inflates.\n");

  Banner("E11b: commit pipeline scaling (write-only, disjoint keys)",
         "the staged commit pipeline validates under per-entity write "
         "locks, sequences only on a timestamp fetch-add, applies in "
         "parallel and publishes in order — multi-writer commit throughput "
         "scales instead of serializing behind a global commit mutex");

  {
    auto db = OpenDb(ConflictPolicy::kFirstUpdaterWinsWait,
                     /*gc_interval_ms=*/10);
    auto nodes = BuildFlatNodes(*db, Scaled(16384));
    if (!nodes.ok()) {
      std::printf("skipped: %s\n", nodes.status().ToString().c_str());
    } else {
      std::printf("%8s %12s %12s %10s %10s\n", "threads", "commits/s",
                  "scaling", "p50(us)", "p99(us)");
      double base = 0;
      for (int threads : {1, 2, 4, 8}) {
        const DriverResult r = RunCommitScalingCell(*db, *nodes, threads,
                                                    duration_ms,
                                                    /*writes_per_txn=*/4);
        if (threads == 1) base = r.Throughput();
        std::printf("%8d %12.0f %11.2fx %10llu %10llu\n", threads,
                    r.Throughput(), base > 0 ? r.Throughput() / base : 0.0,
                    static_cast<unsigned long long>(
                        r.latency_ns.Percentile(50) / 1000),
                    static_cast<unsigned long long>(
                        r.latency_ns.Percentile(99) / 1000));
        Record("commit_scaling", "write_only", threads, r);
      }
    }
  }

  Banner("E11c: group-commit WAL (on-disk, sync_commits)",
         "concurrent sync commits share one fsync per batch: throughput "
         "grows with writers even though every commit is durable");

  {
    const std::string dir = MakeTempDir();
    if (dir.empty()) {
      std::printf("skipped: cannot create temp dir\n");
    } else {
      DatabaseOptions options;
      options.in_memory = false;
      options.path = dir;
      options.sync_commits = true;
      options.background_gc_interval_ms = 10;
      auto opened = GraphDatabase::Open(options);
      if (!opened.ok()) {
        std::printf("skipped: %s\n", opened.status().ToString().c_str());
      } else {
        auto db = std::move(*opened);
        auto nodes = BuildFlatNodes(*db, Scaled(4096));
        if (!nodes.ok()) {
          std::printf("skipped: %s\n", nodes.status().ToString().c_str());
        } else {
          std::printf("%8s %12s %12s %10s %10s\n", "threads", "commits/s",
                      "scaling", "p50(us)", "p99(us)");
          double base = 0;
          for (int threads : {1, 2, 4, 8}) {
            const DriverResult r = RunCommitScalingCell(*db, *nodes, threads,
                                                        duration_ms,
                                                        /*writes_per_txn=*/2);
            if (threads == 1) base = r.Throughput();
            std::printf("%8d %12.0f %11.2fx %10llu %10llu\n", threads,
                        r.Throughput(),
                        base > 0 ? r.Throughput() / base : 0.0,
                        static_cast<unsigned long long>(
                            r.latency_ns.Percentile(50) / 1000),
                        static_cast<unsigned long long>(
                            r.latency_ns.Percentile(99) / 1000));
            Record("group_commit_sync", "write_only_fsync", threads, r);
          }
        }
      }
    }
  }

  Banner("E11d: watermark-paced GC daemon on vs off",
         "reclamation is fully asynchronous — committing threads only read "
         "one atomic backlog gauge, so commit throughput with the daemon "
         "collecting continuously stays at the no-GC-at-all level while the "
         "version backlog stays bounded");

  std::printf("%-12s %8s %12s %12s %14s %12s\n", "config", "threads",
              "commits/s", "p99(us)", "backlog-peak", "gc-passes");
  for (const bool daemon_on : {false, true}) {
    const char* config = daemon_on ? "daemon_on" : "daemon_off";
    // Fresh database per cell: the pacing stats are lifetime counters, so
    // sharing one database would attribute earlier cells' (and setup) GC
    // work to the wrong row.
    for (int threads : {1, 4}) {
      auto db = OpenDb(ConflictPolicy::kFirstUpdaterWinsWait,
                       /*gc_interval_ms=*/daemon_on ? 10 : 0,
                       /*gc_backlog_threshold=*/1024);
      auto nodes = BuildFlatNodes(*db, Scaled(16384));
      if (!nodes.ok()) {
        std::printf("skipped: %s\n", nodes.status().ToString().c_str());
        continue;
      }
      const DriverResult r = RunCommitScalingCell(*db, *nodes, threads,
                                                  duration_ms,
                                                  /*writes_per_txn=*/4);
      const DatabaseStats stats = db->Stats();
      std::printf("%-12s %8d %12.0f %12llu %14llu %12llu\n", config, threads,
                  r.Throughput(),
                  static_cast<unsigned long long>(
                      r.latency_ns.Percentile(99) / 1000),
                  static_cast<unsigned long long>(stats.gc_backlog_high_water),
                  static_cast<unsigned long long>(stats.gc_daemon_passes));
      if (daemon_on) {
        std::printf("  pacing: %llu nudge passes, %llu interval passes, "
                    "%llu reclaimed of %llu appended\n",
                    static_cast<unsigned long long>(
                        stats.gc_daemon_nudge_passes),
                    static_cast<unsigned long long>(
                        stats.gc_daemon_interval_passes),
                    static_cast<unsigned long long>(stats.gc_reclaimed),
                    static_cast<unsigned long long>(stats.gc_appended));
      }
      Record("gc_daemon", config, threads, r);
    }
  }

  Banner("E12: commit-latency jitter during checkpoint",
         "the fuzzy incremental checkpoint notes the stable LSN, syncs only "
         "dirty stores and truncates only the replayed WAL prefix — commits "
         "never stall behind it");

  {
    std::printf("%-14s %8s %12s %10s %10s %10s %12s\n", "config", "threads",
                "commits/s", "p50(us)", "p99(us)", "p99.9(us)", "checkpoints");
    for (const char* config : {"no_checkpoint", "fuzzy"}) {
      for (int threads : {1, 2}) {
        const std::string dir = MakeTempDir();
        if (dir.empty()) {
          std::printf("skipped: cannot create temp dir\n");
          continue;
        }
        DatabaseOptions options;
        options.in_memory = false;
        options.path = dir;
        options.sync_commits = true;
        options.background_gc_interval_ms = 10;
        options.checkpoint_interval_ms = 0;  // Manual checkpointer below.
        auto opened = GraphDatabase::Open(options);
        if (!opened.ok()) {
          std::printf("skipped: %s\n", opened.status().ToString().c_str());
          continue;
        }
        auto db = std::move(*opened);
        auto nodes = BuildFlatNodes(*db, Scaled(4096));
        if (!nodes.ok()) {
          std::printf("skipped: %s\n", nodes.status().ToString().c_str());
          continue;
        }

        // Checkpoint continuously while the writers run, so the latency
        // distribution captures every commit that overlaps a checkpoint.
        std::atomic<bool> stop{false};
        std::atomic<uint64_t> checkpoints{0};
        std::thread checkpointer([&, config] {
          if (std::string(config) == "no_checkpoint") return;
          while (!stop.load(std::memory_order_acquire)) {
            if (db->Checkpoint().ok()) checkpoints.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
        });
        const DriverResult r = RunCommitScalingCell(*db, *nodes, threads,
                                                    duration_ms,
                                                    /*writes_per_txn=*/2);
        stop.store(true, std::memory_order_release);
        checkpointer.join();

        std::printf("%-14s %8d %12.0f %10llu %10llu %10llu %12llu\n", config,
                    threads, r.Throughput(),
                    static_cast<unsigned long long>(
                        r.latency_ns.Percentile(50) / 1000),
                    static_cast<unsigned long long>(
                        r.latency_ns.Percentile(99) / 1000),
                    static_cast<unsigned long long>(
                        r.latency_ns.Percentile(99.9) / 1000),
                    static_cast<unsigned long long>(checkpoints.load()));
        Record("checkpoint_jitter", config, threads, r);
      }
    }
    std::printf("\nexpected shape: fuzzy throughput and tail latency track "
                "the no-checkpoint baseline (commits never wait for a "
                "checkpoint).\n");
  }

  Banner("E13: sustained-write WAL disk high-water (segmented vs "
         "single-file)",
         "rotating fixed-size segments let checkpoints reclaim disk by "
         "unlinking whole dead segment files — unconditional on every "
         "backend; a single-file log (emulated with one giant segment) can "
         "only grow its extent between quiescent moments, so its on-disk "
         "high-water tracks TOTAL log volume instead of the live bytes");

  {
    std::printf("%-12s %8s %12s %16s %14s %12s\n", "config", "threads",
                "commits/s", "disk-peak(KiB)", "final(KiB)", "seg-deleted");
    for (const char* config : {"segmented", "single_file"}) {
      const int threads = 2;
      const std::string dir = MakeTempDir();
      if (dir.empty()) {
        std::printf("skipped: cannot create temp dir\n");
        continue;
      }
      DatabaseOptions options;
      options.in_memory = false;
      options.path = dir;
      options.background_gc_interval_ms = 10;
      options.checkpoint_interval_ms = 2;
      options.checkpoint_wal_threshold = 8ull << 10;  // 8 KiB
      // "single_file": one giant segment the workload never rolls past —
      // exactly the pre-rotation behaviour on a hole-less backend (nothing
      // below the head can be physically reclaimed while the log is hot).
      options.wal_segment_size =
          std::string(config) == "segmented" ? (32ull << 10) : (1ull << 30);
      auto opened = GraphDatabase::Open(options);
      if (!opened.ok()) {
        std::printf("skipped: %s\n", opened.status().ToString().c_str());
        continue;
      }
      auto db = std::move(*opened);
      auto nodes = BuildFlatNodes(*db, Scaled(4096));
      if (!nodes.ok()) {
        std::printf("skipped: %s\n", nodes.status().ToString().c_str());
        continue;
      }

      std::atomic<bool> stop{false};
      std::atomic<uint64_t> high_water{0};
      std::thread sampler([&] {
        while (!stop.load(std::memory_order_acquire)) {
          const uint64_t disk = WalDiskBytesIn(dir);
          uint64_t seen = high_water.load(std::memory_order_relaxed);
          while (disk > seen &&
                 !high_water.compare_exchange_weak(seen, disk)) {
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
      // 4x the standard window: the contrast needs enough TOTAL log volume
      // to dwarf the segmented bound (many segments' worth).
      const DriverResult r = RunCommitScalingCell(*db, *nodes, threads,
                                                  4 * duration_ms,
                                                  /*writes_per_txn=*/4);
      stop.store(true, std::memory_order_release);
      sampler.join();

      // Quiesce: after a final checkpoint the segmented log collapses to
      // one partial segment; the giant-segment log keeps its full extent.
      (void)db->Checkpoint();
      const uint64_t final_bytes = WalDiskBytesIn(dir);
      const DatabaseStats stats = db->Stats();
      std::printf("%-12s %8d %12.0f %16llu %14llu %12llu\n", config, threads,
                  r.Throughput(),
                  static_cast<unsigned long long>(high_water.load() >> 10),
                  static_cast<unsigned long long>(final_bytes >> 10),
                  static_cast<unsigned long long>(
                      stats.store.wal_segments_deleted));
      Record("wal_disk", config, threads, r);
    }
    std::printf("\nexpected shape: comparable commit throughput, but the "
                "segmented disk-peak stays near (live log + 2 segments) "
                "while single_file's peak equals the total log volume the "
                "run produced.\n");
  }

  Banner("E14: bounded version backlog — snapshot-too-old policy",
         "one long-lived reader pins the reclamation watermark, so under "
         "sustained writes the version backlog grows with TOTAL write "
         "volume; the snapshot lifecycle policy (snapshot_max_age_ms) "
         "expires the pinning snapshot, advances the watermark past it and "
         "keeps the backlog high-water bounded");

  {
    // Pinned long reader, policy off vs on. A reader re-pins the
    // watermark continuously (new snapshot as soon as the previous one is
    // evicted or the hold expires); two writers churn versions. With the
    // policy off the backlog high-water tracks total appends; with a 20 ms
    // max age it stays bounded near one eviction window's worth.
    std::printf("%-12s %8s %12s %14s %14s %12s %10s\n", "config", "threads",
                "commits/s", "backlog-peak", "gc-appended", "evictions",
                "aborts");
    for (const bool policy_on : {false, true}) {
      const char* config = policy_on ? "policy_on" : "policy_off";
      DatabaseOptions options;
      options.in_memory = true;
      options.background_gc_interval_ms = 2;
      options.gc_backlog_threshold = 64;
      options.snapshot_max_age_ms = policy_on ? 20 : 0;
      auto opened = GraphDatabase::Open(options);
      if (!opened.ok()) {
        std::printf("skipped: %s\n", opened.status().ToString().c_str());
        continue;
      }
      auto db = std::move(*opened);
      auto nodes = BuildFlatNodes(*db, Scaled(8192));
      if (!nodes.ok()) {
        std::printf("skipped: %s\n", nodes.status().ToString().c_str());
        continue;
      }

      std::atomic<bool> stop{false};
      std::atomic<uint64_t> evicted{0};
      std::thread pinner([&] {
        while (!stop.load(std::memory_order_acquire)) {
          auto txn = db->Begin(IsolationLevel::kSnapshotIsolation);
          (void)txn->GetNodeProperty((*nodes)[0], "v");
          // Hold the snapshot ~4 eviction windows (or forever, policy off:
          // re-pin immediately after the hold so the watermark never
          // advances for long).
          for (int i = 0; i < 80 && !stop.load(std::memory_order_acquire);
               ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          auto again = txn->GetNodeProperty((*nodes)[0], "v");
          if (!again.ok() && again.status().IsSnapshotTooOld()) {
            evicted.fetch_add(1);
          }
        }
      });
      const int threads = 2;
      const DriverResult r = RunCommitScalingCell(*db, *nodes, threads,
                                                  2 * duration_ms,
                                                  /*writes_per_txn=*/4);
      stop.store(true, std::memory_order_release);
      pinner.join();
      const DatabaseStats stats = db->Stats();
      std::printf("%-12s %8d %12.0f %14llu %14llu %12llu %10llu\n", config,
                  threads, r.Throughput(),
                  static_cast<unsigned long long>(stats.gc_backlog_high_water),
                  static_cast<unsigned long long>(stats.gc_appended),
                  static_cast<unsigned long long>(
                      stats.snapshots_expired_age +
                      stats.snapshots_expired_backlog),
                  static_cast<unsigned long long>(
                      stats.snapshot_too_old_aborts));
      if (policy_on) {
        std::printf("  client-observed SnapshotTooOld evictions on the "
                    "pinning reader: %llu\n",
                    static_cast<unsigned long long>(evicted.load()));
      }
      Record("snapshot_lifecycle", config, threads, r);
    }
    std::printf("\nexpected shape: policy_off backlog-peak ~= gc-appended "
                "(the pinned watermark retains every superseded version); "
                "policy_on keeps it orders of magnitude lower at comparable "
                "commit throughput.\n");
  }

  Banner("E15: latch-free read path (epoch-based reclamation)",
         "read-mostly SI throughput does not degrade with reader count: "
         "committed-visibility walks acquire no latches — readers enter an "
         "epoch (one CAS into a padded slot + one fence) and traverse raw "
         "atomic links, so concurrent readers of a hot entity never "
         "serialize on its chain SpinLatch; RC rides the same path and "
         "never pins the GC watermark");

  {
    std::printf("%-20s %7s %8s %10s %12s %10s %10s\n", "isolation", "read%",
                "threads", "txn/s", "abort-rate", "p50(us)", "p99(us)");
    for (double read_fraction : {0.95, 1.0}) {
      // A fresh database per mix: comparable chain lengths.
      DatabaseOptions options;
      options.in_memory = true;
      options.conflict_policy = ConflictPolicy::kFirstUpdaterWinsWait;
      options.background_gc_interval_ms = 10;
      auto opened = GraphDatabase::Open(options);
      if (!opened.ok()) {
        std::printf("skipped: %s\n", opened.status().ToString().c_str());
        continue;
      }
      auto db = std::move(*opened);
      SocialGraphSpec spec;
      spec.people = Scaled(2000);
      auto graph = *BuildSocialGraph(*db, spec);
      for (IsolationLevel isolation : {IsolationLevel::kSnapshotIsolation,
                                       IsolationLevel::kReadCommitted}) {
        for (int threads : {1, 2, 4, 8}) {
          const DriverResult r = RunCell(isolation, read_fraction, threads,
                                         duration_ms, graph, *db);
          std::printf(
              "%-20s %6.0f%% %8d %10.0f %11.2f%% %10llu %10llu\n",
              std::string(IsolationLevelToString(isolation)).c_str(),
              read_fraction * 100, threads, r.Throughput(),
              100.0 * r.AbortRate(),
              static_cast<unsigned long long>(r.latency_ns.Percentile(50) /
                                              1000),
              static_cast<unsigned long long>(r.latency_ns.Percentile(99) /
                                              1000));
          char config[64];
          std::snprintf(
              config, sizeof(config), "%s/read%.0f",
              std::string(IsolationLevelToString(isolation)).c_str(),
              read_fraction * 100);
          Record("epoch_reads", config, threads, r);
        }
      }
    }
    std::printf("\nexpected shape (multi-core): SI/RC read-mostly "
                "throughput is monotone non-degrading 1->8 threads. On a "
                "single-core box all curves are flat.\n");
  }

  Banner("E16: serializable (SSI) overhead vs plain SI, read-mostly",
         "full serializability costs SIREAD marker maintenance on every "
         "read, rw-antidependency bookkeeping and one commit-decision "
         "mutex across serializable committers — the read-mostly mix "
         "bounds that overhead against the SI baseline, and retryable "
         "SerializationFailure aborts replace silent write skew");

  {
    const double read_fraction = 0.95;
    auto db = OpenDb(ConflictPolicy::kFirstUpdaterWinsWait,
                     /*gc_interval_ms=*/10);
    SocialGraphSpec spec;
    spec.people = Scaled(2000);
    auto graph = *BuildSocialGraph(*db, spec);
    std::printf("%-20s %7s %8s %10s %12s %10s %10s\n", "isolation", "read%",
                "threads", "txn/s", "abort-rate", "p50(us)", "p99(us)");
    for (IsolationLevel isolation : {IsolationLevel::kSnapshotIsolation,
                                     IsolationLevel::kSerializable}) {
      for (int threads : {1, 2, 4, 8}) {
        const DriverResult r = RunCell(isolation, read_fraction, threads,
                                       duration_ms, graph, *db);
        std::printf(
            "%-20s %6.0f%% %8d %10.0f %11.2f%% %10llu %10llu\n",
            std::string(IsolationLevelToString(isolation)).c_str(),
            read_fraction * 100, threads, r.Throughput(),
            100.0 * r.AbortRate(),
            static_cast<unsigned long long>(r.latency_ns.Percentile(50) /
                                            1000),
            static_cast<unsigned long long>(r.latency_ns.Percentile(99) /
                                            1000));
        char config[64];
        std::snprintf(config, sizeof(config), "%s/read%.0f",
                      std::string(IsolationLevelToString(isolation)).c_str(),
                      read_fraction * 100);
        Record("ssi_overhead", config, threads, r);
      }
    }
    std::printf("\nexpected shape: serializable throughput tracks SI within "
                "the marker/bookkeeping overhead at low thread counts; the "
                "gap grows with writer concurrency as commit decisions "
                "serialize on the tracker's commit mutex and dangerous-"
                "structure aborts appear in the abort-rate column.\n");
  }

  Banner("E17: WAL-shipping read replicas — primary writes, replica reads, "
         "replication lag",
         "a replica tails the primary's segmented WAL and serves SI "
         "snapshots pinned at its replay watermark: replica reads add "
         "capacity without taking any primary latch, writes on a replica "
         "fail fast with retryable ReplicaReadOnly, and the lag columns "
         "bound snapshot staleness in commits");

  {
    // Primary keeps every WAL segment for the duration of the bench so the
    // tailing replicas can never fall below a truncation cut.
    DatabaseOptions popts;
    popts.in_memory = true;
    popts.background_gc_interval_ms = 10;
    popts.wal_keep_segments = 1 << 20;
    auto opened = GraphDatabase::Open(popts);
    if (!opened.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   opened.status().ToString().c_str());
      std::abort();
    }
    auto primary = std::move(*opened);
    SocialGraphSpec spec;
    spec.people = Scaled(2000);
    auto graph = *BuildSocialGraph(*primary, spec);

    std::printf("%-9s %8s %14s %15s %18s %18s\n", "replicas", "writers",
                "primary-txn/s", "replica-read/s", "lag-p50(commits)",
                "lag-max(commits)");
    for (int replicas : {1, 2}) {
      std::vector<std::unique_ptr<GraphDatabase>> fleet;
      for (int i = 0; i < replicas; ++i) {
        DatabaseOptions ropts;
        ropts.in_memory = true;
        ropts.replica_of = primary->engine().store.dir();
        ropts.replica_poll_interval_ms = 1;
        auto rep = GraphDatabase::Open(ropts);
        if (!rep.ok()) {
          std::fprintf(stderr, "replica open failed: %s\n",
                       rep.status().ToString().c_str());
          std::abort();
        }
        fleet.push_back(std::move(*rep));
        if (!fleet.back()->replica_applier()->WaitCaughtUp(30000)) {
          std::fprintf(
              stderr, "replica never caught up: %s\n",
              fleet.back()->replica_applier()->last_error().ToString().c_str());
          std::abort();
        }
      }

      // One writer hammers the primary while each replica serves one
      // reader; a sampler thread polls the watermark gap the whole time.
      std::vector<uint64_t> lags;
      std::atomic<bool> sampling{true};
      std::thread sampler([&] {
        while (sampling.load(std::memory_order_relaxed)) {
          const Timestamp head = primary->Stats().last_committed;
          for (auto& rep : fleet) {
            const Timestamp applied = rep->Stats().replica_applied_ts;
            lags.push_back(head > applied ? head - applied : 0);
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      });
      DriverResult writer_r;
      std::thread writer([&] {
        writer_r = RunCell(IsolationLevel::kSnapshotIsolation,
                           /*read_fraction=*/0.0, /*threads=*/1, duration_ms,
                           graph, *primary);
      });
      std::vector<DriverResult> reader_r(replicas);
      std::vector<std::thread> readers;
      for (int i = 0; i < replicas; ++i) {
        readers.emplace_back([&, i] {
          reader_r[i] = RunCell(IsolationLevel::kSnapshotIsolation,
                                /*read_fraction=*/1.0, /*threads=*/1,
                                duration_ms, graph, *fleet[i]);
        });
      }
      writer.join();
      for (auto& t : readers) t.join();
      sampling.store(false, std::memory_order_relaxed);
      sampler.join();

      std::sort(lags.begin(), lags.end());
      const uint64_t lag_p50 = lags.empty() ? 0 : lags[lags.size() / 2];
      const uint64_t lag_max = lags.empty() ? 0 : lags.back();
      double replica_reads = 0;
      for (const DriverResult& r : reader_r) replica_reads += r.Throughput();
      std::printf("%-9d %8d %14.0f %15.0f %18llu %18llu\n", replicas, 1,
                  writer_r.Throughput(), replica_reads,
                  static_cast<unsigned long long>(lag_p50),
                  static_cast<unsigned long long>(lag_max));

      char config[64];
      std::snprintf(config, sizeof(config), "primary_writes/replicas%d",
                    replicas);
      Record("replication", config, 1, writer_r);
      for (int i = 0; i < replicas; ++i) {
        std::snprintf(config, sizeof(config), "replica_reads/r%d_of%d", i,
                      replicas);
        Record("replication", config, 1, reader_r[i]);
      }
      // Lag cell: the p50/p99 columns carry commits-behind-primary (not
      // microseconds) — the config string says so.
      std::snprintf(config, sizeof(config),
                    "lag_commits_p50_p99/replicas%d", replicas);
      Cells().push_back({"replication", config, replicas, 0, 0, lag_p50,
                         lag_max});
    }
    std::printf("\nexpected shape: replica read throughput is additive "
                "capacity (it does not dent the primary writer column), and "
                "lag stays bounded at a few commits with a 1ms poll. On a "
                "single-core box all five threads timeshare one core, so "
                "judge absolute columns there loosely and the lag bound "
                "strictly.\n");
  }

  Banner("E18: sync-commit ack latency — flusher-owned fsync vs "
         "leader-inline fsync",
         "async group flush moves fsync off the commit path: the batch "
         "leader hands the flusher a target LSN and every participant "
         "parks on the flushed-LSN watermark, so the seat-holding leader "
         "stops serializing the next batch behind its own fsync — the ack "
         "p99 column is the contract, commits/s the sanity check");

  {
    std::printf("%-10s %8s %12s %10s %10s\n", "flush", "writers",
                "commits/s", "p50(us)", "p99(us)");
    for (const bool async_flush : {false, true}) {
      // A fresh on-disk database per mode: the inline baseline must not
      // inherit the async mode's pre-allocated segment chain.
      const std::string dir = MakeTempDir();
      if (dir.empty()) {
        std::printf("skipped: cannot create temp dir\n");
        continue;
      }
      DatabaseOptions options;
      options.in_memory = false;
      options.path = dir;
      options.sync_commits = true;
      options.background_gc_interval_ms = 10;
      options.wal_async_flush = async_flush;
      options.wal_preallocate = async_flush;
      auto opened = GraphDatabase::Open(options);
      if (!opened.ok()) {
        std::printf("skipped: %s\n", opened.status().ToString().c_str());
        continue;
      }
      auto db = std::move(*opened);
      auto nodes = BuildFlatNodes(*db, Scaled(4096));
      if (!nodes.ok()) {
        std::printf("skipped: %s\n", nodes.status().ToString().c_str());
        continue;
      }
      const char* mode = async_flush ? "async" : "inline";
      for (int threads : {1, 2, 4, 8}) {
        const DriverResult r = RunCommitScalingCell(*db, *nodes, threads,
                                                    duration_ms,
                                                    /*writes_per_txn=*/2);
        std::printf("%-10s %8d %12.0f %10llu %10llu\n", mode, threads,
                    r.Throughput(),
                    static_cast<unsigned long long>(
                        r.latency_ns.Percentile(50) / 1000),
                    static_cast<unsigned long long>(
                        r.latency_ns.Percentile(99) / 1000));
        char config[64];
        std::snprintf(config, sizeof(config), "%s/sync_ack", mode);
        Record("commit_io_flush", config, threads, r);
      }
    }
    std::printf("\nexpected shape (multi-core): async ack p99 at 4-8 "
                "writers sits below inline (waiters park on the watermark "
                "instead of queueing behind a seat-holding leader's fsync), "
                "at one writer the two modes are within noise (someone "
                "still pays every fsync). On a single-core box the flusher "
                "timeshares the core with the writers, so judge the "
                "columns loosely there; the stable signal is that async is "
                "never categorically worse.\n");
  }

  Banner("E19: network session front-end — in-process vs socket, "
         "latency & throughput",
         "the same read-modify-write transaction driven through the "
         "embedded API and through the wire protocol (one socket session "
         "per client thread, multiplexed over the server's 2 threads on "
         "one epoll set): the column gap is the full cost of framing, "
         "CRCs, loopback TCP, and session scheduling — 4 round trips per "
         "transaction (begin/read/write/commit)");

  {
    DatabaseOptions options;  // In-memory: isolate the wire cost itself.
    options.background_gc_interval_ms = 10;
    auto opened = GraphDatabase::Open(options);
    if (!opened.ok()) {
      std::printf("skipped: %s\n", opened.status().ToString().c_str());
    } else {
      auto db = std::move(*opened);
      auto nodes = BuildFlatNodes(*db, Scaled(1024));
      if (!nodes.ok()) {
        std::printf("skipped: %s\n", nodes.status().ToString().c_str());
      } else {
        ServerOptions server_options;
        server_options.workers = 2;
        auto server_or = Server::Start(db.get(), server_options);
        if (!server_or.ok()) {
          std::printf("skipped: %s\n",
                      server_or.status().ToString().c_str());
        } else {
          auto server = std::move(*server_or);
          std::printf("%-12s %8s %12s %10s %10s %8s\n", "path", "clients",
                      "txn/s", "p50(us)", "p99(us)", "abort%");
          // Disjoint key per client thread: the contrast is transport
          // overhead, not lock contention.
          for (const bool over_wire : {false, true}) {
            std::vector<std::unique_ptr<Client>> clients;
            bool connected = true;
            for (int i = 0; i < 8; ++i) {
              clients.push_back(std::make_unique<Client>());
              if (over_wire &&
                  !clients.back()
                       ->Connect("127.0.0.1", server->port())
                       .ok()) {
                connected = false;
                break;
              }
            }
            if (!connected) {
              std::printf("skipped: client connect failed\n");
              continue;
            }
            for (int threads : {1, 2, 4, 8}) {
              const DriverResult r = RunForDuration(
                  threads, duration_ms, [&](int t, uint64_t op) -> Status {
                    const NodeId key =
                        (*nodes)[static_cast<size_t>(t) % nodes->size()];
                    const auto value =
                        PropertyValue(static_cast<int64_t>(op));
                    if (!over_wire) {
                      auto txn =
                          db->Begin(IsolationLevel::kSnapshotIsolation);
                      auto read = txn->GetNodeProperty(key, "v");
                      NEOSI_RETURN_IF_ERROR(read.status());
                      NEOSI_RETURN_IF_ERROR(
                          txn->SetNodeProperty(key, "v", value));
                      return txn->Commit();
                    }
                    Client& client = *clients[static_cast<size_t>(t)];
                    auto begin =
                        client.Begin(IsolationLevel::kSnapshotIsolation);
                    NEOSI_RETURN_IF_ERROR(begin.status());
                    auto read = client.GetNodeProperty(key, "v");
                    if (!read.ok()) {
                      (void)client.Rollback();
                      return read.status();
                    }
                    const Status write =
                        client.SetNodeProperty(key, "v", value);
                    if (!write.ok()) {
                      (void)client.Rollback();
                      return write;
                    }
                    return client.Commit().status();
                  });
              const char* path = over_wire ? "socket" : "in_process";
              std::printf("%-12s %8d %12.0f %10llu %10llu %7.1f%%\n", path,
                          threads, r.Throughput(),
                          static_cast<unsigned long long>(
                              r.latency_ns.Percentile(50) / 1000),
                          static_cast<unsigned long long>(
                              r.latency_ns.Percentile(99) / 1000),
                          100 * r.AbortRate());
              Record("wire_front_end", path, threads, r);
            }
          }
          std::printf(
              "\nexpected shape: socket p50 carries a fixed several-"
              "round-trip tax over in_process (loopback RTT x 4 plus "
              "epoll/worker handoffs), so socket throughput per client is "
              "RTT-bound and scales with CLIENT COUNT while in_process "
              "scales with cores. On a single-core box both columns "
              "timeshare one core and the wire tax shows up almost "
              "entirely in p50/p99 rather than txn/s.\n");
          server->Stop();
        }
      }
    }
  }

  MaybeWriteJson();
  return 0;
}
