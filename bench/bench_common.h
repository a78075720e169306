// Shared helpers for the experiment benches (E1..E12 in DESIGN.md §5).
//
// Each bench binary prints one or more tables reproducing a claim of the
// paper. Scale knob: NEOSI_BENCH_SCALE=<float> multiplies workload sizes
// (default 1.0 keeps every bench in the seconds range).

#ifndef NEOSI_BENCH_BENCH_COMMON_H_
#define NEOSI_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "graph/graph_database.h"

namespace neosi {
namespace bench {

/// Seed every bench draws its per-thread streams from.
constexpr uint64_t kBenchSeed = 1;

/// Seed of stream `stream` under run seed `seed`: a SplitMix64 mix of the
/// pair, so nearby pairs give unrelated generator states. Benches build ONE
/// generator per worker thread from it and never reseed per operation: a
/// per-op seed such as `t * k + op` makes thread t+1's stream thread t's
/// shifted by k operations, so threads replay each other's choices.
inline uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

inline double Scale() {
  const char* env = std::getenv("NEOSI_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double s = std::atof(env);
  return s > 0 ? s : 1.0;
}

inline uint64_t Scaled(uint64_t n) {
  return static_cast<uint64_t>(static_cast<double>(n) * Scale());
}

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration_cast<std::chrono::duration<double>>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  uint64_t Micros() const {
    return static_cast<uint64_t>(Seconds() * 1e6);
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void Banner(const std::string& experiment, const std::string& claim) {
  std::printf("\n=== %s ===\n", experiment.c_str());
  std::printf("paper claim: %s\n\n", claim.c_str());
}

/// gc_interval_ms == 0 disables the GC daemon entirely (no automatic
/// reclamation): benches that measure version-chain or watermark behaviour
/// need the garbage to stay put.
inline std::unique_ptr<GraphDatabase> OpenDb(
    ConflictPolicy policy = ConflictPolicy::kFirstUpdaterWinsWait,
    uint64_t gc_interval_ms = 0, uint64_t gc_backlog_threshold = 1024) {
  DatabaseOptions options;
  options.in_memory = true;
  options.conflict_policy = policy;
  options.background_gc_interval_ms = gc_interval_ms;
  options.gc_backlog_threshold = gc_backlog_threshold;
  auto db = GraphDatabase::Open(options);
  if (!db.ok()) {
    std::fprintf(stderr, "open failed: %s\n", db.status().ToString().c_str());
    std::abort();
  }
  return std::move(*db);
}

}  // namespace bench
}  // namespace neosi

#endif  // NEOSI_BENCH_BENCH_COMMON_H_
