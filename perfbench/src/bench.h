// Shared declarations of the repo benchmark: workload definitions, the
// metric record every run prints, timing/statistics helpers, and the
// entry points of the training, serving and per-layer measurements.
#pragma once

#include <barrier>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

#include "memory/pool_allocator.h"
#include "model/config.h"
#include "serve/config.h"
#include "serve/traffic.h"

namespace mls::model {
class GPTModel;
}

namespace perfbench {

using mls::model::ModelConfig;

struct Workload {
  std::string name;
  bool serving = false;
  ModelConfig cfg;                // model shape and parallel grid
  mls::serve::ServeConfig scfg;   // serving workloads only
  mls::serve::TrafficConfig tcfg; // serving workloads only
  // Kernel worker threads per rank; 0 keeps the library default (host
  // cores / world size).
  int kernel_threads = 0;
  // Tokens one training step consumes (s * b * microbatches).
  int64_t tokens_per_step() const { return cfg.s * cfg.global_batch; }
  int world() const { return serving ? cfg.t : cfg.t * cfg.p; }
};

// `tiny` shrinks every shape for the self-test; the structure (grid,
// plan, recompute rung, scheduler knobs) stays the same.
Workload make_workload(const std::string& name, bool tiny);

// Name -> (value, unit), in insertion order.
struct Metrics {
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries;
  void add(const std::string& name, double value, const std::string& unit) {
    entries.push_back({name, value, unit});
  }
  const Entry* find(const std::string& name) const {
    for (const auto& e : entries)
      if (e.name == name) return &e;
    return nullptr;
  }
};

// Outcome of one workload phase: its metrics plus the operation and
// correctness tallies of the printed result.
struct Outcome {
  Metrics metrics;
  // Per-layer numbers a workload run produces as a by-product (the
  // serving run's scheduler counters), reported only when traced.
  Metrics detail;
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> notes;  // why a gate failed, for stderr
  void fail_gate(const std::string& why) {
    correct = false;
    notes.push_back(why);
  }
};

// ---------------------------------------------------------- helpers
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU seconds the whole process has used. Set beside a window's wall
// time, it tells the program's own cost from time the host took away.
inline double cpu_s() { return static_cast<double>(std::clock()) / CLOCKS_PER_SEC; }

// Linear-interpolated percentile (q in [0, 1]) of unsorted samples;
// 0 for an empty sample.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// Releases a fixed set of rank threads together and timestamps each
// release, so every rank sees the same clock and leaves a timed loop
// after the same iteration. A rank that fails drops out, so the others
// never wait for it.
class StepClock {
 public:
  explicit StepClock(int ranks) : bar_(ranks, Mark{this}) { marks_.reserve(1 << 16); }
  // Waits for every rank; returns the release time (same on all ranks).
  double sync() {
    bar_.arrive_and_wait();
    return marks_.back();
  }
  void drop() { bar_.arrive_and_drop(); }

 private:
  struct Mark {
    StepClock* clock;
    void operator()() noexcept { clock->marks_.push_back(now_s()); }
  };
  std::vector<double> marks_;
  std::barrier<Mark> bar_;
};

// Whether a timed loop that started at `start` runs iteration `i`
// released at `t`: at least `min_iters`, then until `seconds` pass or
// `max_iters` is reached.
inline bool in_window(int64_t i, double t, double start, double seconds,
                      int64_t min_iters, int64_t max_iters) {
  return i < max_iters && (i < min_iters || t - start < seconds);
}

// Number of set-ups per run; set-up time is reported as their median.
constexpr int kSetups = 15;
// Training: how many of the last set-ups also run the cold step, whose
// losses must be bit-identical.
constexpr int kColdSteps = 3;

// One closed-loop serving pass on the calling rank: a fresh scheduler
// over `model`, driven until the traffic's requests are all retired.
struct ServeRun {
  std::vector<mls::serve::Completion> completions;
  mls::serve::SchedStats stats;
  mls::serve::KVStats kv;
  std::vector<double> step_s;        // wall time of each scheduler step
  std::vector<double> step_end_s;    // when each step ended (now_s clock)
  std::vector<int64_t> step_tokens;  // tokens each step generated
  double start_s = 0;                // when the pass began
  mls::memory::AllocStats alloc_before, alloc_after;
  double wall_s = 0;
};
ServeRun serve_closed_loop(mls::model::GPTModel& model,
                           const mls::serve::ServeConfig& scfg,
                           const mls::serve::TrafficConfig& tcfg);
// The serve.* metrics of one pass.
void add_serve_detail(Metrics& m, const ServeRun& r);
// memory.allocs_per_step / pool_hit_rate / fragmentation from two
// arena snapshots `steps` steps apart.
void add_alloc_detail(Metrics& m, const mls::memory::AllocStats& before,
                      const mls::memory::AllocStats& after, int64_t steps);

// ---------------------------------------------------- measurements
// End-to-end run of a workload for `seconds` (untraced unless the
// global tracer is on). Both write the end-to-end metrics. `perturb`
// corrupts the correctness reference, so the self-test can prove the
// gates reject a wrong answer.
Outcome run_training(const Workload& w, uint64_t seed, double seconds, bool perturb);
Outcome run_serving(const Workload& w, uint64_t seed, double seconds, bool perturb);

// Per-layer microcalls at the workload's own shapes (traced run only).
Outcome run_layers(const Workload& w, uint64_t seed);

}  // namespace perfbench
