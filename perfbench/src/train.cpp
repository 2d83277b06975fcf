// Training workloads: Trainer::step on the t x p rank grid, timed from
// outside, with the serial-loss gate run outside the timed window.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <optional>

#include "bench.h"
#include "comm/spmd.h"
#include "common/memtracker.h"
#include "memory/pool_allocator.h"
#include "trace.h"
#include "train/trainer.h"

namespace perfbench {

using namespace mls;

namespace {

constexpr int64_t kMinTimedSteps = 3;
constexpr int64_t kMaxTimedSteps = 400;
// Steps compared with the serial run: the cold step and the first
// kGateSteps - 1 timed steps (at most kMinTimedSteps).
constexpr int64_t kGateSteps = 4;
static_assert(kGateSteps - 1 <= kMinTimedSteps);

uint32_t bits(float f) {
  uint32_t u = 0;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

train::TrainerOptions trainer_options() {
  train::TrainerOptions opts;
  opts.use_adam = true;
  opts.pipeline.schedule = pipeline::Schedule::k1F1B;
  return opts;
}

// Losses of a plain single-rank run (t = p = 1) of the same model,
// optimizer and data, keeping every activation (no recompute): the
// reference the parallel, recomputing run must match.
std::vector<float> serial_losses(const ModelConfig& cfg,
                                 const std::vector<std::vector<data::Batch>>& steps) {
  ModelConfig serial = cfg;
  serial.t = 1;
  serial.p = 1;
  serial.recompute = core::Recompute::kNone;
  std::vector<float> losses;
  spmd::run(1, [&](comm::Comm& c) {
    train::Trainer trainer(serial, c, trainer_options());
    for (const auto& batch : steps) losses.push_back(trainer.step(batch).loss);
  });
  return losses;
}

}  // namespace

Outcome run_training(const Workload& w, uint64_t seed, double seconds, bool perturb) {
  const ModelConfig& cfg = w.cfg;
  const int world = w.world();
  Outcome out;

  // One global batch per step, drawn from the seed: step 0 is the cold
  // step of every set-up, steps 1.. feed the timed window.
  data::ZipfDataset ds(cfg.v, 1.1, seed);
  std::vector<std::vector<data::Batch>> steps;
  for (int64_t i = 0; i <= kMaxTimedSteps; ++i)
    steps.push_back(data::make_microbatches(ds, cfg));

  std::vector<double> setup_s, step_s;
  std::vector<float> cold_losses, timed_losses;
  std::vector<int64_t> peak_logical(static_cast<size_t>(world), 0);
  std::vector<int64_t> peak_physical(static_cast<size_t>(world), 0);
  double window_s = 0;

  // kSetups set-ups are timed; the last kColdSteps of them also run the
  // cold step (for the gate below), and the last one then runs the timed
  // window.
  const double t_setups = now_s();
  double t_window = t_setups;
  double cpu_window = 0;
  for (int k = 0; k < kSetups; ++k) {
    const bool cold_step = k >= kSetups - kColdSteps;
    const bool last = k == kSetups - 1;
    StepClock clock(world);
    float cold_loss = 0;
    const double t_begin = now_s();
    double t_ready = 0;
    try {
      spmd::run(world, [&](comm::Comm& c) {
        try {
          trace::set_track(c.rank());
          MemoryTracker::instance().reset();
          std::optional<train::Trainer> trainer;
          {
            trace::Span span("setup.trainer");
            trainer.emplace(cfg, c, trainer_options());
          }
          const double ready = clock.sync();
          if (c.rank() == 0) t_ready = ready;
          if (!cold_step) return;
          float loss = 0;
          {
            trace::Span span("train.cold_step", 0);
            loss = trainer->step(steps[0]).loss;
          }
          if (c.rank() == 0) cold_loss = loss;
          if (last) {
            const double start = clock.sync();
            if (c.rank() == 0) {
              t_window = start;
              cpu_window = cpu_s();
            }
            std::vector<double> marks{start};
            std::vector<float> losses;
            for (int64_t i = 0;; ++i) {
              if (i > 0) marks.push_back(clock.sync());
              if (!in_window(i, marks.back(), start, seconds, kMinTimedSteps,
                             kMaxTimedSteps))
                break;
              trace::Span span("train.step", i + 1);
              losses.push_back(trainer->step(steps[static_cast<size_t>(i + 1)]).loss);
            }
            const auto r = static_cast<size_t>(c.rank());
            peak_logical[r] = MemoryTracker::instance().peak_bytes();
            peak_physical[r] = MemoryTracker::instance().allocator_stats().physical_peak;
            if (c.rank() == 0) {
              timed_losses = losses;
              for (size_t i = 1; i < marks.size(); ++i)
                step_s.push_back(marks[i] - marks[i - 1]);
              window_s = marks.back() - start;
              cpu_window = cpu_s() - cpu_window;
            }
          }
        } catch (...) {
          clock.drop();
          throw;
        }
      });
    } catch (const std::exception& e) {
      ++out.attempted;
      ++out.failed;
      out.fail_gate(std::string("training step threw: ") + e.what());
      break;
    }
    trace::add("setup", trace::kMainTrack, k, t_begin, t_ready);
    setup_s.push_back(t_ready - t_begin);
    if (cold_step) cold_losses.push_back(cold_loss);
  }
  out.attempted += static_cast<int64_t>(cold_losses.size() + timed_losses.size());

  // Correctness gates, outside the timed window. Every cold set-up runs its
  // cold step on the same grid, weights and data, so those losses must
  // be bit-identical. Against the serial run they can differ by float
  // reassociation (sharded GEMM contractions and vocabulary-parallel
  // loss sums, then sharded gradient reductions), so the cold step and
  // the first timed steps must match within the tolerance of the repo's
  // serial-equivalence tests, kLossTol * (1 + step index)
  // (tests/test_pipeline.cpp). Steps past the first compare losses after
  // Adam updates, so a gradient missing a shard's or a microbatch's
  // contribution shows.
  constexpr float kLossTol = 3e-3f;
  const double t_gate = now_s();
  for (float l : cold_losses) {
    if (bits(l) != bits(cold_losses[0]))
      out.fail_gate("cold-step losses differ between set-ups: " + std::to_string(l) +
                    " vs " + std::to_string(cold_losses[0]));
  }
  if (out.correct && static_cast<int64_t>(timed_losses.size()) >= kGateSteps - 1) {
    std::vector<float> got{cold_losses[0]};
    got.insert(got.end(), timed_losses.begin(), timed_losses.begin() + (kGateSteps - 1));
    std::vector<float> ref = serial_losses(
        cfg, std::vector<std::vector<data::Batch>>(steps.begin(), steps.begin() + kGateSteps));
    if (perturb) ref[1] += 4 * kLossTol;
    for (size_t i = 0; i < got.size(); ++i) {
      const float tol = kLossTol * static_cast<float>(1 + i);
      if (!(std::fabs(got[i] - ref[i]) <= tol))
        out.fail_gate("step-" + std::to_string(i) + " loss " + std::to_string(got[i]) +
                      " not within " + std::to_string(tol) + " of serial " +
                      std::to_string(ref[i]));
    }
  }
  std::fprintf(stderr,
               "phases: set-ups %.1f s, timed window %.1f s (%zu steps, process CPU %.1f s), "
               "gate %.1f s\n",
               t_window - t_setups, window_s, step_s.size(), cpu_window, now_s() - t_gate);
  std::fprintf(stderr, "step ms p10 %.0f p25 %.0f p50 %.0f p75 %.0f p90 %.0f\n",
               1e3 * percentile(step_s, 0.1), 1e3 * percentile(step_s, 0.25),
               1e3 * percentile(step_s, 0.5), 1e3 * percentile(step_s, 0.75),
               1e3 * percentile(step_s, 0.9));

  const double tokens = static_cast<double>(step_s.size()) *
                        static_cast<double>(w.tokens_per_step());
  Metrics& m = out.metrics;
  m.add("tok_s", window_s > 0 ? tokens / window_s : 0, "tok/s");
  m.add("latency_ms_p50", 1e3 * percentile(step_s, 0.5), "ms");
  m.add("peak_logical_bytes",
        static_cast<double>(*std::max_element(peak_logical.begin(), peak_logical.end())),
        "B");
  m.add("physical_peak_bytes",
        static_cast<double>(*std::max_element(peak_physical.begin(), peak_physical.end())),
        "B");
  m.add("setup_s", median(setup_s), "s");
  return out;
}

}  // namespace perfbench
