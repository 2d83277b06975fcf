// Serving workload: the continuous-batching scheduler under closed-loop
// traffic on a t-rank tensor-parallel world. An untimed warm-up pass
// serves the first request stream; each pass of the timed window then
// serves its own seeded stream, starting with that same first one, which
// must give the same counts and tokens as the warm-up, and a seeded
// sample of its completions must equal model::generate().
#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>
#include <optional>

#include "bench.h"
#include "comm/spmd.h"
#include "common/memtracker.h"
#include "model/generate.h"
#include "serve/scheduler.h"
#include "trace.h"

namespace perfbench {

using namespace mls;

namespace {

constexpr int64_t kMinReps = 2;
constexpr int64_t kMaxReps = 64;
constexpr int kGenerateSample = 4;
// tok_s is the median throughput over chunks of this many consecutive
// scheduler steps (about a second each at full size), so a burst of
// load from elsewhere on the host moves a few chunks, not the figure.
constexpr size_t kChunkSteps = 64;

// Generated tokens / wall seconds of each kChunkSteps-step chunk of a
// pass; a shorter tail joins the chunk before it.
std::vector<double> chunk_rates(const ServeRun& r) {
  std::vector<double> rates;
  const size_t n = r.step_tokens.size();
  size_t begin = 0;
  while (begin < n) {
    size_t end = std::min(n, begin + kChunkSteps);
    if (n - end < kChunkSteps) end = n;
    int64_t tokens = 0;
    for (size_t i = begin; i < end; ++i) tokens += r.step_tokens[i];
    const double from = begin == 0 ? r.start_s : r.step_end_s[begin - 1];
    const double secs = r.step_end_s[end - 1] - from;
    if (secs > 0) rates.push_back(static_cast<double>(tokens) / secs);
    begin = end;
  }
  return rates;
}

// Completions checked against model::generate(): a seeded sample of
// the ones that ran to completion. Identical on every rank, since every
// rank retires the same completions in the same order.
std::vector<size_t> generate_sample(const std::vector<serve::Completion>& cs,
                                    uint64_t seed) {
  std::vector<size_t> done;
  for (size_t i = 0; i < cs.size(); ++i)
    if (cs[i].reason == serve::FinishReason::kCompleted) done.push_back(i);
  Rng rng(seed ^ 0x9e4e5a3c1ull);
  std::vector<size_t> pick;
  for (int k = 0; k < kGenerateSample && !done.empty(); ++k) {
    const size_t j = rng.next_below(done.size());
    pick.push_back(done[j]);
    done.erase(done.begin() + static_cast<std::ptrdiff_t>(j));
  }
  return pick;
}

}  // namespace

ServeRun serve_closed_loop(model::GPTModel& model, const serve::ServeConfig& scfg,
                           const serve::TrafficConfig& tcfg) {
  ServeRun run;
  run.alloc_before = MemoryTracker::instance().allocator_stats();
  serve::ContinuousBatchScheduler sched(model, scfg);
  serve::ClosedLoopTraffic traffic(tcfg, model.config().v, model.config().s);
  std::map<int64_t, double> submitted;  // request id -> submit time
  const double t0 = now_s();
  run.start_s = t0;
  while (!traffic.done()) {
    for (serve::Request& r : traffic.arrivals(sched.current_step())) {
      submitted[r.id] = now_s();
      sched.submit(std::move(r));
    }
    const int64_t tokens_before = sched.stats().tokens_generated;
    const double ts = now_s();
    std::vector<serve::Completion> done;
    {
      trace::Span span("serve.step", sched.current_step());
      done = sched.step();
    }
    const double te = now_s();
    run.step_s.push_back(te - ts);
    run.step_end_s.push_back(te);
    run.step_tokens.push_back(sched.stats().tokens_generated - tokens_before);
    for (serve::Completion& c : done) {
      if (model.env().tp_rank() == 0)
        trace::add("serve.request", trace::kRequestTrack, c.request.id,
                   submitted[c.request.id], te);
      traffic.on_complete(c, sched.current_step());
      run.completions.push_back(std::move(c));
    }
  }
  run.wall_s = now_s() - t0;
  run.stats = sched.stats();
  run.kv = sched.kv_stats();
  run.alloc_after = MemoryTracker::instance().allocator_stats();
  return run;
}

void add_serve_detail(Metrics& m, const ServeRun& r) {
  std::vector<double> queue, ttft, itl;
  for (const auto& c : r.completions) {
    queue.push_back(c.queue_s);
    if (c.generated() > 0) ttft.push_back(c.first_token_s);
    itl.insert(itl.end(), c.token_intervals_s.begin(), c.token_intervals_s.end());
  }
  const double steps = static_cast<double>(std::max<int64_t>(1, r.stats.steps));
  m.add("serve.step_ms_p50", 1e3 * median(r.step_s), "ms");
  m.add("serve.queue_ms_p50", 1e3 * median(queue), "ms");
  m.add("serve.batch_rows_mean", r.stats.batch_rows_sum / steps, "rows");
  m.add("serve.steps", static_cast<double>(r.stats.steps), "count");
  m.add("serve.preemptions", static_cast<double>(r.stats.preemptions), "count");
  m.add("serve.kv_waste_mean", r.stats.kv_waste_sum / steps, "frac");
  m.add("serve.kv_reserved_peak_bytes", static_cast<double>(r.kv.reserved_peak), "B");
  m.add("serve.ttft_ms_p50", 1e3 * percentile(ttft, 0.5), "ms");
  m.add("serve.ttft_ms_p90", 1e3 * percentile(ttft, 0.9), "ms");
  m.add("serve.ttft_ms_p99", 1e3 * percentile(ttft, 0.99), "ms");
  m.add("serve.itl_ms_p90", 1e3 * percentile(itl, 0.9), "ms");
  m.add("serve.itl_ms_p99", 1e3 * percentile(itl, 0.99), "ms");
}

Outcome run_serving(const Workload& w, uint64_t seed, double seconds, bool perturb) {
  const ModelConfig& cfg = w.cfg;
  const int world = w.world();
  // Pass i of the timed window serves its own request stream, so the
  // latency percentiles pool over every pass's distinct requests.
  const auto stream = [&](int64_t i) {
    serve::TrafficConfig tcfg = w.tcfg;
    tcfg.seed = seed + static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ull;
    return tcfg;
  };
  Outcome out;

  std::vector<double> setup_s;
  std::vector<ServeRun> reps;  // rank 0's passes
  std::vector<int64_t> peak_kv(static_cast<size_t>(world), 0);
  std::vector<int64_t> peak_physical(static_cast<size_t>(world), 0);
  std::vector<std::vector<int64_t>> got, want;  // generate() gate
  std::optional<ServeRun> warmup;                // stream 0, untimed
  const double t_setups = now_s();
  double t_window = t_setups, t_gate = t_setups;
  double cpu_window = 0, cpu_gate = 0;

  for (int k = 0; k < kSetups; ++k) {
    const bool last = k == kSetups - 1;
    StepClock clock(world);
    const double t_begin = now_s();
    double t_ready = 0;
    try {
      spmd::run(world, [&](comm::Comm& c) {
        try {
          trace::set_track(c.rank());
          MemoryTracker::instance().reset();
          std::optional<model::GPTModel> model;
          {
            trace::Span span("setup.model");
            model.emplace(cfg, c);
          }
          {
            // Scheduler construction is part of set-up; the timed
            // passes below each build their own, as a fresh server would.
            trace::Span span("setup.scheduler");
            serve::ContinuousBatchScheduler probe(*model, w.scfg);
          }
          const double ready = clock.sync();
          if (c.rank() == 0) t_ready = ready;
          if (!last) return;

          // Warm-up outside the window: the timed pass 0 serves the same
          // stream again, which is the replay gate.
          std::optional<ServeRun> warm;
          {
            trace::Span span("warmup");
            warm = serve_closed_loop(*model, w.scfg, stream(0));
          }
          std::vector<ServeRun> mine;
          const double start = clock.sync();
          if (c.rank() == 0) {
            t_window = start;
            cpu_window = cpu_s();
          }
          double t = start;
          for (int64_t i = 0; in_window(i, t, start, seconds, kMinReps, kMaxReps); ++i) {
            trace::Span span("serve.pass", i);
            mine.push_back(serve_closed_loop(*model, w.scfg, stream(i)));
            t = clock.sync();
          }
          const auto r = static_cast<size_t>(c.rank());
          peak_kv[r] = MemoryTracker::instance().kv_peak_bytes();
          peak_physical[r] = MemoryTracker::instance().allocator_stats().physical_peak;

          // Gate, outside the timed window: generate() on a sample of
          // pass 0's completions.
          if (c.rank() == 0) {
            t_gate = now_s();
            cpu_gate = cpu_s();
          }
          model->set_inference(true);
          std::vector<std::vector<int64_t>> g, wnt;
          for (size_t i : generate_sample(mine[0].completions, seed)) {
            const serve::Completion& comp = mine[0].completions[i];
            model::GenerateOptions go;
            go.max_new_tokens = comp.request.max_new_tokens;
            go.temperature = comp.request.temperature;
            go.seed = comp.request.seed;
            go.stop_tokens = comp.request.stop_tokens;
            trace::Span span("gate.generate", comp.request.id);
            wnt.push_back(model::generate(*model, comp.request.prompt, go));
            g.push_back(comp.tokens);
          }
          model->set_inference(false);
          if (c.rank() == 0) {
            reps = std::move(mine);
            warmup = std::move(warm);
            got = std::move(g);
            want = std::move(wnt);
          }
        } catch (...) {
          clock.drop();
          throw;
        }
      });
    } catch (const std::exception& e) {
      ++out.attempted;
      ++out.failed;
      out.fail_gate(std::string("serving run threw: ") + e.what());
      break;
    }
    trace::add("setup", trace::kMainTrack, k, t_begin, t_ready);
    setup_s.push_back(t_ready - t_begin);
  }

  std::fprintf(stderr,
               "phases: set-ups and warm-up %.1f s, timed window %.1f s (%zu passes, "
               "process CPU %.1f s), gate %.1f s\n",
               t_window - t_setups, t_gate - t_window, reps.size(), cpu_gate - cpu_window,
               now_s() - t_gate);

  // Gates: pass 0 serves the warm-up's stream again and must give the
  // same counts and tokens; sampled tokens equal model::generate() (the
  // perturbation corrupts that reference).
  if (!reps.empty() && warmup) {
    const ServeRun& a = reps[0];
    const ServeRun& b = *warmup;
    bool same = a.stats.steps == b.stats.steps && a.stats.preemptions == b.stats.preemptions &&
                a.stats.tokens_generated == b.stats.tokens_generated &&
                a.completions.size() == b.completions.size();
    for (size_t i = 0; same && i < a.completions.size(); ++i)
      same = a.completions[i].request.id == b.completions[i].request.id &&
             a.completions[i].tokens == b.completions[i].tokens;
    if (!same) out.fail_gate("serving the warm-up's request stream again gave other counts or tokens");
  }
  if (perturb && !want.empty())
    want[0].back() = (want[0].back() + 1) % cfg.v;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i])
      out.fail_gate("completion " + std::to_string(i) +
                    " differs from model::generate()");
  }
  if (out.correct && got.empty()) out.fail_gate("no completion to check against generate()");
  std::vector<double> itl, rates;
  double generated = 0, wall = 0, steps = 0;
  for (const ServeRun& r : reps) {
    out.attempted += static_cast<int64_t>(r.completions.size());
    out.failed += r.stats.rejected + r.stats.timed_out + r.stats.shed;
    generated += static_cast<double>(r.stats.tokens_generated);
    steps += static_cast<double>(r.stats.steps);
    wall += r.wall_s;
    for (const auto& c : r.completions)
      itl.insert(itl.end(), c.token_intervals_s.begin(), c.token_intervals_s.end());
    const std::vector<double> rr = chunk_rates(r);
    rates.insert(rates.end(), rr.begin(), rr.end());
  }
  std::fprintf(stderr,
               "work: %.0f tokens in %.0f steps (%.2f per step), %.3f ms per step, "
               "%zu chunks of %zu steps\n",
               generated, steps, generated / std::max(1.0, steps),
               1e3 * wall / std::max(1.0, steps), rates.size(), kChunkSteps);
  std::fprintf(stderr, "chunk tok/s p10 %.0f p25 %.0f p50 %.0f p75 %.0f p90 %.0f\n",
               percentile(rates, 0.1), percentile(rates, 0.25), percentile(rates, 0.5),
               percentile(rates, 0.75), percentile(rates, 0.9));

  Metrics& m = out.metrics;
  m.add("tok_s", median(rates), "tok/s");
  m.add("latency_ms_p50", 1e3 * percentile(itl, 0.5), "ms");
  m.add("peak_logical_bytes",
        static_cast<double>(*std::max_element(peak_kv.begin(), peak_kv.end())), "B");
  m.add("physical_peak_bytes",
        static_cast<double>(*std::max_element(peak_physical.begin(), peak_physical.end())),
        "B");
  m.add("setup_s", median(setup_s), "s");
  if (!reps.empty()) {
    add_serve_detail(out.detail, reps[0]);
    add_alloc_detail(out.detail, reps[0].alloc_before, reps[0].alloc_after,
                     reps[0].stats.steps);
  }
  return out;
}

}  // namespace perfbench
