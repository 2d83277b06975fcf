// The repo benchmark: one program for every workload.
//
//   perfbench --workload <train-wide|serve-decode>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--perturb]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// measures them twice over half the window each, untraced then traced
// (their ratio is the tracing overhead), times every layer's public
// calls at the workload's shapes, writes the spans as Chrome-trace JSON to
// .bench_build/traces/<workload>-seed<n>.json and prints the per-layer
// metrics. --tiny shrinks every shape (self-test);
// --perturb corrupts the correctness reference, so the run must report
// correct = false. The resolved configuration is printed on stdout
// before the result, which is always the last stdout line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Any MLS_* environment variable makes the run refuse to start: the
// library reads them as tuning knobs, so a stray one would measure a
// different program.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "bench.h"
#include "comm/spmd.h"
#include "core/env.h"
#include "core/parallel_plan.h"
#include "tensor/kernels.h"
#include "trace.h"

extern char** environ;

namespace perfbench {

using namespace mls;

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Workload make_workload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  ModelConfig& c = w.cfg;
  c.t = 2;
  c.d = 1;
  if (name == "train-wide") {
    // TP+SP with selective recompute (the paper's "present work") on a
    // GEMM-bound, all-gather/reduce-scatter-heavy shape.
    c.p = 2;
    c.h = tiny ? 32 : 256;
    c.a = tiny ? 4 : 8;
    c.s = tiny ? 16 : 128;
    c.L = tiny ? 4 : 8;
    c.b = tiny ? 1 : 2;
    c.global_batch = c.b * (tiny ? 4 : 8);
    c.v = tiny ? 64 : 512;
    c.dropout_p = 0.1f;
    c.set_plan(core::PlanKind::kTensorSequence);
    c.recompute = core::Recompute::kSelective;
  } else if (name == "serve-decode") {
    // Continuous batching over the paged KV cache, closed loop.
    w.serving = true;
    // One kernel thread per rank leaves two of four cores free: on a
    // shared host a short decode step otherwise waits whenever another
    // tenant takes one of the cores its ranks and workers all use.
    w.kernel_threads = 1;
    c.p = 1;
    c.h = tiny ? 32 : 256;
    c.a = tiny ? 4 : 8;
    c.s = tiny ? 32 : 128;
    c.L = tiny ? 2 : 4;
    c.v = tiny ? 64 : 256;
    c.b = 1;
    c.global_batch = 1;
    c.dropout_p = 0.0f;
    c.set_plan(core::PlanKind::kTensorParallel);
    w.scfg.block_tokens = tiny ? 4 : 16;
    w.scfg.kv_budget_tokens = tiny ? 128 : 2048;
    w.scfg.max_batch = tiny ? 8 : 64;
    w.tcfg.clients = tiny ? 8 : 64;
    w.tcfg.total_requests = tiny ? 24 : 1024;
    w.tcfg.zipf_exponent = 1.1;
    w.tcfg.temperature = 0.7f;
  } else {
    throw std::runtime_error("unknown workload: " + name);
  }
  c.name = name;
  c.validate();
  return w;
}

namespace {

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::vector<std::string> mls_environment() {
  std::vector<std::string> out;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "MLS_", 4) == 0) out.emplace_back(*e);
  return out;
}

// The resolved configuration stamped into every result and trace.
std::string config_json(const Workload& w, uint64_t seed, double seconds, bool traced,
                        bool tiny) {
  int threads = 0;
  spmd::run(w.world(), [&](comm::Comm& c) {
    if (c.rank() == 0) threads = kernels::threads();
  });
  const ModelConfig& c = w.cfg;
  std::string env = "{";
  for (const std::string& kv : mls_environment()) {
    const size_t eq = kv.find('=');
    env += (env.size() > 1 ? "," : "") + json_string(kv.substr(0, eq)) + ":" +
           json_string(kv.substr(eq + 1));
  }
  env += "}";
  std::string s = "{\"workload\":" + json_string(w.name) +
                  ",\"seed\":" + std::to_string(seed) +
                  ",\"seconds\":" + json_number(seconds) +
                  ",\"traced\":" + (traced ? "true" : "false") +
                  ",\"tiny\":" + (tiny ? "true" : "false") +
                  ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
                  ",\"kernel_threads\":" + std::to_string(threads) +
                  ",\"world\":" + std::to_string(w.world()) +
                  ",\"mls_env\":" + env + ",\"model\":{\"h\":" + std::to_string(c.h) +
                  ",\"a\":" + std::to_string(c.a) + ",\"s\":" + std::to_string(c.s) +
                  ",\"L\":" + std::to_string(c.L) + ",\"b\":" + std::to_string(c.b) +
                  ",\"microbatches\":" + std::to_string(c.microbatches()) +
                  ",\"v\":" + std::to_string(c.v) + ",\"t\":" + std::to_string(c.t) +
                  ",\"p\":" + std::to_string(c.p) + ",\"d\":" + std::to_string(c.d) +
                  ",\"plan\":" + json_string(core::plan_kind_name(c.parallel_plan)) +
                  ",\"recompute\":" + json_string(core::recompute_name(c.recompute)) +
                  ",\"dropout\":" + json_number(c.dropout_p) + "}";
  if (w.serving) {
    s += ",\"serve\":{\"block_tokens\":" + std::to_string(w.scfg.block_tokens) +
         ",\"kv_budget_tokens\":" + std::to_string(w.scfg.kv_budget_tokens) +
         ",\"max_batch\":" + std::to_string(w.scfg.max_batch) +
         ",\"clients\":" + std::to_string(w.tcfg.clients) +
         ",\"requests\":" + std::to_string(w.tcfg.total_requests) +
         ",\"zipf\":" + json_number(w.tcfg.zipf_exponent) +
         ",\"temperature\":" + json_number(w.tcfg.temperature) + "}";
  }
  return s + "}";
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  for (size_t i = 0; i < m.entries.size(); ++i) {
    const auto& e = m.entries[i];
    out += (i ? ", " : "") + json_string(e.name) + ": {\"value\": " + json_number(e.value) +
           ", \"unit\": " + json_string(e.unit) + "}";
  }
  return out + "}";
}

Outcome run_e2e(const Workload& w, uint64_t seed, double seconds, bool perturb) {
  return w.serving ? run_serving(w, seed, seconds, perturb)
                   : run_training(w, seed, seconds, perturb);
}

void print_self_times(const std::vector<trace::Record>& recs) {
  const std::vector<double> self = trace::self_times(recs);
  std::map<std::string, std::pair<double, int>> by_name;
  for (size_t i = 0; i < recs.size(); ++i) {
    auto& e = by_name[recs[i].name];
    e.first += self[i];
    ++e.second;
  }
  std::vector<std::pair<double, std::string>> order;
  for (const auto& [name, e] : by_name) order.emplace_back(e.first, name);
  std::sort(order.rbegin(), order.rend());
  std::fprintf(stderr, "self time by span (summed over ranks):\n");
  for (const auto& [secs, name] : order) {
    std::fprintf(stderr, "  %-36s %10.3f s  %6d spans\n", name.c_str(), secs,
                 by_name[name].second);
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny] [--perturb]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false, tiny = false, perturb = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) workload = argv[++i];
    else if (a == "--seed" && has_value) seed = std::stoull(argv[++i]);
    else if (a == "--seconds" && has_value) seconds = std::stod(argv[++i]);
    else if (a == "--trace" && has_value) traced = std::string(argv[++i]) == "1";
    else if (a == "--tiny") tiny = true;
    else if (a == "--perturb") perturb = true;
    else return usage();
  }
  if (workload.empty()) return usage();
  const std::vector<std::string> stray = mls_environment();
  if (!stray.empty()) {
    for (const std::string& kv : stray)
      std::fprintf(stderr, "refusing to run with %s set\n", kv.c_str());
    return 2;
  }
  const Workload w = make_workload(workload, tiny);
  // The workload's own thread count goes through the library's
  // programmatic override, never the environment (refused above); the
  // resolved count is stamped into the config line.
  if (w.kernel_threads > 0)
    core::Env::set("MLS_KERNEL_THREADS", std::to_string(w.kernel_threads));
  const std::string config = config_json(w, seed, seconds, traced, tiny);
  std::printf("config %s\n", config.c_str());
  std::fflush(stdout);

  Outcome result;
  if (!traced) {
    result = run_e2e(w, seed, seconds, perturb);
  } else {
    // Each end-to-end pass gets half the window, so the traced run
    // stays within about twice an untraced one.
    const Outcome base = run_e2e(w, seed, seconds / 2, perturb);
    trace::reset();
    trace::enable(true);
    const Outcome with = run_e2e(w, seed, seconds / 2, perturb);
    const Outcome layers = run_layers(w, seed);
    trace::enable(false);
    result = layers;
    for (const auto& e : with.detail.entries) result.metrics.add(e.name, e.value, e.unit);
    // Traced over untraced, for each timed end-to-end metric (the byte
    // peaks are exact counts that spans cannot move).
    for (const auto& e : base.metrics.entries) {
      const Metrics::Entry* t = with.metrics.find(e.name);
      if (e.unit == "B" || t == nullptr) continue;
      result.metrics.add("trace.overhead_" + e.name, e.value != 0 ? t->value / e.value : 0.0,
                         "ratio");
    }
    for (const Outcome* o : {&base, &with}) {
      result.correct = result.correct && o->correct;
      result.attempted += o->attempted;
      result.failed += o->failed;
      result.notes.insert(result.notes.end(), o->notes.begin(), o->notes.end());
    }
    const std::vector<trace::Record> recs = trace::collect();
    const std::string trace_out =
        ".bench_build/traces/" + w.name + "-seed" + std::to_string(seed) + ".json";
    std::filesystem::create_directories(std::filesystem::path(trace_out).parent_path());
    if (!trace::write_chrome(trace_out, recs, config)) {
      result.fail_gate("could not write " + trace_out);
    } else {
      std::fprintf(stderr, "wrote %zu spans to %s\n", recs.size(), trace_out.c_str());
    }
    print_self_times(recs);
  }

  for (const auto& e : result.metrics.entries)
    if (!std::isfinite(e.value)) result.fail_gate("non-finite metric " + e.name);
  for (const std::string& n : result.notes) std::fprintf(stderr, "GATE FAILED: %s\n", n.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(1, result.attempted)),
              static_cast<long long>(result.failed), metrics_json(result.metrics).c_str());
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::main(argc, argv); }
