// Per-layer measurements for the traced run: each library layer's
// public calls, timed from outside at the workload's own shapes (a
// serving workload's training-side probes use its model with b = 1 and
// no pipeline; a training workload's serving-side probes decode its
// model on its t ranks). Values are rank 0's; every rank of the
// workload's world runs the same calls at the same time, so kernels see
// the workload's thread count and contention.
#include <algorithm>
#include <cmath>
#include <exception>
#include <map>

#include "autograd/engine.h"
#include "bench.h"
#include "comm/spmd.h"
#include "common/memtracker.h"
#include "memory/activation_model.h"
#include "model/gpt.h"
#include "optim/optim.h"
#include "perf/pipeline_sim.h"
#include "pipeline/schedule.h"
#include "serve/decode.h"
#include "tensor/ops.h"
#include "trace.h"
#include "train/trainer.h"

namespace perfbench {

using namespace mls;

namespace {

// Runs `f` at least `min_reps` times and until `min_s` seconds have
// passed, each call inside a span; returns the median call time (s).
template <class F>
double time_call(const char* name, int min_reps, double min_s, F&& f) {
  std::vector<double> d;
  double total = 0;
  for (int i = 0; i < 1000 && (i < min_reps || total < min_s); ++i) {
    const double t0 = now_s();
    {
      trace::Span span(name, i);
      f();
    }
    d.push_back(now_s() - t0);
    total += d.back();
  }
  return median(d);
}

// Local ops: at least 3 calls, at least 50 ms.
template <class F>
double time_local(const char* name, F&& f) {
  return time_call(name, 3, 0.05, std::forward<F>(f));
}

// Collectives: the same fixed count on every rank, after two warm-ups.
template <class F>
double time_collective(const char* name, F&& f) {
  f();
  f();
  return time_call(name, 10, 0.0, std::forward<F>(f));
}

// The model a serving workload trains on for the training-side probes,
// or the training workload itself.
ModelConfig training_shape(const Workload& w) {
  if (!w.serving) return w.cfg;
  ModelConfig cfg = w.cfg;
  cfg.p = 1;
  cfg.b = 1;
  cfg.global_batch = 2;
  return cfg;
}

struct ServeShape {
  ModelConfig cfg;
  serve::ServeConfig scfg;
  serve::TrafficConfig tcfg;
};

// The serving set-up for a workload: its own for a serving workload; for
// a training workload, its model decoded on its t ranks, batching as
// many sequences as one training step holds, under short closed-loop
// traffic whose KV budget binds.
ServeShape serving_shape(const Workload& w, uint64_t seed) {
  ServeShape s{w.cfg, w.scfg, w.tcfg};
  s.tcfg.seed = seed;
  if (w.serving) return s;
  const int64_t seqs = w.cfg.global_batch;
  s.cfg.p = 1;
  s.cfg.b = 1;
  s.cfg.global_batch = 1;
  s.scfg.block_tokens = std::min<int64_t>(16, w.cfg.s / 8);
  s.scfg.max_batch = seqs;
  // A quarter of what the clients can hold at once, so the budget binds
  // and the scheduler preempts, but room for two sequences.
  s.scfg.kv_budget_tokens = std::max(seqs * w.cfg.s / 16, w.cfg.s / 2);
  s.tcfg.clients = seqs;
  s.tcfg.total_requests = 2 * seqs;
  s.tcfg.prompt_max = w.cfg.s / 8;
  s.tcfg.out_max = w.cfg.s / 8;
  s.tcfg.temperature = 0.7f;
  return s;
}

Tensor randn(const Shape& shape, Rng& rng) { return Tensor::randn(shape, rng); }

// tensor.*, comm.* and memory.alloc_free_ns at the workload's shapes.
void probe_ops(const Workload& w, uint64_t seed, Metrics& m) {
  const ModelConfig cfg = training_shape(w);
  const int64_t t = cfg.t, h = cfg.h, s = cfg.s, b = cfg.b;
  const int64_t s_local = cfg.sequence_parallel ? s / t : s;
  const int64_t rows = s * b, rows_local = s_local * b;
  const int64_t heads = cfg.a / t, d = cfg.h / cfg.a, bh = b * heads;
  const int64_t ffn = 4 * h / t;
  const int64_t dec_rows = serving_shape(w, seed).scfg.max_batch;
  const float p = cfg.dropout_p;
  const float alpha = 1.0f / std::sqrt(static_cast<float>(d));
  Metrics local;

  spmd::run(w.world(), [&](comm::Comm& world) {
    trace::set_track(world.rank());
    comm::Comm tp = world.split(world.rank() / cfg.t);
    Rng rng(seed + static_cast<uint64_t>(world.rank()));
    std::map<std::string, double> r;

    // GEMMs: [m, k] @ [k, n] at the four per-layer weight shapes.
    const int64_t shapes[4][2] = {{h, 3 * h / t}, {h / t, h}, {h, ffn}, {ffn, h}};
    for (int dec = 0; dec < 2; ++dec) {
      const int64_t mrows = dec ? dec_rows : rows;
      double flops = 0, secs = 0;
      for (const auto& kn : shapes) {
        const Tensor a = randn(Shape{{mrows, kn[0]}}, rng);
        const Tensor wgt = randn(Shape{{kn[0], kn[1]}}, rng);
        secs += time_local(dec ? "tensor.gemm_decode" : "tensor.gemm",
                           [&] { ops::matmul(a, wgt); });
        flops += 2.0 * static_cast<double>(mrows * kn[0] * kn[1]);
      }
      r[dec ? "gemm_decode" : "gemm"] = flops / secs / 1e9;
    }

    // Attention core on [b*heads, s, d].
    const Tensor q = randn(Shape{{bh, s, d}}, rng), k = randn(Shape{{bh, s, d}}, rng),
                 v = randn(Shape{{bh, s, d}}, rng);
    const Tensor scores = ops::bmm(q, k, false, true);
    const double t_qk = time_local("tensor.attn_qk", [&] { ops::bmm(q, k, false, true); });
    const Tensor probs = ops::scaled_softmax(scores, alpha, true);
    const double t_pv = time_local("tensor.attn_pv", [&] { ops::bmm(probs, v); });
    r["attn_bmm"] = 4.0 * static_cast<double>(bh * s * s * d) / (t_qk + t_pv) / 1e9;
    const Tensor dy = randn(probs.shape(), rng);
    r["softmax"] = time_local("tensor.softmax", [&] { ops::scaled_softmax(scores, alpha, true); });
    r["softmax_grad"] = time_local("tensor.softmax_grad",
                                   [&] { ops::scaled_softmax_grad(probs, dy, alpha); });
    const ops::IndexMap map = ops::IndexMap::identity(probs.shape());
    const ops::DropoutOut drop = ops::dropout_stateless(probs, p, seed, map);
    r["dropout"] = time_local("tensor.dropout",
                              [&] { ops::dropout_stateless(probs, p, seed, map); });
    r["dropout_grad"] = time_local("tensor.dropout_grad",
                                   [&] { ops::dropout_grad(dy, drop.mask, p); });

    // MLP activation and layer-norm.
    const Tensor x4 = randn(Shape{{rows, ffn}}, rng), bias = randn(Shape{{ffn}}, rng),
                 dy4 = randn(Shape{{rows, ffn}}, rng);
    r["bias_gelu"] = time_local("tensor.bias_gelu", [&] { ops::bias_gelu(x4, bias); });
    r["bias_gelu_grad"] = time_local("tensor.bias_gelu_grad",
                                     [&] { ops::bias_gelu_grad(x4, bias, dy4); });
    const Tensor xl = randn(Shape{{rows_local, h}}, rng), dyl = randn(Shape{{rows_local, h}}, rng);
    const Tensor gamma = Tensor::full(Shape{{h}}, 1.f), beta = Tensor::zeros(Shape{{h}});
    const ops::LayerNormOut ln = ops::layernorm(xl, gamma, beta);
    r["layernorm"] = time_local("tensor.layernorm", [&] { ops::layernorm(xl, gamma, beta); });
    r["layernorm_grad"] = time_local("tensor.layernorm_grad", [&] {
      ops::layernorm_grad(xl, gamma, ln.mean, ln.rstd, dyl);
    });

    // Collectives on the tensor-parallel group.
    const Tensor shard = randn(Shape{{s / t, b, h}}, rng);
    const Tensor full = randn(Shape{{s, b, h}}, rng);
    Tensor red = full.clone(), dec = randn(Shape{{dec_rows, h}}, rng);
    r["all_gather"] = time_collective("comm.all_gather", [&] { tp.all_gather(shard, 0); });
    r["reduce_scatter"] = time_collective("comm.reduce_scatter", [&] { tp.reduce_scatter(full, 0); });
    r["all_reduce"] = time_collective("comm.all_reduce", [&] { tp.all_reduce(red); });
    r["all_reduce_decode"] = time_collective("comm.all_reduce_decode", [&] { tp.all_reduce(dec); });

    // Allocator: alloc + free of the layer's tensor sizes, warm pool.
    memory::PoolAllocator pool(memory::PoolAllocator::Config{}, "probe");
    const std::vector<int64_t> sizes = {rows * h, rows * 3 * h / t, rows * ffn,
                                        bh * s * s, rows_local * h, dec_rows * h};
    std::vector<float*> ptrs(sizes.size());
    const auto churn = [&] {
      for (size_t i = 0; i < sizes.size(); ++i) ptrs[i] = pool.allocate(4 * sizes[i]);
      for (float* ptr : ptrs) pool.deallocate(ptr);
    };
    churn();
    r["alloc_free"] = time_local("memory.alloc_free", churn) /
                      static_cast<double>(sizes.size());
    if (world.rank() == 0) {
      for (const auto& [key, val] : r) local.add(key, val, "");
    }
  });

  const auto get = [&](const char* key) { return local.find(key)->value; };
  m.add("tensor.gemm_gflops", get("gemm"), "GFLOP/s");
  m.add("tensor.gemm_decode_gflops", get("gemm_decode"), "GFLOP/s");
  m.add("tensor.attn_bmm_gflops", get("attn_bmm"), "GFLOP/s");
  for (const char* op : {"softmax", "softmax_grad", "dropout", "dropout_grad", "bias_gelu",
                         "bias_gelu_grad", "layernorm", "layernorm_grad"})
    m.add(std::string("tensor.") + op + "_ms", 1e3 * get(op), "ms");
  m.add("comm.all_gather_us", 1e6 * get("all_gather"), "us");
  m.add("comm.reduce_scatter_us", 1e6 * get("reduce_scatter"), "us");
  m.add("comm.all_reduce_us", 1e6 * get("all_reduce"), "us");
  m.add("comm.all_reduce_decode_us", 1e6 * get("all_reduce_decode"), "us");
  m.add("memory.alloc_free_ns", 1e9 * get("alloc_free"), "ns");
}

// model.layer_fwd_ms, autograd.layer_bwd_ms, autograd.recompute_ratio,
// memory.layer_act_bytes (gated against the Table-2 formula on training
// workloads) and model.head_loss_ms.
void probe_layer(const Workload& w, uint64_t seed, Metrics& m, Outcome& out) {
  const ModelConfig cfg = training_shape(w);
  const int64_t s_local = cfg.sequence_parallel ? cfg.s / cfg.t : cfg.s;
  double fwd = 0, bwd = 0, bwd_none = 0, head = 0;
  int64_t act_bytes = -1;
  spmd::run(w.world(), [&](comm::Comm& world) {
    trace::set_track(world.rank());
    comm::Comm tp = world.split(world.rank() / cfg.t);
    auto& mt = MemoryTracker::instance();
    mt.reset();
    core::ParallelEnv env;
    env.tp = tp;
    env.sequence_parallel = cfg.sequence_parallel;
    env.sharded_input_save = cfg.sharded_input_save;
    env.recompute = cfg.recompute;
    env.seed = cfg.seed;
    env.parallel_plan = &cfg.resolved_plan();
    Rng master(cfg.seed);
    model::TransformerLayer layer(env, cfg, 0, master);
    Rng drng(seed + static_cast<uint64_t>(world.rank()));
    const ag::Var x(Tensor::randn(Shape{{s_local, cfg.b, cfg.h}}, drng), true);

    // Forward + backward at `e`'s rung; all ranks run the same count.
    int64_t bytes = -1;
    std::vector<double> f, g;
    const auto pass = [&](const core::ParallelEnv& e, const char* bwd_name) {
      f.clear();
      g.clear();
      for (int i = 0; i < 5; ++i) {
        const int64_t before = mt.current_major_bytes();
        double t0 = now_s();
        ag::Var y;
        {
          trace::Span span("model.layer_fwd", i);
          y = layer.forward(x, e);
        }
        f.push_back(now_s() - t0);
        bytes = mt.current_major_bytes() - before;
        const Tensor dy = Tensor::full(y.value().shape(), 1.f);
        t0 = now_s();
        {
          trace::Span span(bwd_name, i);
          ag::backward(y, dy);
        }
        g.push_back(now_s() - t0);
      }
    };
    pass(env, "autograd.layer_bwd");
    const double f_rung = median(f), g_rung = median(g);
    const int64_t bytes_rung = bytes;
    core::ParallelEnv none = env;
    none.recompute = core::Recompute::kNone;
    pass(none, "autograd.layer_bwd_no_recompute");
    const double g_none = median(g);

    // Loss head: final layer-norm, vocabulary-parallel logits, loss.
    ModelConfig hcfg = cfg;
    hcfg.p = 1;
    model::GPTModel headm(hcfg, tp, model::StageSpec{0, 0, false, true});
    std::vector<int64_t> targets(static_cast<size_t>(cfg.s * cfg.b));
    for (size_t i = 0; i < targets.size(); ++i)
      targets[i] = static_cast<int64_t>(drng.next_below(static_cast<uint64_t>(cfg.v)));
    std::vector<double> hl;
    for (int i = 0; i < 5; ++i) {
      const double t0 = now_s();
      ag::Var loss;
      {
        trace::Span span("model.head_loss", i);
        loss = headm.head_loss(x, targets);
      }
      hl.push_back(now_s() - t0);
      ag::backward(loss);
    }
    if (world.rank() == 0) {
      fwd = f_rung;
      bwd = g_rung;
      bwd_none = g_none;
      head = median(hl);
      act_bytes = bytes_rung;
    }
  });
  m.add("model.layer_fwd_ms", 1e3 * fwd, "ms");
  m.add("autograd.layer_bwd_ms", 1e3 * bwd, "ms");
  // Derived: backward at the workload's rung over backward with no
  // recompute, i.e. the share the rung's replay adds (1 at kNone).
  m.add("autograd.recompute_ratio", bwd / bwd_none, "ratio");
  m.add("model.head_loss_ms", 1e3 * head, "ms");
  m.add("memory.layer_act_bytes", static_cast<double>(act_bytes), "B");
  const double formula = memory::act_bytes_per_layer(cfg, memory::technique_of(cfg));
  if (!w.serving && act_bytes != static_cast<int64_t>(formula))
    out.fail_gate("memory.layer_act_bytes " + std::to_string(act_bytes) +
                  " != act_bytes_per_layer " + std::to_string(formula));
}

int64_t collectives(const comm::TrafficStats& s) {
  return s.all_reduce_count + s.all_gather_count + s.reduce_scatter_count +
         s.broadcast_count;
}

// train.cold_step_ms (first step after set-up), train.step_ms,
// pipeline.iteration_ms, optim.adam_ms, the per-step
// comm.* counts, and (training workloads) per-step allocator counts.
void probe_training(const Workload& w, uint64_t seed, Metrics& m) {
  const ModelConfig cfg = training_shape(w);
  data::ZipfDataset ds(cfg.v, 1.1, seed);
  std::vector<std::vector<data::Batch>> steps;
  for (int i = 0; i < 3; ++i) steps.push_back(data::make_microbatches(ds, cfg));
  std::map<std::string, double> r;
  memory::AllocStats a0, a1;
  spmd::run(cfg.t * cfg.p, [&](comm::Comm& c) {
    trace::set_track(c.rank());
    train::TrainerOptions opts;
    opts.pipeline.schedule = pipeline::Schedule::k1F1B;
    train::Trainer trainer(cfg, c, opts);
    pipeline::PipelineEngine& engine = trainer.engine();
    std::vector<comm::Comm*> comms = {&c, &engine.tp_comm(), &engine.pp_comm(),
                                      &engine.dp_comm()};
    const double t_cold = now_s();
    {
      trace::Span span("train.cold_step", 0);
      trainer.step(steps[0]);
    }
    const double cold_s = now_s() - t_cold;
    std::vector<double> st;
    comm::TrafficStats before[4];
    memory::AllocStats alloc_before, alloc_after;
    for (int i = 1; i < 3; ++i) {
      for (size_t j = 0; j < comms.size(); ++j) before[j] = comms[j]->stats();
      alloc_before = MemoryTracker::instance().allocator_stats();
      const double t0 = now_s();
      {
        trace::Span span("train.step", i);
        trainer.step(steps[static_cast<size_t>(i)]);
      }
      st.push_back(now_s() - t0);
      alloc_after = MemoryTracker::instance().allocator_stats();
    }
    int64_t bytes = 0, calls = 0, p2p = 0;
    for (size_t j = 0; j < comms.size(); ++j) {
      const comm::TrafficStats& now = comms[j]->stats();
      bytes += now.bytes_received - before[j].bytes_received;
      calls += collectives(now) - collectives(before[j]);
      p2p += now.p2p_bytes_sent - before[j].p2p_bytes_sent;
    }

    std::vector<std::vector<int64_t>> toks, tgts;
    for (const data::Batch& mb : steps[2]) {
      toks.push_back(mb.tokens);
      tgts.push_back(mb.targets);
    }
    std::vector<double> it;
    for (int i = 0; i < 2; ++i) {
      if (i > 0) engine.zero_grads();
      const double t0 = now_s();
      trace::Span span("pipeline.iteration", i);
      engine.run_iteration(toks, tgts, 100 + i);
      it.push_back(now_s() - t0);
    }
    optim::Adam adam(engine.params(), 1e-3f);
    adam.step();
    const double t_adam = time_call("optim.adam", 3, 0.0, [&] { adam.step(); });
    engine.zero_grads();
    if (c.rank() == 0) {
      r["cold_step"] = cold_s;
      r["step"] = median(st);
      r["iteration"] = median(it);
      r["adam"] = t_adam;
      r["bytes"] = static_cast<double>(bytes);
      r["calls"] = static_cast<double>(calls);
      r["p2p"] = static_cast<double>(p2p);
      a0 = alloc_before;
      a1 = alloc_after;
    }
  });
  m.add("train.cold_step_ms", 1e3 * r["cold_step"], "ms");
  m.add("train.step_ms", 1e3 * r["step"], "ms");
  m.add("pipeline.iteration_ms", 1e3 * r["iteration"], "ms");
  m.add("optim.adam_ms", 1e3 * r["adam"], "ms");
  m.add("comm.bytes_per_step", r["bytes"], "B");
  m.add("comm.collectives_per_step", r["calls"], "count");
  m.add("comm.p2p_bytes_per_step", r["p2p"], "B");
  std::vector<int> in_flight;
  for (int rank = 0; rank < cfg.p; ++rank)
    in_flight.push_back(pipeline::max_in_flight(pipeline::build_schedule(
        pipeline::Schedule::k1F1B, cfg.p, rank, static_cast<int>(cfg.microbatches()),
        cfg.interleave_m)));
  m.add("pipeline.bubble_frac",
        perf::estimate_iteration_time(cfg, perf::MachineModel::a100(), cfg.sequence_parallel,
                                      cfg.recompute)
            .bubble_fraction,
        "frac");
  m.add("pipeline.max_in_flight",
        static_cast<double>(*std::max_element(in_flight.begin(), in_flight.end())), "count");
  if (!w.serving) add_alloc_detail(m, a0, a1, 1);
}

// serve.decode_ms_b1 / _b64 (DecodeEngine::step on fixed rows) and, for
// training workloads, one closed-loop pass for the scheduler metrics.
void probe_serving(const Workload& w, uint64_t seed, Metrics& m) {
  const ServeShape ss = serving_shape(w, seed);
  const ModelConfig& cfg = ss.cfg;
  double b1 = 0, b64 = 0;
  ServeRun pass;
  spmd::run(cfg.t, [&](comm::Comm& c) {
    trace::set_track(c.rank());
    model::GPTModel model(cfg, c);
    {
      model.set_inference(true);
      serve::DecodeEngine engine(model, false);
      serve::KVLayout layout = engine.layout();
      layout.block_tokens = ss.scfg.block_tokens;
      const int64_t n = 64, prefill = cfg.s / 4;
      const int64_t reps = std::min<int64_t>(8, (cfg.s - prefill) / 2);
      const int64_t per_seq = prefill + 2 * reps + 2 * layout.block_tokens;
      auto cache = serve::make_paged_kv_cache(layout, (n + 1) * per_seq);
      std::vector<std::unique_ptr<serve::SequenceKV>> seqs;
      for (int64_t i = 0; i < n; ++i) seqs.push_back(cache->create(cfg.s));
      const auto rows_at = [&](int64_t count, int64_t pos, bool sample) {
        std::vector<serve::DecodeRow> rows;
        for (int64_t i = 0; i < count; ++i) {
          serve::SequenceKV* kv = seqs[static_cast<size_t>(i)].get();
          MLS_CHECK(kv->reserve(pos));
          rows.push_back({(i * 31 + pos * 7) % cfg.v, pos, kv, sample, 0.0f, 1,
                          pos - prefill});
        }
        return rows;
      };
      for (int64_t pos = 0; pos < prefill; ++pos) engine.step(rows_at(n, pos, false));
      std::vector<double> d64, d1;
      for (int64_t i = 0; i < reps; ++i) {
        auto rows = rows_at(n, prefill + i, true);
        const double t0 = now_s();
        trace::Span span("serve.decode_b64", i);
        engine.step(rows);
        d64.push_back(now_s() - t0);
      }
      for (int64_t i = 0; i < reps; ++i) {
        auto rows = rows_at(1, prefill + reps + i, true);
        const double t0 = now_s();
        trace::Span span("serve.decode_b1", i);
        engine.step(rows);
        d1.push_back(now_s() - t0);
      }
      seqs.clear();
      model.set_inference(false);
      if (c.rank() == 0) {
        b64 = median(d64);
        b1 = median(d1);
      }
    }
    if (!w.serving) {
      ServeRun r = serve_closed_loop(model, ss.scfg, ss.tcfg);
      if (c.rank() == 0) pass = std::move(r);
    }
  });
  m.add("serve.decode_ms_b1", 1e3 * b1, "ms");
  m.add("serve.decode_ms_b64", 1e3 * b64, "ms");
  if (!w.serving) add_serve_detail(m, pass);
}

}  // namespace

void add_alloc_detail(Metrics& m, const memory::AllocStats& before,
                      const memory::AllocStats& after, int64_t steps) {
  const double n = static_cast<double>(std::max<int64_t>(1, steps));
  const double hits = static_cast<double>(after.pool_hits - before.pool_hits);
  const double misses = static_cast<double>(after.pool_misses - before.pool_misses);
  m.add("memory.allocs_per_step", static_cast<double>(after.allocs - before.allocs) / n,
        "count");
  m.add("memory.pool_hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0.0, "frac");
  m.add("memory.fragmentation", after.fragmentation(), "frac");
}

Outcome run_layers(const Workload& w, uint64_t seed) {
  Outcome out;
  try {
    probe_ops(w, seed, out.metrics);
    probe_layer(w, seed, out.metrics, out);
    probe_training(w, seed, out.metrics);
    probe_serving(w, seed, out.metrics);
  } catch (const std::exception& e) {
    out.fail_gate(std::string("per-layer probe threw: ") + e.what());
  }
  return out;
}

}  // namespace perfbench
