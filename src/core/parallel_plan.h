// ParallelPlan: a transformer layer's parallel strategy as an object.
//
// The paper's whole contribution is *where* collectives fire and *which
// dims are sharded* — f/f̄ for tensor parallelism (Fig 4), g/ḡ for
// tensor+sequence parallelism (Fig 5), and the Table-2 byte formula
// each choice implies. A ParallelPlan owns those decisions for one
// layer family, so layers.cpp/gpt.cpp call the plan instead of
// branching on `sequence_parallel`, and a new strategy is a new plan
// object rather than another scattered branch (ROADMAP "Alternative TP
// strategies as pluggable parallel plans").
//
// Built-in plans:
//   tp_plan()          f/f̄ only; replicated outer region (Fig 4).
//   sp_plan()          f/f̄ + g/ḡ; sequence-sharded outer region
//                      (Fig 5, §4.2.2) with sharded-input-save.
//   folded_tsp_plan()  folded tensor+sequence parallelism
//                      (arXiv 2604.26294): the SP wiring with the
//                      pointwise-recomputable activations *folded into*
//                      their consumer GEMMs, so they are never stored —
//                      same collectives, same numerics, fewer bytes
//                      (Table-2 row (26sbh + 3as²b)/t).
//
// All plans are stateless singletons; ParallelEnv carries a pointer and
// resolves a null pointer from the legacy `sequence_parallel` switch so
// hand-built envs keep today's behavior bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

#include "autograd/var.h"
#include "comm/comm.h"
#include "core/env.h"
#include "tensor/ops.h"

namespace mls::core {

// Scalar layer dimensions for the byte model — keeps core/ independent
// of model::ModelConfig.
struct LayerDims {
  int64_t s = 0;  // sequence length
  int64_t b = 0;  // microbatch size
  int64_t h = 0;  // hidden size
  int64_t a = 0;  // attention heads
  int t = 1;      // tensor-parallel size
};

// Everything the attention core (Fig 3's red dashed region) needs
// besides Q/K/V. dropout_p is the *effective* probability (inference
// already applied by the caller); the mask coordinates address the
// global [b, a, s, s] tensor so all shardings draw identical masks.
struct AttnCoreDims {
  int64_t heads_local = 0;  // a / t
  int64_t heads_total = 0;  // a
  int rank = 0;             // tp rank (head-shard offset)
  int64_t batch = 0;        // b
  int64_t s_full = 0;       // s (the core always sees the full sequence)
  float alpha = 1.0f;       // 1/sqrt(d) score scaling
  bool causal = true;
  float dropout_p = 0.0f;
  uint64_t seed = 0;
};

class ParallelPlan {
 public:
  virtual ~ParallelPlan() = default;

  virtual const char* name() const = 0;
  virtual PlanKind kind() const = 0;

  // Whether the outer region (layer-norms, dropouts, residual stream,
  // embedding output) is sharded along the sequence dimension.
  virtual bool sequence_sharded() const = 0;

  // ColumnParallelLinear's entry + GEMM: f then matmul (TP) or the
  // fused g+matmul with §4.2.2 sharded-input-save (SP). The saved
  // activation this op charges is the plan's main lever.
  virtual ag::Var column_matmul(const ag::Var& x, const ag::Var& w,
                                bool trans_b, const ParallelEnv& env) const = 0;

  // RowParallelLinear's exit: f̄ (all-reduce, replicated out) or ḡ
  // (reduce-scatter, sequence-sharded out).
  virtual ag::Var row_exit(const ag::Var& y_partial,
                           const ParallelEnv& env) const = 0;

  // The attention core: QKᵀ, scaled softmax, softmax-dropout, attention
  // over V. Pure compute (no collectives) in every plan, so it stays
  // checkpointable with pure_compute=true. The default is the unfused
  // four-op chain; folded TSP fuses softmax+dropout+AV into one node.
  virtual ag::Var attention_core(const ag::Var& q, const ag::Var& k,
                                 const ag::Var& v,
                                 const AttnCoreDims& d) const;

  // The MLP's activation + second GEMM, up to (not including) the row
  // exit: bias_gelu(z1, b1) @ w2. The default stores both the pre-bias
  // z1 and the GeLU output; folded TSP fuses the pair and stores only
  // z1, recomputing the GeLU pointwise in backward.
  virtual ag::Var mlp_act_fc2(const ag::Var& z1, const ag::Var& b1,
                              const ag::Var& w2) const;

  // After backward: sums gradients of params that are replicated across
  // the TP group but received only sequence-shard contributions
  // (layer-norm weights, row-linear biases, positional embeddings).
  // Only meaningful for sequence-sharded plans; a no-op at tp size 1.
  virtual void sync_replicated_grads(const std::vector<ag::Var>& params,
                                     comm::Comm tp) const;

  // The plan's Table-2 activation bytes stored per transformer layer.
  // kFull reports the true stored bytes (the layer input at this plan's
  // outer sharding), which is 2sbh/t for sequence-sharded plans.
  virtual double act_bytes_per_layer(const LayerDims& d,
                                     Recompute rc) const = 0;
};

// The built-in plans (stateless singletons with static lifetime).
const ParallelPlan& tp_plan();
const ParallelPlan& sp_plan();
const ParallelPlan& folded_tsp_plan();

// kAuto resolves from the legacy sequence_parallel switch; explicit
// kinds return their singleton.
const ParallelPlan& plan_for(PlanKind kind, bool sequence_parallel);

}  // namespace mls::core
