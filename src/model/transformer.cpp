#include "model/transformer.h"

#include "autograd/checkpoint.h"
#include "core/parallel_plan.h"

namespace mls::model {

using ag::Var;
using core::ParallelEnv;
using core::Recompute;

namespace {
// Site-id block reserved per layer for its dropout sites: attention
// softmax (handled inside ParallelSelfAttention, slot 0), post-attn
// dropout (slot 1), post-MLP dropout (slot 2).
constexpr uint64_t kSitesPerLayer = 8;
}  // namespace

TransformerLayer::TransformerLayer(const ParallelEnv& env, const ModelConfig& cfg,
                                   int64_t layer_idx, Rng& master)
    : attn(env, cfg.h, cfg.a, cfg.dropout_p, cfg.causal,
           /*site_base=*/kSitesPerLayer * static_cast<uint64_t>(layer_idx),
           master, "layer" + std::to_string(layer_idx) + ".attn"),
      mlp(env, cfg.h, master, "layer" + std::to_string(layer_idx) + ".mlp"),
      s_(cfg.s),
      h_(cfg.h),
      dropout_p_(cfg.dropout_p),
      ln_eps_(cfg.ln_eps),
      site_base_(kSitesPerLayer * static_cast<uint64_t>(layer_idx)) {
  const std::string base = "layer" + std::to_string(layer_idx);
  ln1_gamma = Var::param(Tensor::full(Shape{{cfg.h}}, 1.f), base + ".ln1.gamma");
  ln1_beta = Var::param(Tensor::zeros(Shape{{cfg.h}}), base + ".ln1.beta");
  ln2_gamma = Var::param(Tensor::full(Shape{{cfg.h}}, 1.f), base + ".ln2.gamma");
  ln2_beta = Var::param(Tensor::zeros(Shape{{cfg.h}}), base + ".ln2.beta");
}

Var TransformerLayer::body(const Var& x, const ParallelEnv& env) const {
  // Dropout masks are drawn in the coordinates of the *global* [s,b,h]
  // tensor; under SP each rank holds rows [r·s/t, (r+1)·s/t).
  const int t = env.tp_size();
  const int r = env.tp_rank();
  const int64_t b = x.value().dim(1);
  const Shape global{{s_, b, h_}};
  const ops::IndexMap map =
      env.plan().sequence_sharded()
          ? ops::IndexMap::shard(global, 0, r * (s_ / t), s_ / t)
          : ops::IndexMap::identity(global);

  Var a_in = ag::layernorm(x, ln1_gamma, ln1_beta, ln_eps_);
  Var a_out = attn.forward(a_in, env);
  Var a_drop = ag::dropout(a_out, env.effective_dropout(dropout_p_),
                           env.dropout_seed(site_base_ + 1), map);
  Var x1 = ag::add(a_drop, x);

  Var m_in = ag::layernorm(x1, ln2_gamma, ln2_beta, ln_eps_);
  Var m_out = mlp.forward(m_in, env);
  Var m_drop = ag::dropout(m_out, env.effective_dropout(dropout_p_),
                           env.dropout_seed(site_base_ + 2), map);
  return ag::add(m_drop, x1);
}

Var TransformerLayer::forward(const Var& x, const ParallelEnv& env) const {
  if (env.recompute != Recompute::kFull) {
    return body(x, env);
  }
  // Full activation recomputation: store only the layer input (2sbh,
  // or 2sbh/t under SP — Table 2 last row) and replay the whole layer
  // in backward. The replay must not itself checkpoint selectively.
  // A full layer issues collectives, so its replay is NOT pure_compute:
  // prefetching it into a comm window would interleave two collectives
  // on the same communicator and corrupt the ring rendezvous.
  ParallelEnv inner = env;
  inner.recompute = Recompute::kNone;
  return ag::checkpoint(
      [this, inner](const std::vector<Var>& ins) { return body(ins[0], inner); },
      {x}, /*pure_compute=*/false);
}

std::vector<Var> TransformerLayer::params() const {
  std::vector<Var> out = attn.params();
  for (auto& p : mlp.params()) out.push_back(p);
  out.push_back(ln1_gamma);
  out.push_back(ln1_beta);
  out.push_back(ln2_gamma);
  out.push_back(ln2_beta);
  return out;
}

std::vector<Var> TransformerLayer::replicated_params() const {
  std::vector<Var> out = attn.replicated_params();
  for (auto& p : mlp.replicated_params()) out.push_back(p);
  out.push_back(ln1_gamma);
  out.push_back(ln1_beta);
  out.push_back(ln2_gamma);
  out.push_back(ln2_beta);
  return out;
}

}  // namespace mls::model
