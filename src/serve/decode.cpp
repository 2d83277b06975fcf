#include "serve/decode.h"

#include <cmath>
#include <cstring>

#include "analysis/ledger.h"
#include "model/generate.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace mls::serve {

namespace {

// Copies `n` rows of x starting at `begin` into a fresh [n, h] tensor
// (the overlap path's half-batch split).
Tensor copy_rows(const Tensor& x, int64_t begin, int64_t n) {
  const int64_t h = x.dim(1);
  Tensor out = Tensor::empty(Shape{{n, h}});
  std::memcpy(out.data(), x.data() + begin * h,
              static_cast<size_t>(n * h) * sizeof(float));
  return out;
}

}  // namespace

DecodeEngine::DecodeEngine(const model::GPTModel& model, bool overlap)
    : model_(model), tp_(model.env().tp), overlap_(overlap) {
  const auto& cfg = model_.config();
  const auto& spec = model_.spec();
  MLS_CHECK(spec.has_embedding && spec.has_head && spec.layer_begin == 0 &&
            spec.layer_end == cfg.L)
      << "decode requires a whole-model instance";
  // block_tokens = 1: the cache's layout carries the real value.
  layout_ = kv_layout(cfg, model_.env().tp_size(), 1);
  alpha_ = 1.0f / std::sqrt(static_cast<float>(layout_.d));
  kbuf_ = Tensor::empty(Shape{{cfg.s, layout_.d}});
  vbuf_ = Tensor::empty(Shape{{cfg.s, layout_.d}});
  sbuf_ = Tensor::empty(Shape{{cfg.s}});
  pbuf_ = Tensor::empty(Shape{{cfg.s}});
}

Tensor DecodeEngine::embed_rows(const std::vector<DecodeRow>& rows) {
  const auto& cfg = model_.config();
  const int64_t n = static_cast<int64_t>(rows.size());
  const int64_t h = cfg.h;
  const Tensor& table = model_.word_table().value();
  const int64_t v_local = table.dim(0);
  // Masked local lookup into zeros + all-reduce — the decode-shaped
  // vocab_parallel_embedding (core/collectives.cpp).
  Tensor x = Tensor::zeros(Shape{{n, h}});
  float* xp = x.data();
  const float* tp = table.data();
  for (int64_t r = 0; r < n; ++r) {
    const int64_t local = rows[static_cast<size_t>(r)].token -
                          model_.vocab_offset();
    if (local < 0 || local >= v_local) continue;
    std::memcpy(xp + r * h, tp + local * h,
                static_cast<size_t>(h) * sizeof(float));
  }
  reduce(x, "serve.embed");
  // Positional rows; += matches core::add_positional's clone-then-add.
  const float* pp = model_.pos_table().value().data();
  for (int64_t r = 0; r < n; ++r) {
    const int64_t pos = rows[static_cast<size_t>(r)].position;
    float* row = xp + r * h;
    const float* prow = pp + pos * h;
    for (int64_t j = 0; j < h; ++j) row[j] += prow[j];
  }
  return x;
}

Tensor DecodeEngine::attn_partial(int64_t layer, const Tensor& x,
                                  const std::vector<DecodeRow>& rows,
                                  int64_t row_begin) {
  const auto& cfg = model_.config();
  const auto& ly = model_.layers()[static_cast<size_t>(layer)];
  const int64_t n = x.dim(0);
  const int64_t hpt = cfg.h / model_.env().tp_size();  // h/t
  const int64_t d = layout_.d;

  Tensor a_in =
      ops::layernorm(x, ly.ln1_gamma.value(), ly.ln1_beta.value(), cfg.ln_eps)
          .y;
  // [n, 3h/t], per-rank block layout [Q_r | K_r | V_r].
  Tensor qkv = ops::add_bias(ops::matmul(a_in, ly.attn.qkv.weight.value()),
                             ly.attn.qkv.bias.value());
  const float* qkvp = qkv.data();
  Tensor ctx = Tensor::empty(Shape{{n, hpt}});
  float* ctxp = ctx.data();
  for (int64_t r = 0; r < n; ++r) {
    const DecodeRow& row = rows[static_cast<size_t>(row_begin + r)];
    const int64_t len = row.position + 1;
    const float* q = qkvp + r * 3 * hpt;
    const float* k = q + hpt;
    const float* v = q + 2 * hpt;
    for (int64_t head = 0; head < layout_.heads_local; ++head) {
      row.kv->append(row.position, layer, head, k + head * d, v + head * d);
      row.kv->gather(layer, head, len, kbuf_.data(), vbuf_.data());
      // scores [1, len] = q [1, d] @ K [len, d]ᵀ, then the same fused
      // causal softmax row the full path computes, then one [1, d]
      // context GEMM over the contiguous gathered V (see decode.h for
      // why this must be a single k = len reduction).
      kernels::gemm(q + head * d, kbuf_.data(), sbuf_.data(), 1, len, d,
                    /*trans_a=*/false, /*trans_b=*/true);
      kernels::scaled_softmax(sbuf_.data(), pbuf_.data(), /*rows=*/1,
                              /*sq=*/1, /*sk=*/len, alpha_, /*causal=*/true);
      kernels::gemm(pbuf_.data(), vbuf_.data(), ctxp + r * hpt + head * d, 1,
                    d, len, /*trans_a=*/false, /*trans_b=*/false);
    }
  }
  return ops::matmul(ctx, ly.attn.proj.weight.value());
}

Tensor DecodeEngine::mlp_partial(int64_t layer, const Tensor& attn_reduced,
                                 const Tensor& x, Tensor* x1) {
  const auto& cfg = model_.config();
  const auto& ly = model_.layers()[static_cast<size_t>(layer)];
  *x1 = ops::add(ops::add_bias(attn_reduced, ly.attn.proj.bias.value()), x);
  Tensor m_in =
      ops::layernorm(*x1, ly.ln2_gamma.value(), ly.ln2_beta.value(),
                     cfg.ln_eps)
          .y;
  Tensor z = ops::bias_gelu(ops::matmul(m_in, ly.mlp.lin1.weight.value()),
                            ly.mlp.lin1.bias.value());
  return ops::matmul(z, ly.mlp.lin2.weight.value());
}

Tensor DecodeEngine::finish_layer(int64_t layer, const Tensor& mlp_reduced,
                                  const Tensor& x1) {
  const auto& ly = model_.layers()[static_cast<size_t>(layer)];
  return ops::add(ops::add_bias(mlp_reduced, ly.mlp.lin2.bias.value()), x1);
}

void DecodeEngine::reduce(Tensor& t, const char* site) {
  if (tp_.valid() && tp_.size() > 1) {
    analysis::SiteGuard sg(site);
    tp_.all_reduce(t);
  }
}

std::vector<int64_t> DecodeEngine::sample_rows(
    const std::vector<Tensor>& hidden, const std::vector<int64_t>& splits,
    const std::vector<DecodeRow>& rows) {
  const auto& cfg = model_.config();
  const int64_t n = static_cast<int64_t>(rows.size());
  std::vector<int64_t> out(static_cast<size_t>(n), -1);
  std::vector<int64_t> sample_idx;
  for (int64_t r = 0; r < n; ++r) {
    if (rows[static_cast<size_t>(r)].sample) sample_idx.push_back(r);
  }
  const int64_t m = static_cast<int64_t>(sample_idx.size());
  if (m == 0) return out;

  // Gather the frontier rows into [m, h], then the full path's head:
  // lnf layernorm -> tied-table GEMM -> vocab gather.
  const int64_t h = cfg.h;
  Tensor xm = Tensor::empty(Shape{{m, h}});
  for (int64_t i = 0; i < m; ++i) {
    int64_t r = sample_idx[static_cast<size_t>(i)];
    int64_t g = 0;
    while (r >= splits[static_cast<size_t>(g)]) {
      r -= splits[static_cast<size_t>(g)];
      ++g;
    }
    std::memcpy(xm.data() + i * h,
                hidden[static_cast<size_t>(g)].data() + r * h,
                static_cast<size_t>(h) * sizeof(float));
  }
  Tensor xl = ops::layernorm(xm, model_.lnf_gamma().value(),
                             model_.lnf_beta().value(), cfg.ln_eps)
                  .y;
  Tensor logits =
      ops::matmul(xl, model_.word_table().value(), /*trans_a=*/false,
                  /*trans_b=*/true);  // [m, v/t]
  if (tp_.valid() && tp_.size() > 1) {
    analysis::SiteGuard sg("serve.gather_logits");
    logits = tp_.all_gather(logits, /*dim=*/1);  // [m, v]
  }
  const float* lp = logits.data();
  for (int64_t i = 0; i < m; ++i) {
    const DecodeRow& row =
        rows[static_cast<size_t>(sample_idx[static_cast<size_t>(i)])];
    out[static_cast<size_t>(sample_idx[static_cast<size_t>(i)])] =
        model::sample_token(lp + i * cfg.v, cfg.v, row.temperature, row.seed,
                            row.sample_step);
  }
  return out;
}

std::vector<int64_t> DecodeEngine::step(const std::vector<DecodeRow>& rows) {
  MLS_CHECK(!rows.empty());
  for (const auto& r : rows) {
    MLS_CHECK(r.kv != nullptr);
    MLS_CHECK(r.position >= 0 && r.position < layout_.max_ctx);
  }
  const auto& cfg = model_.config();
  const int64_t n = static_cast<int64_t>(rows.size());
  Tensor x = embed_rows(rows);

  // Two half-batches pipelined over the comm stream, or one straight
  // pass. The branch depends only on (overlap, t, n) — identical on all
  // ranks, so the collective sequence stays uniform.
  const bool pipelined = overlap_ && tp_.valid() && tp_.size() > 1 && n >= 2;
  if (!pipelined) {
    for (int64_t l = 0; l < cfg.L; ++l) {
      Tensor p = attn_partial(l, x, rows, 0);
      reduce(p, "serve.attn_reduce");
      Tensor x1;
      Tensor mp = mlp_partial(l, p, x, &x1);
      reduce(mp, "serve.mlp_reduce");
      x = finish_layer(l, mp, x1);
    }
    return sample_rows({x}, {n}, rows);
  }

  const int64_t n0 = n / 2;
  Tensor xa = copy_rows(x, 0, n0);
  Tensor xb = copy_rows(x, n0, n - n0);
  for (int64_t l = 0; l < cfg.L; ++l) {
    // Software pipeline (wait-before-next-launch keeps at most one
    // collective in flight per communicator; see comm.h contract):
    // half A's all-reduce rides under half B's attention, B's under A's
    // MLP, and so on down the layer.
    Tensor pa = attn_partial(l, xa, rows, 0);
    comm::CommHandle ha;
    {
      analysis::SiteGuard sg("serve.attn_reduce");
      ha = tp_.iall_reduce(pa);
    }
    Tensor pb = attn_partial(l, xb, rows, n0);
    ha.wait();
    comm::CommHandle hb;
    {
      analysis::SiteGuard sg("serve.attn_reduce");
      hb = tp_.iall_reduce(pb);
    }
    Tensor x1a;
    Tensor ma = mlp_partial(l, pa, xa, &x1a);
    hb.wait();
    comm::CommHandle hma;
    {
      analysis::SiteGuard sg("serve.mlp_reduce");
      hma = tp_.iall_reduce(ma);
    }
    Tensor x1b;
    Tensor mb = mlp_partial(l, pb, xb, &x1b);
    hma.wait();
    comm::CommHandle hmb;
    {
      analysis::SiteGuard sg("serve.mlp_reduce");
      hmb = tp_.iall_reduce(mb);
    }
    xa = finish_layer(l, ma, x1a);
    hmb.wait();
    xb = finish_layer(l, mb, x1b);
  }
  return sample_rows({xa, xb}, {n0, n - n0}, rows);
}

}  // namespace mls::serve
