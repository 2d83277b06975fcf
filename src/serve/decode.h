// DecodeEngine: batched single-position transformer forward against a
// KV cache — the serving counterpart of model::GPTModel's full-window
// forward.
//
// Bit-identity contract. For every sequence, the tokens this path
// samples are bitwise identical to model::generate() on the same model,
// because each row reproduces the full path's float operations exactly:
//   * Row ops (layernorm, the h- and 4h-contraction GEMMs, biases,
//     GeLU) are per-row and the kernel substrate's k-reduction order is
//     independent of m/n tile position (tensor/kernels.h), so a row of
//     a [n, ...] decode batch matches the same row inside a [s*b, ...]
//     full forward bit-for-bit, whatever n is.
//   * Attention reads the cache in place (kernels::decode_attention
//     over SequenceKV::runs, one run per paged block), no gather. Each
//     score is one sequential chain over c = 0..d-1 from 0 — the
//     full path's score GEMM order for that element (k = d,
//     unchanged). The softmax is kernels::scaled_softmax's row body on
//     one [1, len] causal row, which reduces max/exp/sum over exactly
//     the `len` live entries in the same sequential order as row
//     len-1 of the full [s, s] call.
//   * Each context element is ONE sequential chain over positions
//     0..len-1 that runs across block boundaries: one accumulator per
//     output element, flushed only at the GEMM's fixed absolute
//     k-panel boundaries, never a per-block partial sum (summing
//     per-block partials would reassociate the k sum). The full path's
//     k = s reduction only adds trailing terms whose probabilities are
//     exact zeros (masked positions); adding trailing zero terms never
//     changes the prefix sum's bits. Under MLS_KERNEL_REF=1 both paths
//     follow gemm_ref's orders instead.
//   * Collectives: decode all-reduces partial sums that are bitwise
//     equal to the full path's partials, over the same communicator.
//     Ring all-reduce chunks reassociate the rank sum, but a 2-rank
//     (or 1-rank) sum is order-free, so results match on the t ∈ {1, 2}
//     grids the equivalence tests pin. Dropout is inference-off (exact
//     identity) in both paths.
//
// Sequence-parallel models decode through the same TP-style collectives:
// a one-position step has no sequence dimension to shard, and the
// weight shards are identical with and without SP (DESIGN.md §11).
#pragma once

#include <cstdint>
#include <vector>

#include "comm/comm.h"
#include "model/gpt.h"
#include "serve/kv_cache.h"

namespace mls::serve {

// One active sequence's contribution to a decode step: feed `token` at
// `position` (appending that position's K/V to `kv`), and optionally
// sample the next token from the resulting logits.
struct DecodeRow {
  int64_t token = 0;
  int64_t position = 0;
  SequenceKV* kv = nullptr;
  bool sample = false;        // this row is at its sampling frontier
  float temperature = 0.0f;   // sampling parameters (see generate.h)
  uint64_t seed = 1;
  int64_t sample_step = 0;    // index of the token being generated
};

class DecodeEngine {
 public:
  // The model must be a whole-model instance (embedding + head). The
  // engine only reads weights. `overlap` survives only for callers that
  // still pass it: false is the one decode path, and true (the removed
  // half-batch overlapped pipeline) throws mls::Error.
  explicit DecodeEngine(const model::GPTModel& model, bool overlap = false);

  // Runs one decode step over `rows` (any mix of prefill and decode
  // positions; each row appends one KV position). Returns one entry per
  // row: the sampled token for rows with sample == true, -1 otherwise.
  // All ranks of the TP group must call with identical rows.
  std::vector<int64_t> step(const std::vector<DecodeRow>& rows);

  const KVLayout& layout() const { return layout_; }

 private:
  Tensor embed_rows(const std::vector<DecodeRow>& rows);
  // ln1 -> QKV -> KV append -> per-row attention -> context -> proj
  // GEMM; returns the pre-reduction proj partial [n, h].
  Tensor attn_partial(int64_t layer, const Tensor& x,
                      const std::vector<DecodeRow>& rows);
  // One transformer layer: attention partial -> f̄ (serve.attn_reduce)
  // -> bias + residual -> ln2 + lin1 + bias-GeLU + lin2 partial -> f̄
  // (serve.mlp_reduce) -> bias + residual. Returns the next layer's x.
  Tensor layer(int64_t l, const Tensor& x,
               const std::vector<DecodeRow>& rows);
  void reduce(Tensor& t, const char* site);
  std::vector<int64_t> sample_rows(const Tensor& x,
                                   const std::vector<DecodeRow>& rows);

  const model::GPTModel& model_;
  comm::Comm tp_;
  KVLayout layout_;
  float alpha_ = 1.0f;  // attention score scale, 1/sqrt(d)
  // Per-head decode scratch: scores/probs [max_ctx] (pooled once) and
  // the cached runs of the (layer, head) being attended.
  Tensor sbuf_, pbuf_;
  std::vector<kernels::KVRun> runs_;
};

}  // namespace mls::serve
