// Differentiable collective operators — the paper's f/f̄ and g/ḡ pairs
// (Figures 4 and 5) plus the fused building blocks that use them.
//
//   f  : identity forward,      all-reduce backward       (Fig 4)
//   f̄  : all-reduce forward,    identity backward         (Fig 4)
//   g  : all-gather forward,    reduce-scatter backward   (Fig 5)
//   ḡ  : reduce-scatter forward, all-gather backward      (Fig 5)
//
// f/f̄ delimit the tensor-parallel regions of a transformer layer; g/ḡ
// additionally convert between the sequence-parallel (sharded on s) and
// tensor-parallel regions. The conjugacy (forward of one == backward of
// the other) is what keeps tensor+sequence parallelism at exactly the
// same communication volume as tensor parallelism alone (§4.2.2); the
// comm tests assert the byte identity.
#pragma once

#include <cstdint>
#include <vector>

#include "autograd/var.h"
#include "comm/comm.h"

namespace mls::core {

// f — entry into a tensor-parallel region with a replicated input.
ag::Var copy_to_tensor_parallel(const ag::Var& x, comm::Comm tp);

// f̄ — exit from a tensor-parallel region: sums the partial outputs.
ag::Var reduce_from_tensor_parallel(const ag::Var& x, comm::Comm tp);

// g — entry into a tensor-parallel region from a sequence-parallel
// region: gathers the sequence-sharded input.
ag::Var gather_from_sequence_parallel(const ag::Var& x, comm::Comm tp);

// ḡ — exit from a tensor-parallel region into a sequence-parallel
// region: reduce-scatters the partial outputs along the sequence.
ag::Var scatter_to_sequence_parallel(const ag::Var& x, comm::Comm tp);

// Fused g + matmul implementing §4.2.2's final optimization: the
// gathered input Y is *not* kept for backward; only this rank's shard
// Y_i^s is stored, and backward re-all-gathers it (on real hardware the
// re-gather overlaps with the dY·Wᵀ GEMM; the perf model charges it as
// overlapped). With sharded_save=false the full gathered input is kept
// instead — the ablation bench measures the memory difference.
//
// x_shard: [s/t, b, in]; w: [in, out] (or [out, in] with trans_b).
ag::Var sp_gathered_matmul(const ag::Var& x_shard, const ag::Var& w,
                           comm::Comm tp, bool trans_b = false,
                           bool sharded_save = true);

// Vocabulary-parallel embedding lookup: `table_shard` holds rows
// [vocab_offset, vocab_offset + v/t) of the embedding table. Tokens
// outside the range contribute zeros; partial results are summed with
// f̄ (replicated output) or ḡ (sequence_parallel=true; output sharded
// on s). ids are in [s, b] order (s-major).
ag::Var vocab_parallel_embedding(const ag::Var& table_shard,
                                 const std::vector<int64_t>& ids, int64_t s,
                                 int64_t b, int64_t vocab_offset, comm::Comm tp,
                                 bool sequence_parallel);

// Vocabulary-parallel cross-entropy: logits_local is [n, v/t] (this
// rank's vocabulary slice); targets hold global token ids. Computes the
// mean NLL with a numerically-stable two-all-reduce (max, then sum)
// reduction, storing only the local fp32 softmax (the paper's 4sbv/t
// term, §4.3). Returns a replicated scalar loss.
ag::Var vocab_parallel_cross_entropy(const ag::Var& logits_local,
                                     std::vector<int64_t> targets,
                                     int64_t vocab_offset, comm::Comm tp);

// Adds a learned positional embedding pos [s, h] to x [s, b, h]
// (broadcast over b). dpos sums over b.
ag::Var add_positional(const ag::Var& x, const ag::Var& pos);

}  // namespace mls::core
