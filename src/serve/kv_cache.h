// Per-rank KV cache for incremental decode: a vLLM-style block table
// over the PR-3 pool allocator, plus the naive per-request contiguous
// baseline bench_serve compares it against.
//
// Layout: one physical block covers `block_tokens` consecutive token
// positions of ONE sequence across ALL layers and this rank's local
// heads, in a [L, 2, heads_local, block_tokens * d] footprint (2 = K
// then V). Each (layer, head) V slice is row-major [block_tokens, d];
// each K slice is stored transposed, [d, block_tokens], so decode's
// score sweep reads contiguous key lanes. An append pays that transpose
// once per position (d strided stores); decode then reads every block
// in place as one run (SequenceKV::runs), with no copy per step. The
// naive region uses the same per-slice layout with its whole capacity
// as the token extent.
//
// Accounting runs on two axes, as everywhere in this repo:
//   * physical — fp32 simulation bytes, owned by the rank's pooled
//     arena (blocks are ordinary Tensors; freeing a sequence returns
//     its blocks to the cache's free list, freeing the cache returns
//     the segments to the arena);
//   * logical  — fp16 bytes per cached token (the paper's accounting,
//     extended from activations to KV: 2·2·h/t·L bytes per position),
//     charged to MemoryTracker's KV axis so serve peaks sit next to
//     training-activation peaks in one report.
//
// Fragmentation: reserved-but-unwritten bytes. The paged cache wastes
// at most (block_tokens - 1) positions per live sequence; the naive
// baseline reserves each request's worst-case length up front and
// wastes the entire unfilled tail for the sequence's whole lifetime.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "model/config.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace mls::serve {

struct KVLayout {
  int64_t layers = 0;        // transformer layers cached
  int64_t heads_local = 0;   // this rank's heads (a / t)
  int64_t d = 0;             // head dimension
  int64_t block_tokens = 0;  // positions per block
  int64_t max_ctx = 0;       // trained sequence length (position limit)

  // Cache floats for one token position (all layers, K and V).
  int64_t floats_per_token() const { return layers * 2 * heads_local * d; }
  int64_t floats_per_block() const {
    return floats_per_token() * block_tokens;
  }
  // Logical fp16 bytes per cached token position.
  int64_t logical_bytes_per_token() const { return floats_per_token() * 2; }
  int64_t blocks_for(int64_t tokens) const {
    return (tokens + block_tokens - 1) / block_tokens;
  }
};

// The layout of `cfg`'s cache on one of `tp_size` tensor-parallel
// ranks: L layers of a/t heads of h/a floats, s positions.
KVLayout kv_layout(const model::ModelConfig& cfg, int tp_size,
                   int64_t block_tokens);

struct KVStats {
  int64_t reserved_bytes = 0;  // logical bytes held by live sequences
  int64_t used_bytes = 0;      // logical bytes of tokens actually cached
  int64_t reserved_peak = 0;
  int64_t used_peak = 0;
  int64_t blocks_total = 0;      // paged: pool capacity in blocks
  int64_t blocks_free = 0;       // paged: currently unattached
  int64_t appends = 0;           // token positions written
  int64_t reserve_failures = 0;  // reserve() calls that found no room
  int64_t sequences_freed = 0;

  // Fraction of reserved bytes never written — internal fragmentation.
  double waste() const {
    return reserved_bytes == 0
               ? 0.0
               : 1.0 - static_cast<double>(used_bytes) /
                           static_cast<double>(reserved_bytes);
  }
};

// One sequence's cached keys/values. Destroying the handle returns its
// storage to the cache (eviction and normal retirement are the same
// path). Positions must be appended in order, 0, 1, 2, ...
class SequenceKV {
 public:
  virtual ~SequenceKV() = default;
  // Ensures capacity for position `pos`. Paged: attaches a block when
  // pos crosses a block boundary; returns false if the pool is empty
  // (the scheduler then preempts). Naive: always true (the whole
  // worst-case region was reserved at creation).
  virtual bool reserve(int64_t pos) = 0;
  // Stores the K and V rows (d floats each) of one (position, layer,
  // head). reserve(pos) must have succeeded.
  virtual void append(int64_t pos, int64_t layer, int64_t head,
                      const float* k, const float* v) = 0;
  // Positions [0, len) of (layer, head) as the contiguous runs they are
  // stored in, in position order (one per paged block, one for the
  // naive region), written to `out` (cleared first). Decode reads them
  // in place (kernels::decode_attention); the pointers stay valid until
  // the handle is destroyed.
  virtual void runs(int64_t layer, int64_t head, int64_t len,
                    std::vector<kernels::KVRun>& out) const = 0;
  // Token positions appended so far (layer 0, head 0 is the reference;
  // all layers advance together within one decode step).
  virtual int64_t cached_tokens() const = 0;
};

// The per-rank cache: owns the block pool (paged) or the budget ledger
// (naive) and hands out SequenceKV handles. Every SequenceKV must be
// destroyed before its KVCache.
class KVCache {
 public:
  virtual ~KVCache() = default;
  // Could a sequence needing `total_tokens` cached positions EVER run
  // to completion alone on this cache? The scheduler rejects requests
  // that fail this (they would thrash the preemption loop forever).
  virtual bool fits_alone(int64_t total_tokens) const = 0;
  // Room to admit a new sequence right now, given it will eventually
  // need `total_tokens` positions. Paged: enough free blocks to cover
  // the first position (growth is incremental, preemption handles
  // pressure); naive: the whole worst-case region is available.
  virtual bool can_admit(int64_t total_tokens) const = 0;
  // Creates a sequence handle; call only after can_admit. `total_tokens`
  // is the worst-case cached-position count for the request.
  virtual std::unique_ptr<SequenceKV> create(int64_t total_tokens) = 0;
  // Fraction of the budget currently reserved by live sequences, in
  // [0, 1] — the signal the scheduler's soft/hard watermarks classify.
  // Paged: attached blocks / pool capacity; naive: reserved tokens /
  // budget tokens.
  virtual double occupancy() const = 0;
  virtual const KVStats& stats() const = 0;
  const KVLayout& layout() const { return layout_; }

 protected:
  explicit KVCache(const KVLayout& layout) : layout_(layout) {}
  KVLayout layout_;
};

// Block-table paged cache: fixed-size token blocks drawn lazily from
// the rank's pooled arena, per-sequence block tables, free-list reuse.
std::unique_ptr<KVCache> make_paged_kv_cache(const KVLayout& layout,
                                             int64_t budget_tokens);
// Naive baseline: one contiguous worst-case region per request,
// reserved for the sequence's entire lifetime.
std::unique_ptr<KVCache> make_naive_kv_cache(const KVLayout& layout,
                                             int64_t budget_tokens);

}  // namespace mls::serve
