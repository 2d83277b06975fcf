#include "serve/kv_cache.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/memtracker.h"
#include "common/shape.h"
#include "fault/inject.h"
#include "memory/pool_allocator.h"

namespace mls::serve {

KVLayout kv_layout(const model::ModelConfig& cfg, int tp_size,
                   int64_t block_tokens) {
  KVLayout lo;
  lo.layers = cfg.L;
  lo.heads_local = cfg.a / tp_size;
  lo.d = cfg.h / cfg.a;
  lo.block_tokens = block_tokens;
  lo.max_ctx = cfg.s;
  return lo;
}

namespace {

void note_reserved(KVStats& st, int64_t logical_delta) {
  st.reserved_bytes += logical_delta;
  st.reserved_peak = std::max(st.reserved_peak, st.reserved_bytes);
  if (logical_delta > 0) {
    MemoryTracker::instance().on_kv_alloc(logical_delta);
  } else {
    MemoryTracker::instance().on_kv_free(-logical_delta);
  }
}

void note_used(KVStats& st, int64_t logical_delta) {
  st.used_bytes += logical_delta;
  st.used_peak = std::max(st.used_peak, st.used_bytes);
}

// Storage with `tokens` positions per slice (a paged block's
// block_tokens, or a naive region's capacity) is laid out
// [L, 2, heads_local, tokens * d]: V slices row-major [tokens, d], K
// slices transposed [d, tokens]. Offset of one (layer, K=0/V=1, head)
// slice:
int64_t slice_offset(const KVLayout& lo, int64_t tokens, int64_t layer,
                     int64_t kv, int64_t head) {
  return ((layer * 2 + kv) * lo.heads_local + head) * tokens * lo.d;
}

// Writes one (position, layer, head): the K row as a column of the
// transposed slice, the V row as a row.
void store_kv(float* base, const KVLayout& lo, int64_t tokens, int64_t layer,
              int64_t head, int64_t row, const float* k, const float* v) {
  float* kd = base + slice_offset(lo, tokens, layer, 0, head) + row;
  for (int64_t c = 0; c < lo.d; ++c) kd[c * tokens] = k[c];
  std::memcpy(base + slice_offset(lo, tokens, layer, 1, head) + row * lo.d, v,
              static_cast<size_t>(lo.d) * sizeof(float));
}

// The first `rows` positions of one (layer, head) slice as a run.
kernels::KVRun slice_run(const float* base, const KVLayout& lo,
                         int64_t tokens, int64_t layer, int64_t head,
                         int64_t rows) {
  return {base + slice_offset(lo, tokens, layer, 0, head),
          base + slice_offset(lo, tokens, layer, 1, head), rows, tokens};
}

// ------------------------------------------------------------- paged

class PagedKVCache;

class PagedSequenceKV final : public SequenceKV {
 public:
  PagedSequenceKV(PagedKVCache* cache, int64_t total_tokens)
      : cache_(cache) {
    table_.reserve(static_cast<size_t>(total_tokens));
  }
  ~PagedSequenceKV() override;

  bool reserve(int64_t pos) override;
  void append(int64_t pos, int64_t layer, int64_t head, const float* k,
              const float* v) override;
  void runs(int64_t layer, int64_t head, int64_t len,
            std::vector<kernels::KVRun>& out) const override;
  int64_t cached_tokens() const override { return cached_; }

 private:
  PagedKVCache* cache_;
  std::vector<int64_t> table_;  // block ids, in position order
  int64_t cached_ = 0;
};

class PagedKVCache final : public KVCache {
 public:
  PagedKVCache(const KVLayout& layout, int64_t budget_tokens)
      : KVCache(layout),
        capacity_blocks_(budget_tokens / layout.block_tokens) {
    MLS_CHECK_GT(capacity_blocks_, 0) << "KV budget below one block";
    stats_.blocks_total = capacity_blocks_;
    stats_.blocks_free = capacity_blocks_;
    blocks_.reserve(static_cast<size_t>(capacity_blocks_));
  }

  bool fits_alone(int64_t total_tokens) const override {
    return layout_.blocks_for(total_tokens) <= capacity_blocks_;
  }

  bool can_admit(int64_t total_tokens) const override {
    // Growth is incremental; admission only needs the first block (and
    // the request must be completable alone, or it would thrash).
    return fits_alone(total_tokens) && stats_.blocks_free >= 1;
  }

  std::unique_ptr<SequenceKV> create(int64_t total_tokens) override {
    return std::make_unique<PagedSequenceKV>(this, total_tokens);
  }

  const KVStats& stats() const override { return stats_; }

  double occupancy() const override {
    return 1.0 - static_cast<double>(stats_.blocks_free) /
                     static_cast<double>(capacity_blocks_);
  }

  // Attaches a free block (lazily materializing its Tensor on first
  // use); -1 when the pool is exhausted.
  int64_t acquire_block() {
    // Injected oom ("kv.block") and a genuinely over-budget arena both
    // land on the same failure edge the scheduler already survives:
    // reserve() returns false and the latest sequence is preempted.
    if (fault::on_oom("kv.block")) {
      ++stats_.reserve_failures;
      return -1;
    }
    int64_t id = -1;
    if (!free_list_.empty()) {
      id = free_list_.back();
      free_list_.pop_back();
    } else if (static_cast<int64_t>(blocks_.size()) < capacity_blocks_) {
      id = static_cast<int64_t>(blocks_.size());
      try {
        blocks_.push_back(Tensor::empty(
            Shape{{layout_.layers, 2, layout_.heads_local,
                   layout_.block_tokens, layout_.d}}));
      } catch (const memory::MemoryPressureError&) {
        ++stats_.reserve_failures;
        return -1;
      }
    } else {
      ++stats_.reserve_failures;
      return -1;
    }
    --stats_.blocks_free;
    note_reserved(stats_,
                  layout_.logical_bytes_per_token() * layout_.block_tokens);
    return id;
  }

  void release_block(int64_t id) {
    free_list_.push_back(id);
    ++stats_.blocks_free;
    note_reserved(stats_,
                  -layout_.logical_bytes_per_token() * layout_.block_tokens);
  }

  float* block_data(int64_t id) { return blocks_[static_cast<size_t>(id)].data(); }
  const float* block_data(int64_t id) const {
    return blocks_[static_cast<size_t>(id)].data();
  }
  KVStats& mutable_stats() { return stats_; }

 private:
  int64_t capacity_blocks_;
  std::vector<Tensor> blocks_;      // materialized blocks, by id
  std::vector<int64_t> free_list_;  // ids available for reuse
  KVStats stats_;
};

PagedSequenceKV::~PagedSequenceKV() {
  auto& st = cache_->mutable_stats();
  note_used(st, -cached_ * cache_->layout().logical_bytes_per_token());
  for (int64_t id : table_) cache_->release_block(id);
  ++st.sequences_freed;
}

bool PagedSequenceKV::reserve(int64_t pos) {
  const int64_t bt = cache_->layout().block_tokens;
  const int64_t block_idx = pos / bt;
  MLS_CHECK_LE(block_idx, static_cast<int64_t>(table_.size()))
      << "positions must be reserved in order";
  if (block_idx < static_cast<int64_t>(table_.size())) return true;
  const int64_t id = cache_->acquire_block();
  if (id < 0) return false;
  table_.push_back(id);
  return true;
}

void PagedSequenceKV::append(int64_t pos, int64_t layer, int64_t head,
                             const float* k, const float* v) {
  const KVLayout& lo = cache_->layout();
  const int64_t bt = lo.block_tokens;
  MLS_CHECK_LT(pos / bt, static_cast<int64_t>(table_.size()))
      << "append without reserve";
  float* base = cache_->block_data(table_[static_cast<size_t>(pos / bt)]);
  store_kv(base, lo, bt, layer, head, pos % bt, k, v);
  // One decode step appends every (layer, head) of one position; count
  // the position once, when its first row lands.
  if (layer == 0 && head == 0) {
    ++cached_;
    auto& st = cache_->mutable_stats();
    ++st.appends;
    note_used(st, lo.logical_bytes_per_token());
  }
}

void PagedSequenceKV::runs(int64_t layer, int64_t head, int64_t len,
                           std::vector<kernels::KVRun>& out) const {
  const KVLayout& lo = cache_->layout();
  const int64_t bt = lo.block_tokens;
  out.clear();
  for (int64_t start = 0; start < len; start += bt) {
    out.push_back(slice_run(
        cache_->block_data(table_[static_cast<size_t>(start / bt)]), lo, bt,
        layer, head, std::min(bt, len - start)));
  }
}

// ------------------------------------------------------------- naive

class NaiveKVCache;

class NaiveSequenceKV final : public SequenceKV {
 public:
  NaiveSequenceKV(NaiveKVCache* cache, int64_t total_tokens);
  ~NaiveSequenceKV() override;

  bool reserve(int64_t pos) override {
    MLS_CHECK_LT(pos, capacity_tokens_);
    return true;
  }
  void append(int64_t pos, int64_t layer, int64_t head, const float* k,
              const float* v) override;
  void runs(int64_t layer, int64_t head, int64_t len,
            std::vector<kernels::KVRun>& out) const override;
  int64_t cached_tokens() const override { return cached_; }

 private:
  NaiveKVCache* cache_;
  Tensor region_;  // [L, 2, heads_local, capacity_tokens, d]
  int64_t capacity_tokens_;
  int64_t cached_ = 0;
};

class NaiveKVCache final : public KVCache {
 public:
  NaiveKVCache(const KVLayout& layout, int64_t budget_tokens)
      : KVCache(layout), budget_tokens_(budget_tokens) {}

  bool fits_alone(int64_t total_tokens) const override {
    return total_tokens <= budget_tokens_;
  }
  bool can_admit(int64_t total_tokens) const override {
    return reserved_tokens_ + total_tokens <= budget_tokens_;
  }
  double occupancy() const override {
    return budget_tokens_ == 0 ? 0.0
                               : static_cast<double>(reserved_tokens_) /
                                     static_cast<double>(budget_tokens_);
  }
  std::unique_ptr<SequenceKV> create(int64_t total_tokens) override {
    return std::make_unique<NaiveSequenceKV>(this, total_tokens);
  }
  const KVStats& stats() const override { return stats_; }

  KVStats& mutable_stats() { return stats_; }
  void note_region(int64_t token_delta) {
    reserved_tokens_ += token_delta;
    note_reserved(stats_, token_delta * layout_.logical_bytes_per_token());
  }

 private:
  int64_t budget_tokens_;
  int64_t reserved_tokens_ = 0;
  KVStats stats_;
};

NaiveSequenceKV::NaiveSequenceKV(NaiveKVCache* cache, int64_t total_tokens)
    : cache_(cache), capacity_tokens_(total_tokens) {
  const KVLayout& lo = cache_->layout();
  region_ = Tensor::empty(
      Shape{{lo.layers, 2, lo.heads_local, capacity_tokens_, lo.d}});
  cache_->note_region(capacity_tokens_);
}

NaiveSequenceKV::~NaiveSequenceKV() {
  auto& st = cache_->mutable_stats();
  note_used(st, -cached_ * cache_->layout().logical_bytes_per_token());
  cache_->note_region(-capacity_tokens_);
  ++st.sequences_freed;
}

void NaiveSequenceKV::append(int64_t pos, int64_t layer, int64_t head,
                             const float* k, const float* v) {
  const KVLayout& lo = cache_->layout();
  store_kv(region_.data(), lo, capacity_tokens_, layer, head, pos, k, v);
  if (layer == 0 && head == 0) {
    ++cached_;
    auto& st = cache_->mutable_stats();
    ++st.appends;
    note_used(st, lo.logical_bytes_per_token());
  }
}

void NaiveSequenceKV::runs(int64_t layer, int64_t head, int64_t len,
                           std::vector<kernels::KVRun>& out) const {
  out.assign(1, slice_run(region_.data(), cache_->layout(), capacity_tokens_,
                          layer, head, len));
}

}  // namespace

std::unique_ptr<KVCache> make_paged_kv_cache(const KVLayout& layout,
                                             int64_t budget_tokens) {
  return std::make_unique<PagedKVCache>(layout, budget_tokens);
}

std::unique_ptr<KVCache> make_naive_kv_cache(const KVLayout& layout,
                                             int64_t budget_tokens) {
  return std::make_unique<NaiveKVCache>(layout, budget_tokens);
}

}  // namespace mls::serve
