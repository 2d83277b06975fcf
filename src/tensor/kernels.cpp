#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "core/env.h"

namespace mls::kernels {

namespace {

// Register tile: MR rows of C, NR columns. NR is the vector dimension
// (contiguous in the packed B panel and in C), so the compiler keeps
// acc[][] in vector registers and forms one FMA per lane per k step.
// 6 x 16 fits AVX2's 16 ymm registers (12 accumulators + B loads + the
// A broadcast) and divides evenly into the cache blocks below.
constexpr int64_t MR = 6;
constexpr int64_t NR = 16;
// Cache blocking: the packed A block (MC x KC floats, ~96 KiB) targets
// L2; the packed B panel (KC x NC, ~512 KiB) targets L3/L2. All are
// multiples of the register tile.
constexpr int64_t MC = 96;
constexpr int64_t KC = 256;
constexpr int64_t NC = 512;

// Below this many multiply-adds a GEMM is not worth fanning out to the
// worker pool (even a spin wake would dominate).
constexpr int64_t kParallelGrain = int64_t{1} << 18;
// Elementwise grain for the fused epilogues, GeLU and dropout (a few
// ns per element, so the bar is lower than the GEMM's).
constexpr int64_t kElemGrain = int64_t{1} << 14;
// Matches the MLS_KERNEL_THREADS clamp.
constexpr int kMaxSlots = 64;

int hardware_cores() {
  static const int n =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return n;
}

// ------------------------------------------------------- rank binding
thread_local RankBinding t_binding;

// [lo, lo+n): the core slice MLS_KERNEL_PIN carves out for a rank.
struct CoreSlice {
  int lo = 0;
  int n = 1;
};

CoreSlice rank_slice(RankBinding b) {
  const int cores = hardware_cores();
  const int world = std::max(1, b.world);
  const int rank = std::clamp(b.rank, 0, world - 1);
  if (world >= cores) return {rank % cores, 1};
  const int lo = rank * cores / world;
  const int hi = std::max(lo + 1, (rank + 1) * cores / world);
  return {lo, hi - lo};
}

// Pins the calling thread to its rank's slice (which == -1) or to one
// core of it (which >= 0, wrapped). Cached so repeated applications of
// an unchanged binding cost one comparison, no syscall.
void apply_pin(RankBinding b, int which) {
  struct Applied {
    int rank = -1, world = -1, which = -2;
  };
  thread_local Applied last;
  if (last.rank == b.rank && last.world == b.world && last.which == which)
    return;
  last = {b.rank, b.world, which};
#ifdef __linux__
  const CoreSlice s = rank_slice(b);
  cpu_set_t set;
  CPU_ZERO(&set);
  if (which >= 0) {
    CPU_SET(static_cast<unsigned>(s.lo + which % s.n), &set);
  } else {
    for (int i = 0; i < s.n; ++i)
      CPU_SET(static_cast<unsigned>(s.lo + i), &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)b;
  (void)which;
#endif
}

// ------------------------------------------------------------- packing
// Per-thread packing scratch: the submitting thread and every
// persistent worker own their panels outright, reused across calls —
// packing never contends and never reallocates in steady state.
thread_local std::vector<float> tl_pack_a;
thread_local std::vector<float> tl_pack_b;

// Packs one NR-wide column panel of B[0:kc, jr:jr+nr] (logical, after
// trans) into panel[kk*NR + j]. Columns beyond nr are zero-filled so
// the micro-kernel never branches on the n edge.
void pack_b_panel(const float* b, float* panel, int64_t kc, int64_t nr,
                  int64_t rs_b, int64_t cs_b) {
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* src = b + kk * rs_b;
    float* dst = panel + kk * NR;
    if (cs_b == 1) {
      for (int64_t j = 0; j < nr; ++j) dst[j] = src[j];
    } else {
      for (int64_t j = 0; j < nr; ++j) dst[j] = src[j * cs_b];
    }
    for (int64_t j = nr; j < NR; ++j) dst[j] = 0.0f;
  }
}

// Packs B[pc:pc+kc, jc:jc+nc] (logical, after trans) into NR-wide
// column panels: bp[(jr/NR) * kc*NR + kk*NR + j].
void pack_b(const float* b, float* bp, int64_t kc, int64_t nc, int64_t rs_b,
            int64_t cs_b) {
  for (int64_t jr = 0; jr < nc; jr += NR) {
    pack_b_panel(b + jr * cs_b, bp + (jr / NR) * kc * NR, kc,
                 std::min(NR, nc - jr), rs_b, cs_b);
  }
}

// Packs A[ic:ic+mc, pc:pc+kc] (logical, after trans) into MR-tall row
// panels: ap[(ir/MR) * kc*MR + kk*MR + i], zero-padding the m edge.
void pack_a(const float* a, float* ap, int64_t mc, int64_t kc, int64_t rs_a,
            int64_t cs_a) {
  for (int64_t ir = 0; ir < mc; ir += MR) {
    const int64_t mr = std::min(MR, mc - ir);
    float* panel = ap + (ir / MR) * kc * MR;
    for (int64_t kk = 0; kk < kc; ++kk) {
      const float* src = a + ir * rs_a + kk * cs_a;
      float* dst = panel + kk * MR;
      for (int64_t i = 0; i < mr; ++i) dst[i] = src[i * rs_a];
      for (int64_t i = mr; i < MR; ++i) dst[i] = 0.0f;
    }
  }
}

// a * b + c. Every multiply-add in this file is spelled with madd so
// that no product feeds an addition implicitly: otherwise the
// compiler's FMA contraction choice may differ between a loop's vector
// body and its scalar tail (or between a vectorized and a scalar loop,
// as in a sanitizer build), and which of the two an element lands in
// depends on where its row, tile or thread's chunk ends. Chains that
// must agree bitwise across kernels (the GEMMs and decode attention)
// rely on it. On FMA targets it is one fused rounding; elsewhere no
// contraction exists to differ.
inline float madd(float a, float b, float c) {
#ifdef __FMA__
  return __builtin_fmaf(a, b, c);
#else
  return a * b + c;
#endif
}

// --------------------------------------------------------- micro-kernel
// C[MR x NR] tile from packed panels. The k-step body is written with
// the j loop outermost and the MR row updates unrolled by hand inside
// it: that makes j the axis the compiler vectorizes (NR contiguous
// floats -> full-width FMAs) and lets it promote all MR accumulator
// rows to vector registers. The natural i-over-j nesting reads the
// same, but GCC vectorizes the *i* axis of it (4-lane broadcasts, acc
// spilled to the stack) and runs ~50x slower. Zero-padded panels mean
// every tile runs the full MR x NR body; only the write-back respects
// the true edge, so each output element's k-reduction order is
// identical on and off the edge.
void micro_kernel(const float* ap, const float* bp, float* c, int64_t ldc,
                  int64_t kc, int64_t mr, int64_t nr, bool accumulate) {
  static_assert(MR == 6, "row updates below are unrolled for MR == 6");
  float acc[MR][NR] = {};
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* a = ap + kk * MR;
    const float* b = bp + kk * NR;
    for (int64_t j = 0; j < NR; ++j) {
      acc[0][j] = madd(a[0], b[j], acc[0][j]);
      acc[1][j] = madd(a[1], b[j], acc[1][j]);
      acc[2][j] = madd(a[2], b[j], acc[2][j]);
      acc[3][j] = madd(a[3], b[j], acc[3][j]);
      acc[4][j] = madd(a[4], b[j], acc[4][j]);
      acc[5][j] = madd(a[5], b[j], acc[5][j]);
    }
  }
  if (accumulate) {
    for (int64_t i = 0; i < mr; ++i) {
      float* crow = c + i * ldc;
      for (int64_t j = 0; j < nr; ++j) crow[j] += acc[i][j];
    }
  } else {
    for (int64_t i = 0; i < mr; ++i) {
      float* crow = c + i * ldc;
      for (int64_t j = 0; j < nr; ++j) crow[j] = acc[i][j];
    }
  }
}

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

// The parsed MLS_KERNEL_* knobs. Every gemm/bmm/parallel epilogue reads
// them, so each thread keeps its own copy and re-reads core::Env (a
// locked map lookup + getenv per knob) only when Env::set/clear has
// bumped the override generation since the last read.
struct Knobs {
  uint64_t generation = ~uint64_t{0};  // no live generation: read first
  int64_t threads = 0;                 // MLS_KERNEL_THREADS; 0 = default
  bool reference = false;
  bool pin = false;
  int spin_us = 0;
};
thread_local Knobs t_knobs;

const Knobs& knobs() {
  const uint64_t gen = core::Env::generation();  // lint:allow(hot-env)
  if (t_knobs.generation == gen) return t_knobs;
  // Parse into a local first: an unparsable value throws and leaves the
  // cache stale, so the next call throws again.
  Knobs k;
  k.threads =
      core::Env::integer("MLS_KERNEL_THREADS", 0);  // lint:allow(hot-env)
  k.reference =
      core::Env::flag("MLS_KERNEL_REF", false);  // lint:allow(hot-env)
  k.pin = core::Env::flag("MLS_KERNEL_PIN", false);  // lint:allow(hot-env)
  const int64_t spin_def = hardware_cores() > 1 ? 100 : 0;
  const int64_t spin = core::Env::integer(  // lint:allow(hot-env)
      "MLS_KERNEL_SPIN_US", spin_def);
  k.spin_us = static_cast<int>(std::clamp<int64_t>(spin, 0, 1000000));
  k.generation = gen;
  t_knobs = k;
  return t_knobs;
}

}  // namespace

int threads() {
  const int64_t t = knobs().threads;
  if (t > 0) return static_cast<int>(std::min<int64_t>(t, kMaxSlots));
  const int world = std::max(1, t_binding.world);
  return std::clamp(hardware_cores() / world, 1, kMaxSlots);
}

bool use_reference() { return knobs().reference; }

bool pin_enabled() { return knobs().pin; }

int spin_us() { return knobs().spin_us; }

void bind_rank(int rank, int world) {
  t_binding = {rank, std::max(1, world)};
  if (pin_enabled()) apply_pin(t_binding, /*which=*/-1);
}

RankBinding rank_binding() { return t_binding; }

BindGuard::BindGuard(RankBinding b) : prev_(t_binding) {
  t_binding = {b.rank, std::max(1, b.world)};
  if (pin_enabled()) apply_pin(t_binding, /*which=*/-1);
}

BindGuard::~BindGuard() { t_binding = prev_; }

void gemm_blocked(const float* a, const float* b, float* c, int64_t m,
                  int64_t n, int64_t k, bool trans_a, bool trans_b,
                  int64_t lda, int64_t ldb, int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    for (int64_t i = 0; i < m; ++i)
      std::memset(c + i * ldc, 0, sizeof(float) * static_cast<size_t>(n));
    return;
  }
  // Row/column strides of the *logical* [m,k] and [k,n] operands.
  const int64_t rs_a = trans_a ? 1 : lda;
  const int64_t cs_a = trans_a ? lda : 1;
  const int64_t rs_b = trans_b ? 1 : ldb;
  const int64_t cs_b = trans_b ? ldb : 1;

  tl_pack_a.resize(static_cast<size_t>(MC * KC));
  tl_pack_b.resize(static_cast<size_t>(KC * NC));
  float* ap = tl_pack_a.data();
  float* bp = tl_pack_b.data();

  for (int64_t jc = 0; jc < n; jc += NC) {
    const int64_t nc = std::min(NC, n - jc);
    for (int64_t pc = 0; pc < k; pc += KC) {
      const int64_t kc = std::min(KC, k - pc);
      // beta=0: the first k-panel writes C, later panels accumulate.
      const bool accumulate = pc > 0;
      pack_b(b + pc * rs_b + jc * cs_b, bp, kc, nc, rs_b, cs_b);
      for (int64_t ic = 0; ic < m; ic += MC) {
        const int64_t mc = std::min(MC, m - ic);
        pack_a(a + ic * rs_a + pc * cs_a, ap, mc, kc, rs_a, cs_a);
        for (int64_t jr = 0; jr < nc; jr += NR) {
          const int64_t nr = std::min(NR, nc - jr);
          const float* bpanel = bp + (jr / NR) * kc * NR;
          for (int64_t ir = 0; ir < mc; ir += MR) {
            const int64_t mr = std::min(MR, mc - ir);
            micro_kernel(ap + (ir / MR) * kc * MR, bpanel,
                         c + (ic + ir) * ldc + jc + jr, ldc, kc, mr, nr,
                         accumulate);
          }
        }
      }
    }
  }
}

void gemm_ref(const float* a, const float* b, float* c, int64_t m, int64_t n,
              int64_t k, bool trans_a, bool trans_b) {
  auto A = [&](int64_t i, int64_t kk) {
    return trans_a ? a[kk * m + i] : a[i * k + kk];
  };
  if (!trans_b) {
    // i-k-j saxpy order; C row zeroed up front (beta = 0). The zero
    // operand is NOT skipped: a data-dependent branch here made kernel
    // timing depend on the values, skewing bench_table4/bench_overlap.
    for (int64_t i = 0; i < m; ++i) {
      float* crow = c + i * n;
      std::memset(crow, 0, sizeof(float) * static_cast<size_t>(n));
      for (int64_t kk = 0; kk < k; ++kk) {
        const float av = A(i, kk);
        const float* brow = b + kk * n;
        for (int64_t j = 0; j < n; ++j) crow[j] = madd(av, brow[j], crow[j]);
      }
    }
  } else {
    // B is [n, k]; dot rows of A with rows of B (double accumulator,
    // preserved from the seed kernel for A/B comparability).
    for (int64_t i = 0; i < m; ++i) {
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        double acc = 0.0;
        for (int64_t kk = 0; kk < k; ++kk) acc += A(i, kk) * brow[kk];
        crow[j] = static_cast<float>(acc);
      }
    }
  }
}

// ---------------------------------------------------------- worker pool
namespace {

int64_t ceil_div(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Spins with pause, yielding periodically so oversubscribed hosts (the
// 1-core CI container, nested rank x worker tests) still make progress.
template <typename Pred>
void spin_until(const Pred& pred) {
  int iter = 0;
  while (!pred()) {
    cpu_pause();
    if ((++iter & 0x3f) == 0) std::this_thread::yield();
  }
}

// Spin for roughly `budget_us`, checking pred; returns pred's value.
template <typename Pred>
bool spin_for(const Pred& pred, int budget_us) {
  if (budget_us <= 0) return pred();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(budget_us);
  int iter = 0;
  for (;;) {
    if (pred()) return true;
    cpu_pause();
    if ((++iter & 0x3f) == 0) {
      std::this_thread::yield();
      if (std::chrono::steady_clock::now() >= deadline) return pred();
    }
  }
}

// Sense-reversing spin barrier for the cooperative GEMM's pack/compute
// phases. Participants are the job's active slots only; phases are
// microseconds long, so waiting spins (with yields) and never parks.
class SpinBarrier {
 public:
  void reset(int n) {
    n_ = n;
    count_.store(n, std::memory_order_relaxed);
    phase_.store(0, std::memory_order_relaxed);
  }

  void wait() {
    const uint64_t phase = phase_.load(std::memory_order_acquire);
    if (count_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      count_.store(n_, std::memory_order_relaxed);
      phase_.store(phase + 1, std::memory_order_release);
    } else {
      spin_until([&] {
        return phase_.load(std::memory_order_acquire) != phase;
      });
    }
  }

 private:
  std::atomic<uint64_t> phase_{0};
  std::atomic<int> count_{0};
  int n_ = 0;
};

// Marks pool worker threads so a re-entrant run() (which would
// deadlock) degrades to inline execution instead.
thread_local bool t_in_pool_worker = false;

// A persistent per-caller-thread worker pool. Each thread that issues
// parallel kernels (each simulated rank, each comm-stream worker) owns
// its workers outright: no cross-rank queue contention, and the pool is
// torn down by the thread_local destructor when the owning thread exits
// (including poisoned-world unwinds).
//
// Dispatch protocol: the owner publishes a job by bumping seq_ (one
// release-ordered increment); workers spin on seq_ for spin_us, then
// park on a condition variable. Every worker consumes every job in
// strict sequence (seq_ can only be one ahead of a worker's last
// consumed job, because the owner waits for all workers before
// publishing the next one) — that is what makes the unsynchronized job
// fields race-free: they are stable from the seq_ publish until the
// last done_ increment. Workers whose slot index is beyond the job's
// nslots just acknowledge and go back to waiting.
class WorkerPool {
 public:
  static WorkerPool& local() {
    thread_local WorkerPool pool;
    return pool;
  }

  ~WorkerPool() {
    stop_.store(true, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> lock(mu_);
      cv_.notify_all();
    }
    for (auto& w : workers_) w.thread.join();
  }

  // Runs fn(0..nslots-1), the caller executing slot 0; returns when
  // every slot completed. fn may call barrier() as long as every one
  // of the nslots slots reaches the same barrier sequence (the
  // cooperative GEMM below does; fn must not throw between barriers).
  void run(int nslots, const std::function<void(int)>& fn) {
    nslots = std::min(nslots, kMaxSlots);
    if (nslots <= 1 || t_in_pool_worker) {
      fn(0);
      return;
    }
    spawn(nslots - 1);
    const int nworkers = static_cast<int>(workers_.size());
    job_fn_ = &fn;
    job_nslots_ = nslots;
    job_binding_ = t_binding;
    job_pin_ = pin_enabled();
    job_spin_us_ = spin_us();
    barrier_.reset(nslots);
    done_.store(0, std::memory_order_relaxed);
    first_error_ = nullptr;
    ++jobs_;
    seq_.fetch_add(1, std::memory_order_seq_cst);
    // Dekker pairing with the workers' parked_ increment: publish seq_
    // first, then look at parked_; a worker that missed the publish is
    // guaranteed visible here (and vice versa), so no lost wakeup.
    if (parked_.load(std::memory_order_seq_cst) > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      cv_.notify_all();
    }
    try {
      fn(0);
    } catch (...) {
      // Kernels do not throw; this keeps a misbehaving barrier-free
      // job from abandoning the workers mid-protocol.
      if (!first_error_) first_error_ = std::current_exception();
    }
    // Wait for every worker (participant or not) to acknowledge.
    auto all_done = [&] {
      return done_.load(std::memory_order_acquire) == nworkers;
    };
    if (!spin_for(all_done, job_spin_us_)) {
      done_waiter_.fetch_add(1, std::memory_order_seq_cst);
      {
        std::unique_lock<std::mutex> lock(done_mu_);
        done_cv_.wait(lock, all_done);
      }
      done_waiter_.fetch_sub(1, std::memory_order_relaxed);
    }
    job_fn_ = nullptr;
    if (first_error_) std::rethrow_exception(first_error_);
  }

  void barrier() { barrier_.wait(); }

  // Shared packed-B panel for the cooperative GEMM (packed once per
  // (jc, pc) cache block, read-only for all slots after the barrier).
  // Only the pool owner may call this (it resizes), and only outside
  // run() — workers receive the stable data pointer via the job.
  float* shared_b() {
    shared_b_.resize(static_cast<size_t>(KC * NC));
    return shared_b_.data();
  }

  PoolStats stats() const {
    return {static_cast<int>(workers_.size()), jobs_};
  }

 private:
  struct Worker {
    std::thread thread;
  };

  void spawn(int nworkers) {
    while (static_cast<int>(workers_.size()) < nworkers) {
      const int index = static_cast<int>(workers_.size());
      // A freshly spawned worker starts at the current seq_ so it can
      // never consume a job published before it existed (spawn happens
      // in run(), strictly before the new job is published).
      const uint64_t start_seq = seq_.load(std::memory_order_relaxed);
      workers_.push_back(
          {std::thread([this, index, start_seq] { worker_loop(index, start_seq); })});
    }
  }

  void worker_loop(int index, uint64_t last) {
    t_in_pool_worker = true;
    // Spin budget used while waiting for the next job; refreshed from
    // each consumed job's env read (worker-local — workers must not
    // share it, they update it concurrently).
    int spin_budget_us = 0;
    for (;;) {
      auto next_job = [&] {
        return stop_.load(std::memory_order_acquire) ||
               seq_.load(std::memory_order_acquire) != last;
      };
      if (!spin_for(next_job, spin_budget_us)) {
        // Park: Dekker pairing with run()'s parked_ check (see above).
        parked_.fetch_add(1, std::memory_order_seq_cst);
        {
          std::unique_lock<std::mutex> lock(mu_);
          cv_.wait(lock, next_job);
        }
        parked_.fetch_sub(1, std::memory_order_relaxed);
      }
      if (stop_.load(std::memory_order_acquire)) return;
      ++last;  // == seq_: the owner publishes jobs one at a time
      spin_budget_us = job_spin_us_;
      if (job_pin_) apply_pin(job_binding_, /*which=*/1 + index);
      const int slot = 1 + index;
      if (slot < job_nslots_) {
        BindGuard bind(job_binding_);
        try {
          (*job_fn_)(slot);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu_);
          if (!first_error_) first_error_ = std::current_exception();
        }
      }
      done_.fetch_add(1, std::memory_order_seq_cst);
      if (done_waiter_.load(std::memory_order_seq_cst) > 0) {
        std::lock_guard<std::mutex> lock(done_mu_);
        done_cv_.notify_all();
      }
    }
  }

  // Job fields: written by the owner before the seq_ publish, stable
  // until every worker's done_ increment (see class comment).
  const std::function<void(int)>* job_fn_ = nullptr;
  int job_nslots_ = 0;
  RankBinding job_binding_;
  bool job_pin_ = false;
  int job_spin_us_ = 0;
  std::exception_ptr first_error_;

  std::atomic<uint64_t> seq_{0};
  std::atomic<int> done_{0};
  std::atomic<int> parked_{0};
  std::atomic<int> done_waiter_{0};
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  SpinBarrier barrier_;
  std::vector<Worker> workers_;
  std::vector<float> shared_b_;
  uint64_t jobs_ = 0;
};

// ------------------------------------------------- cooperative GEMM
// One blocked GEMM executed by nslots cooperating slots. Per (jc, pc)
// cache block the B panel is packed once — the jr sub-panels are
// round-robined over the slots — and shared read-only after a barrier.
// Then either:
//  * M-split (enough row tiles): each slot owns a contiguous
//    MR-aligned row range and streams whole MC x nc blocks over the
//    shared panel with its own packed A — no redundant packing at all;
//  * N-split (short matrices): each slot owns a contiguous NR-aligned
//    column range of the block and packs the (small) A itself.
// Both splits write disjoint C elements and never touch the k order,
// so results are bit-identical to the single-thread kernel and to each
// other at any slot count.
struct GemmShape {
  const float* a;
  const float* b;
  float* c;
  int64_t m, n, k;
  int64_t rs_a, cs_a, rs_b, cs_b, ldc;
};

void gemm_cooperative(const GemmShape& g, WorkerPool& pool, float* bp,
                      int slot, int nslots) {
  tl_pack_a.resize(static_cast<size_t>(MC * KC));
  float* ap = tl_pack_a.data();

  const bool split_m = g.m / MR >= nslots;
  // M-split: slot's MR-aligned row range, fixed across blocks.
  const int64_t m_chunk = ceil_div(ceil_div(g.m, nslots), MR) * MR;
  const int64_t i_begin = std::min<int64_t>(g.m, slot * m_chunk);
  const int64_t i_end = std::min<int64_t>(g.m, i_begin + m_chunk);

  for (int64_t jc = 0; jc < g.n; jc += NC) {
    const int64_t nc = std::min(NC, g.n - jc);
    // N-split: slot's NR-aligned column range within this block.
    const int64_t n_chunk = ceil_div(ceil_div(nc, nslots), NR) * NR;
    const int64_t j_begin = std::min<int64_t>(nc, slot * n_chunk);
    const int64_t j_end = std::min<int64_t>(nc, j_begin + n_chunk);
    for (int64_t pc = 0; pc < g.k; pc += KC) {
      const int64_t kc = std::min(KC, g.k - pc);
      const bool accumulate = pc > 0;
      // Phase 1: cooperative pack of the shared B panel (round-robin
      // over jr sub-panels so the work balances).
      const float* bblock = g.b + pc * g.rs_b + jc * g.cs_b;
      for (int64_t jr = slot * NR; jr < nc; jr += nslots * NR) {
        pack_b_panel(bblock + jr * g.cs_b, bp + (jr / NR) * kc * NR, kc,
                     std::min(NR, nc - jr), g.rs_b, g.cs_b);
      }
      pool.barrier();
      // Phase 2: micro-kernels over this slot's slab.
      if (split_m) {
        for (int64_t ic = i_begin; ic < i_end; ic += MC) {
          const int64_t mc = std::min(MC, i_end - ic);
          pack_a(g.a + ic * g.rs_a + pc * g.cs_a, ap, mc, kc, g.rs_a, g.cs_a);
          for (int64_t jr = 0; jr < nc; jr += NR) {
            const int64_t nr = std::min(NR, nc - jr);
            const float* bpanel = bp + (jr / NR) * kc * NR;
            for (int64_t ir = 0; ir < mc; ir += MR) {
              const int64_t mr = std::min(MR, mc - ir);
              micro_kernel(ap + (ir / MR) * kc * MR, bpanel,
                           g.c + (ic + ir) * g.ldc + jc + jr, g.ldc, kc, mr,
                           nr, accumulate);
            }
          }
        }
      } else if (j_begin < j_end) {
        for (int64_t ic = 0; ic < g.m; ic += MC) {
          const int64_t mc = std::min(MC, g.m - ic);
          pack_a(g.a + ic * g.rs_a + pc * g.cs_a, ap, mc, kc, g.rs_a, g.cs_a);
          for (int64_t jr = j_begin; jr < j_end; jr += NR) {
            const int64_t nr = std::min(NR, nc - jr);
            const float* bpanel = bp + (jr / NR) * kc * NR;
            for (int64_t ir = 0; ir < mc; ir += MR) {
              const int64_t mr = std::min(MR, mc - ir);
              micro_kernel(ap + (ir / MR) * kc * MR, bpanel,
                           g.c + (ic + ir) * g.ldc + jc + jr, g.ldc, kc, mr,
                           nr, accumulate);
            }
          }
        }
      }
      // The next (pc, jc) block overwrites the shared panel; every
      // reader must be past it first.
      pool.barrier();
    }
  }
}

}  // namespace

PoolStats local_pool_stats() { return WorkerPool::local().stats(); }

void gemm(const float* a, const float* b, float* c, int64_t m, int64_t n,
          int64_t k, bool trans_a, bool trans_b) {
  if (use_reference()) {
    gemm_ref(a, b, c, m, n, k, trans_a, trans_b);
    return;
  }
  const int64_t lda = trans_a ? m : k;
  const int64_t ldb = trans_b ? k : n;
  int nt = threads();
  if (nt > 1 && m * n * k < kParallelGrain) nt = 1;
  if (nt == 1) {
    gemm_blocked(a, b, c, m, n, k, trans_a, trans_b, lda, ldb, n);
    return;
  }
  const GemmShape shape{a,
                        b,
                        c,
                        m,
                        n,
                        k,
                        trans_a ? 1 : lda,
                        trans_a ? lda : 1,
                        trans_b ? 1 : ldb,
                        trans_b ? ldb : 1,
                        n};
  WorkerPool& pool = WorkerPool::local();
  // Size the shared panel on the owner, before publish: the pointer is
  // stable for the job's lifetime and workers never resize.
  float* bp = pool.shared_b();
  pool.run(nt, [&](int slot) { gemm_cooperative(shape, pool, bp, slot, nt); });
}

void bmm(const float* a, const float* b, float* c, int64_t nb, int64_t m,
         int64_t n, int64_t k, bool trans_a, bool trans_b) {
  const int64_t a_stride = m * k;
  const int64_t b_stride = k * n;
  const int64_t c_stride = m * n;
  if (use_reference()) {
    for (int64_t i = 0; i < nb; ++i) {
      gemm_ref(a + i * a_stride, b + i * b_stride, c + i * c_stride, m, n, k,
               trans_a, trans_b);
    }
    return;
  }
  if (nb == 1) {
    // A single batch still gets cooperative M/N parallelism via gemm().
    gemm(a, b, c, m, n, k, trans_a, trans_b);
    return;
  }
  const int64_t lda = trans_a ? m : k;
  const int64_t ldb = trans_b ? k : n;
  int nt = threads();
  if (nt > 1 && nb * m * n * k < kParallelGrain) nt = 1;
  if (nt == 1) {
    for (int64_t i = 0; i < nb; ++i) {
      gemm_blocked(a + i * a_stride, b + i * b_stride, c + i * c_stride, m, n,
                   k, trans_a, trans_b, lda, ldb, n);
    }
    return;
  }
  if (nb < nt) {
    // Too few batches to slab: run each batch cooperatively instead.
    for (int64_t i = 0; i < nb; ++i) {
      gemm(a + i * a_stride, b + i * b_stride, c + i * c_stride, m, n, k,
           trans_a, trans_b);
    }
    return;
  }
  // Batches are independent: contiguous batch slabs, one per slot, each
  // a serial blocked GEMM on the worker's own persistent pack buffers.
  const int64_t chunk = ceil_div(nb, nt);
  const int nslots = static_cast<int>(ceil_div(nb, chunk));
  WorkerPool::local().run(nslots, [&](int t) {
    const int64_t i0 = t * chunk;
    const int64_t i1 = std::min(nb, i0 + chunk);
    for (int64_t i = i0; i < i1; ++i) {
      gemm_blocked(a + i * a_stride, b + i * b_stride, c + i * c_stride, m, n,
                   k, trans_a, trans_b, lda, ldb, n);
    }
  });
}

// --------------------------------------------------- transcendental tier
namespace {

// See kernels.h for the contract. Both bodies are straight-line float
// arithmetic plus selects, so every loop that calls them vectorizes.
// Clamps compare with `>` / `<`, which are false for NaN: NaN passes
// through to the polynomial and out (std::min/max would swallow it).

inline float fast_tanh(float v) {
  // |tanh| is within 2.7e-7 of 1 from here on; the result is pinned to
  // exactly +-1 there by a select on v, so a constant-folded clamped
  // branch and the vector body agree.
  constexpr float kClamp = 7.90531110763549805f;
  float x = v > kClamp ? kClamp : v;
  x = x < -kClamp ? -kClamp : x;
  const float x2 = x * x;
  // Odd numerator, Horner in x^2.
  float p = -2.76076847742355e-16f;
  p = madd(p, x2, 2.00018790482477e-13f);
  p = madd(p, x2, -8.60467152213735e-11f);
  p = madd(p, x2, 5.12229709037114e-08f);
  p = madd(p, x2, 1.48572235717979e-05f);
  p = madd(p, x2, 6.37261928875436e-04f);
  p = madd(p, x2, 4.89352455891786e-03f);
  p = p * x;
  // Even denominator.
  float q = 1.19825839466702e-06f;
  q = madd(q, x2, 1.18534705686654e-04f);
  q = madd(q, x2, 2.26843463243900e-03f);
  q = madd(q, x2, 4.89352518554385e-03f);
  float t = p / q;
  t = v >= kClamp ? 1.0f : t;
  t = v <= -kClamp ? -1.0f : t;
  return t;
}

inline float fast_exp(float x) {
  constexpr float kHi = 88.3762626647949f;   // k = round(x log2 e) <= 127
  constexpr float kLo = -87.3365447505531f;  // ln(FLT_MIN): k >= -126
  constexpr float kLog2e = 1.44269504088896341f;
  // Cody-Waite split of ln 2: kLn2Hi has few enough mantissa bits that
  // k * kLn2Hi is exact for |k| <= 127.
  constexpr float kLn2Hi = 0.693359375f;
  constexpr float kLn2Lo = -2.12194440e-4f;
  // 1.5 * 2^23: adding it rounds to the nearest integer (ties to even)
  // and leaves that integer in the low mantissa bits.
  constexpr float kRound = 12582912.0f;
  float xc = x > kHi ? kHi : x;
  xc = xc < kLo ? kLo : xc;
  const float kb = madd(xc, kLog2e, kRound);
  const float kf = kb - kRound;
  float r = madd(-kf, kLn2Hi, xc);
  r = madd(-kf, kLn2Lo, r);
  // e^r = 1 + r + r^2 P(r) on |r| <= ln2/2.
  float p = 1.9875691500e-4f;
  p = madd(p, r, 1.3981999507e-3f);
  p = madd(p, r, 8.3334519073e-3f);
  p = madd(p, r, 4.1665795894e-2f);
  p = madd(p, r, 1.6666665459e-1f);
  p = madd(p, r, 5.0000001201e-1f);
  p = madd(p, r * r, r) + 1.0f;
  // 2^k from the integer bits of kb (unsigned: a NaN x gives a garbage
  // exponent, never UB, and the NaN in p wins the product).
  const uint32_t k =
      std::bit_cast<uint32_t>(kb) - std::bit_cast<uint32_t>(kRound);
  const float scale = std::bit_cast<float>((k + 127u) << 23);
  float e = p * scale;
  e = x < kLo ? 0.0f : e;
  e = x > kHi ? std::numeric_limits<float>::infinity() : e;
  return e;
}

// GeLU (tanh form) and its derivative: the one definition behind the
// fused epilogues and the composed ops::gelu / ops::gelu_grad.
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;

inline float gelu_value(float v) {
  const float u = kGeluC * madd(kGeluA * v * v, v, v);
  return 0.5f * v * (1.0f + fast_tanh(u));
}

inline float gelu_derivative(float v) {
  const float u = kGeluC * madd(kGeluA * v * v, v, v);
  const float t = fast_tanh(u);
  const float dudv = kGeluC * madd(3.0f * kGeluA * v, v, 1.0f);
  const float sech2 = madd(-t, t, 1.0f);
  return madd(0.5f * v * sech2, dudv, 0.5f * (1.0f + t));
}

// splitmix64 finalizer: a high-quality stateless hash of a 64-bit key.
inline uint64_t hash64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

void tanh_approx(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = fast_tanh(x[i]);
}

void exp_approx(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = fast_exp(x[i]);
}

// ------------------------------------------------------- fused epilogues
namespace {

// Row-range bodies shared by the serial and pooled paths, so the
// arithmetic (and therefore the bits) cannot diverge between them.

void bias_gelu_rows(const float* x, const float* bias, float* y, int64_t r0,
                    int64_t r1, int64_t h) {
  for (int64_t r = r0; r < r1; ++r) {
    const float* xr = x + r * h;
    float* yr = y + r * h;
    for (int64_t j = 0; j < h; ++j) yr[j] = gelu_value(xr[j] + bias[j]);
  }
}

// Column-range body: dbias[j] sums rows in increasing r within [j0,j1),
// exactly the composed sum_to_last_dim order — partitioning columns
// (never rows) is what keeps dbias bit-identical at any thread count.
void bias_gelu_grad_cols(const float* x, const float* bias, const float* dy,
                         float* dx, float* dbias, int64_t rows, int64_t h,
                         int64_t j0, int64_t j1) {
  std::memset(dbias + j0, 0, sizeof(float) * static_cast<size_t>(j1 - j0));
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * h;
    const float* gr = dy + r * h;
    float* dr = dx + r * h;
    for (int64_t j = j0; j < j1; ++j) {
      const float d = gr[j] * gelu_derivative(xr[j] + bias[j]);
      dr[j] = d;
      dbias[j] += d;
    }
  }
}

void scaled_softmax_rows(const float* x, float* y, int64_t r0, int64_t r1,
                         int64_t sq, int64_t sk, float alpha, bool causal) {
  for (int64_t r = r0; r < r1; ++r) {
    const float* in = x + r * sk;
    float* out = y + r * sk;
    const int64_t qi = causal ? (r % sq) : 0;
    const int64_t valid =
        causal ? std::min<int64_t>(sk, qi + 1 + (sk - sq)) : sk;
    float mx = -std::numeric_limits<float>::infinity();
    for (int64_t j = 0; j < valid; ++j) mx = std::max(mx, alpha * in[j]);
    // The exp sweep vectorizes; the double denominator stays its own
    // sequential loop so the summation order is the plain j order.
    for (int64_t j = 0; j < valid; ++j)
      out[j] = fast_exp(madd(alpha, in[j], -mx));
    double denom = 0.0;
    for (int64_t j = 0; j < valid; ++j) denom += out[j];
    const float inv = static_cast<float>(1.0 / denom);
    for (int64_t j = 0; j < valid; ++j) out[j] *= inv;
    for (int64_t j = valid; j < sk; ++j) out[j] = 0.0f;
  }
}

void scaled_softmax_grad_rows(const float* y, const float* dy, float* dx,
                              int64_t r0, int64_t r1, int64_t n, float alpha) {
  for (int64_t r = r0; r < r1; ++r) {
    const float* yr = y + r * n;
    const float* gr = dy + r * n;
    float* dr = dx + r * n;
    double dot = 0.0;
    for (int64_t j = 0; j < n; ++j) dot += yr[j] * gr[j];
    const float d = static_cast<float>(dot);
    for (int64_t j = 0; j < n; ++j) dr[j] = alpha * (yr[j] * (gr[j] - d));
  }
}

// Partitions [0, count) into pool slots (contiguous, align-rounded
// chunks) and runs body(begin, end) on each. Every element is handled
// by exactly one slot and per-element work is order-independent across
// slots, so the result is bit-identical at any thread count.
template <typename Body>
void parallel_ranges(int64_t count, int64_t total_elems, int64_t align,
                     const Body& body) {
  int nt = threads();
  if (nt > 1 && total_elems < kElemGrain) nt = 1;
  if (nt == 1 || count <= 1) {
    body(0, count);
    return;
  }
  const int64_t chunk = ceil_div(ceil_div(count, nt), align) * align;
  const int nslots = static_cast<int>(ceil_div(count, chunk));
  if (nslots <= 1) {
    body(0, count);
    return;
  }
  WorkerPool::local().run(nslots, [&](int slot) {
    const int64_t b = slot * chunk;
    const int64_t e = std::min(count, b + chunk);
    if (b < e) body(b, e);
  });
}

}  // namespace

void bias_gelu(const float* x, const float* bias, float* y, int64_t rows,
               int64_t h) {
  parallel_ranges(rows, rows * h, 1, [&](int64_t r0, int64_t r1) {
    bias_gelu_rows(x, bias, y, r0, r1, h);
  });
}

void bias_gelu_grad(const float* x, const float* bias, const float* dy,
                    float* dx, float* dbias, int64_t rows, int64_t h) {
  // Column partition (16-aligned against false sharing on dx rows).
  parallel_ranges(h, rows * h, 16, [&](int64_t j0, int64_t j1) {
    bias_gelu_grad_cols(x, bias, dy, dx, dbias, rows, h, j0, j1);
  });
}

void scaled_softmax(const float* x, float* y, int64_t rows, int64_t sq,
                    int64_t sk, float alpha, bool causal) {
  parallel_ranges(rows, rows * sk, 1, [&](int64_t r0, int64_t r1) {
    scaled_softmax_rows(x, y, r0, r1, sq, sk, alpha, causal);
  });
}

void scaled_softmax_grad(const float* y, const float* dy, float* dx,
                         int64_t rows, int64_t n, float alpha) {
  parallel_ranges(rows, rows * n, 1, [&](int64_t r0, int64_t r1) {
    scaled_softmax_grad_rows(y, dy, dx, r0, r1, n, alpha);
  });
}

void gelu(const float* x, float* y, int64_t n) {
  parallel_ranges(n, n, 16, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) y[i] = gelu_value(x[i]);
  });
}

void gelu_grad(const float* x, const float* dy, float* dx, int64_t n) {
  parallel_ranges(n, n, 16, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) dx[i] = dy[i] * gelu_derivative(x[i]);
  });
}

// ---------------------------------------------- paged decode attention
namespace {

// Runs tile.operator()<W>(i) over [0, n) in compile-time widths (32s,
// then at most one each of 16, 8 and 4, then single lanes), so every
// tile's accumulators are a fixed-size array the compiler keeps in
// vector registers.
template <typename Tile>
void fixed_tiles(int64_t n, const Tile& tile) {
  int64_t i = 0;
  for (; i + 32 <= n; i += 32) tile.template operator()<32>(i);
  if (i + 16 <= n) {
    tile.template operator()<16>(i);
    i += 16;
  }
  if (i + 8 <= n) {
    tile.template operator()<8>(i);
    i += 8;
  }
  if (i + 4 <= n) {
    tile.template operator()<4>(i);
    i += 4;
  }
  for (; i < n; ++i) tile.template operator()<1>(i);
}

}  // namespace

void decode_attention(const float* q, const KVRun* runs, int64_t nruns,
                      int64_t d, float alpha, float* scores, float* probs,
                      float* out) {
  const bool ref = use_reference();
  // Scores, one run at a time: s[j] = q · K[:, j].
  int64_t len = 0;
  for (int64_t r = 0; r < nruns; ++r) {
    const KVRun& run = runs[r];
    float* s = scores + len;
    len += run.rows;
    if (ref) {
      // gemm_ref's trans_b row dot: float products, double accumulator.
      for (int64_t j = 0; j < run.rows; ++j) {
        double acc = 0.0;
        for (int64_t c = 0; c < d; ++c) acc += q[c] * run.k[c * run.k_stride + j];
        s[j] = static_cast<float>(acc);
      }
      continue;
    }
    // The micro-kernel's order: a chain from 0 per KC panel of c, the
    // first panel written, later ones added.
    fixed_tiles(run.rows, [&]<int64_t W>(int64_t j0) {
      for (int64_t c0 = 0; c0 < d; c0 += KC) {
        const int64_t c1 = std::min(d, c0 + KC);
        float acc[W] = {};
        for (int64_t c = c0; c < c1; ++c) {
          const float qc = q[c];
          const float* kr = run.k + c * run.k_stride + j0;
          for (int64_t j = 0; j < W; ++j) acc[j] = madd(qc, kr[j], acc[j]);
        }
        for (int64_t j = 0; j < W; ++j)
          s[j0 + j] = c0 == 0 ? acc[j] : s[j0 + j] + acc[j];
      }
    });
  }
  scaled_softmax_rows(scores, probs, 0, 1, /*sq=*/1, len, alpha,
                      /*causal=*/true);
  // Context, one channel tile at a time: out[c] = Σ_p probs[p] V[p, c]
  // as one chain over absolute positions p across every run, flushed
  // into out at the GEMM's k-panel boundaries (none under gemm_ref).
  const int64_t panel = ref ? len : KC;
  fixed_tiles(d, [&]<int64_t W>(int64_t c0) {
    float acc[W] = {};
    bool written = false;
    const auto flush = [&] {
      for (int64_t c = 0; c < W; ++c) {
        out[c0 + c] = written ? out[c0 + c] + acc[c] : acc[c];
        acc[c] = 0.0f;
      }
      written = true;
    };
    int64_t p = 0, boundary = panel;
    for (int64_t r = 0; r < nruns; ++r) {
      const KVRun& run = runs[r];
      for (int64_t j = 0; j < run.rows; ++j, ++p) {
        if (p == boundary) {
          flush();
          boundary += panel;
        }
        const float pj = probs[p];
        const float* vr = run.v + j * d + c0;
        for (int64_t c = 0; c < W; ++c) acc[c] = madd(pj, vr[c], acc[c]);
      }
    }
    flush();
  });
}

// ------------------------------------------------------------- dropout
namespace {

// One innermost row, global indices gidx0 + j * stride. Two sweeps,
// each vectorizable: the 64-bit hash compare writes the mask, then a
// float-only select applies it (fused, the mixed-width select does
// not vectorize).
void dropout_row(const float* x, float* y, float* mask, int64_t n,
                 int64_t gidx0, int64_t stride, uint64_t seed,
                 uint64_t threshold, float inv_keep) {
  for (int64_t j = 0; j < n; ++j) {
    const auto gidx = static_cast<uint64_t>(gidx0 + j * stride);
    mask[j] = hash64(seed ^ gidx) >= threshold ? 1.0f : 0.0f;
  }
  for (int64_t j = 0; j < n; ++j)
    y[j] = mask[j] != 0.0f ? x[j] * inv_keep : 0.0f;
}

}  // namespace

void dropout(const float* x, float* y, float* mask, int nd,
             const int64_t* dims, const int64_t* strides, int64_t base,
             float p, uint64_t seed) {
  const float inv_keep = 1.0f / (1.0f - p);
  // keep iff hash(seed ^ gidx) / 2^64 >= p.
  const uint64_t threshold =
      static_cast<uint64_t>(p * 18446744073709551615.0);  // p * (2^64 - 1)
  // Rows are the innermost dimension; a 0-d tensor is one row of one.
  const int64_t inner = nd > 0 ? dims[nd - 1] : 1;
  const int64_t inner_stride = nd > 0 ? strides[nd - 1] : 0;
  int64_t rows = 1;
  for (int d = 0; d + 1 < nd; ++d) rows *= dims[d];
  if (inner <= 0 || rows <= 0) return;
  parallel_ranges(rows, rows * inner, 1, [&](int64_t r0, int64_t r1) {
    // Global index of row r0's first element: decode r0 over the outer
    // dims, then advance that odometer once per row.
    std::vector<int64_t> coord(static_cast<size_t>(std::max(nd - 1, 0)), 0);
    int64_t row_gidx = base;
    for (int64_t d = nd - 2, rem = r0; d >= 0; --d) {
      const auto du = static_cast<size_t>(d);
      coord[du] = rem % dims[d];
      rem /= dims[d];
      row_gidx += coord[du] * strides[d];
    }
    for (int64_t r = r0; r < r1; ++r) {
      dropout_row(x + r * inner, y + r * inner, mask + r * inner, inner,
                  row_gidx, inner_stride, seed, threshold, inv_keep);
      for (int d = nd - 2; d >= 0; --d) {
        const auto du = static_cast<size_t>(d);
        row_gidx += strides[d];
        if (++coord[du] < dims[d]) break;
        row_gidx -= strides[d] * dims[d];
        coord[du] = 0;
      }
    }
  });
}

void dropout_grad(const float* dy, const float* mask, float* dx, int64_t n,
                  float p) {
  const float inv_keep = 1.0f / (1.0f - p);
  parallel_ranges(n, n, 16, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) dx[i] = dy[i] * mask[i] * inv_keep;
  });
}

// ---------------------------------------------------- layout transposes

void sbh_to_bhsd(const float* x, float* y, int64_t s, int64_t b,
                 int64_t heads, int64_t d) {
  // y[(bi*heads+hi), si, :] = x[si, bi, hi*d : (hi+1)*d]. The d-row is
  // contiguous in both layouts; walk the output so writes stream.
  const int64_t x_row = b * heads * d;  // stride between si steps in x
  const size_t row_bytes = sizeof(float) * static_cast<size_t>(d);
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t hi = 0; hi < heads; ++hi) {
      const float* src = x + bi * heads * d + hi * d;
      float* dst = y + (bi * heads + hi) * s * d;
      for (int64_t si = 0; si < s; ++si) {
        std::memcpy(dst + si * d, src + si * x_row, row_bytes);
      }
    }
  }
}

void bhsd_to_sbh(const float* x, float* y, int64_t s, int64_t b,
                 int64_t heads, int64_t d) {
  const int64_t y_row = b * heads * d;
  const size_t row_bytes = sizeof(float) * static_cast<size_t>(d);
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t hi = 0; hi < heads; ++hi) {
      const float* src = x + (bi * heads + hi) * s * d;
      float* dst = y + bi * heads * d + hi * d;
      for (int64_t si = 0; si < s; ++si) {
        std::memcpy(dst + si * y_row, src + si * d, row_bytes);
      }
    }
  }
}

}  // namespace mls::kernels
