// Raw float kernels: the compute substrate under tensor/ops.h.
//
// Everything the simulator times — bench_table4 layer walls, bench_table5
// end-to-end, the overlap windows that hide selective-recompute replays —
// bottoms out here, so these kernels are written for throughput while
// keeping the determinism contract the rest of the system relies on:
//
//  * gemm() is a cache-blocked GEMM (BLIS-style jc/pc/ic/jr/ir loop nest)
//    with B- and A-panel packing and a register-tiled MR x NR micro-kernel
//    laid out so the compiler auto-vectorizes the NR dimension and forms
//    FMAs along k. No intrinsics; see src/CMakeLists.txt for the
//    per-file codegen flags.
//  * beta = 0 semantics: C is fully overwritten, never read before the
//    first write — callers pass Tensor::empty() storage and skip the
//    zeros() memset.
//  * Determinism: every output element C[i,j] is reduced over k in a
//    fixed order (register-accumulated kc-panels at fixed absolute k
//    boundaries, sequential within a panel). The order depends only on
//    k, never on tile position, m/n edges, or the thread count — so
//    results are bit-identical at any MLS_KERNEL_THREADS and invariant
//    under column sharding of B / row sharding of A outputs.
//  * Intra-op parallelism (MLS_KERNEL_THREADS, default: host cores
//    divided by the calling rank's world size) splits over M/N tiles
//    (or the batch dimension for bmm) ONLY — never the k reduction.
//    Workers are persistent per-caller-thread: they spin briefly for
//    the next kernel (MLS_KERNEL_SPIN_US), then park on a condition
//    variable, so the per-GEMM dispatch cost is a couple of atomic
//    stores, not a mutex handshake. Threaded GEMMs run cooperatively:
//    the B panel of each (jc, pc) cache block is packed once, shared
//    read-only, and the M dimension is slabbed across workers so each
//    streams whole MC x NC blocks with its own packed A panels. The
//    thread-per-rank substrate and runtime streams never contend on a
//    shared queue and teardown is per rank-thread.
//  * MLS_KERNEL_PIN=1 partitions the host cores across the simulated
//    ranks (spmd::run binds each rank thread, see bind_rank below):
//    rank r of W gets cores [rC/W, (r+1)C/W); its kernel workers pin
//    to distinct cores of the slice while the rank thread and its
//    comm-stream worker float over the whole slice. No rank ever
//    oversubscribes another's cores.
//  * MLS_KERNEL_REF=1 routes gemm()/bmm-shaped calls through gemm_ref(),
//    the pre-blocking scalar kernel (single-threaded), for A/B numeric
//    debugging. Blocked-vs-ref differ only by float reassociation of the
//    k sum (and the trans_b ref path's double accumulator); see
//    DESIGN.md "Kernel substrate" for the documented tolerances.
//
// The fused epilogues (bias+GeLU, scale-into-causal-softmax) fold the
// cheap elementwise passes the transformer layer always runs
// back-to-back into one sweep over the data.
//
// Transcendental tier. Every tanh and exp this library evaluates is one
// of two branch-free float approximations compiled only in kernels.cpp,
// so the fused epilogues and the composed ops:: forms share the same
// bits. They are plain float arithmetic (no libm call, no -ffast-math),
// so the element loops around them auto-vectorize; results are
// deterministic for a given build and bit-identical at any thread
// count. Clamps are written as comparisons that are false for NaN, so
// NaN in gives NaN out.
//  * tanh: odd/even rational minimax p(x)/q(x) of degree 13/6 (the
//    form of Eigen's generic_fast_tanh_float) for |x| < 7.9053111 and
//    exactly +-1 from there on (tanh(+-inf) = +-1). Absolute error
//    against double-precision tanh is below kTanhMaxAbsError on every
//    float input.
//  * exp: Cody-Waite reduction x = k ln2 + r (|r| <= ln2/2, ln2 split
//    into a short high part and a correction), a degree-7 polynomial
//    for e^r, and 2^k assembled from the exponent bits (std::bit_cast).
//    Relative error against double-precision exp is below
//    kExpMaxRelError for x in [ln(FLT_MIN), 88.376] = [-87.336, 88.376].
//    Below that range it returns 0 (libm returns denormals down to
//    -103.97); above it, +inf (libm overflows only above 88.723).
//    Softmax only evaluates x <= 0.
//  * GeLU uses the tanh form 0.5 v (1 + tanh(sqrt(2/pi)(v + 0.044715
//    v^3))) and its exact derivative, with the tanh above.
//  * Stateless dropout hashes each element's global index (splitmix64
//    finalizer, no transcendental); its masks are exact, not
//    approximate.
#pragma once

#include <cstdint>

namespace mls::kernels {

// The MLS_KERNEL_* knobs below are parsed once per thread and re-read
// only after core::Env::set/clear, so tests can still toggle them
// mid-process; a change to the real environment after the first kernel
// call is not seen.
//
// Intra-op worker threads for the calling thread's kernels.
// MLS_KERNEL_THREADS set to a positive value wins (clamped to [1, 64]);
// unset or 0 resolves the default on every call: host cores / the
// caller's bound world size (so W ranks on a C-core host get C/W
// workers each and never oversubscribe), at least 1.
int threads();
// MLS_KERNEL_REF — route GEMMs through the reference scalar kernel.
bool use_reference();
// MLS_KERNEL_PIN — pin rank threads / kernel workers to per-rank core
// slices (default off; Linux affinity, a no-op elsewhere).
bool pin_enabled();
// MLS_KERNEL_SPIN_US — microseconds a worker spins for the next kernel
// before parking (default 100 on multi-core hosts, 0 on 1-core).
int spin_us();

// ------------------------------------------------------- rank binding
// Which simulated rank the calling thread computes for, and how many
// ranks exist. spmd::run installs it on every rank thread; Comm::launch
// carries it onto comm-stream workers (BindGuard). It resolves the
// default thread count above and the MLS_KERNEL_PIN core slice.
struct RankBinding {
  int rank = 0;
  int world = 1;
};
// Sets the calling thread's binding; under MLS_KERNEL_PIN also pins
// the calling thread to its rank's core slice.
void bind_rank(int rank, int world);
RankBinding rank_binding();
// Scoped binding for worker threads executing on a rank's behalf.
class BindGuard {
 public:
  explicit BindGuard(RankBinding b);
  ~BindGuard();
  BindGuard(const BindGuard&) = delete;
  BindGuard& operator=(const BindGuard&) = delete;

 private:
  RankBinding prev_;
};

// Diagnostics for the calling thread's persistent worker pool.
struct PoolStats {
  int workers = 0;     // worker threads spawned (lifetime of the pool)
  uint64_t jobs = 0;   // parallel kernels dispatched through the pool
};
PoolStats local_pool_stats();

// ------------------------------------------------------------------ GEMM
// C[m,n] = op(A) @ op(B), beta = 0 (C need not be initialized).
// op(A) is [m,k]: stored row-major as A[m,k], or A[k,m] when trans_a.
// op(B) is [k,n]: stored row-major as B[k,n], or B[n,k] when trans_b.
// Dispatches to the blocked kernel (parallelized over M or N tiles when
// MLS_KERNEL_THREADS > 1 and the problem is large enough) or, under
// MLS_KERNEL_REF=1, to gemm_ref.
void gemm(const float* a, const float* b, float* c, int64_t m, int64_t n,
          int64_t k, bool trans_a = false, bool trans_b = false);

// The blocked kernel, bypassing env dispatch (for tests/bench).
// ldc is C's row stride (>= n), so threads can write disjoint column
// ranges of a shared C. lda/ldb are the *storage* row strides of A/B
// (i.e. of the buffer as laid out, before the logical transpose).
void gemm_blocked(const float* a, const float* b, float* c, int64_t m,
                  int64_t n, int64_t k, bool trans_a, bool trans_b,
                  int64_t lda, int64_t ldb, int64_t ldc);

// Reference scalar GEMM: the pre-blocking kernel (i-k-j saxpy loop for
// op(B) = B, row-dot with a double accumulator for trans_b), beta = 0,
// always single-threaded. Kept for A/B debugging and bitwise tests.
void gemm_ref(const float* a, const float* b, float* c, int64_t m, int64_t n,
              int64_t k, bool trans_a, bool trans_b);

// Batched GEMM over nb independent [m,k] @ [k,n] problems with
// contiguous batch strides; parallelized over the batch dimension.
void bmm(const float* a, const float* b, float* c, int64_t nb, int64_t m,
         int64_t n, int64_t k, bool trans_a, bool trans_b);

// --------------------------------------------------- transcendental tier
// Documented error bounds of the two approximations (see the header
// comment); test_kernels sweeps both against double precision.
inline constexpr double kTanhMaxAbsError = 5e-7;
inline constexpr double kExpMaxRelError = 2e-7;

// y[i] = tanh(x[i]) / exp(x[i]) with the library's approximations.
void tanh_approx(const float* x, float* y, int64_t n);
void exp_approx(const float* x, float* y, int64_t n);

// -------------------------------------------------------- fused epilogues
// y[i] = gelu(x[i]) and dx[i] = dy[i] * gelu'(x[i]): the composed
// ops::gelu / ops::gelu_grad. They share the per-element bodies of the
// fused forms below, so composed and fused paths agree bitwise.
void gelu(const float* x, float* y, int64_t n);
void gelu_grad(const float* x, const float* dy, float* dx, int64_t n);

// y[r,j] = gelu(x[r,j] + bias[j]) in one sweep (no bias-added
// intermediate is materialized).
void bias_gelu(const float* x, const float* bias, float* y, int64_t rows,
               int64_t h);
// dx[r,j] = dy[r,j] * gelu'(x[r,j] + bias[j]); dbias[j] = sum_r dx[r,j]
// (dbias is overwritten, rows summed in increasing-r order — the same
// order as the composed gelu_grad + sum_to_last_dim pair).
void bias_gelu_grad(const float* x, const float* bias, const float* dy,
                    float* dx, float* dbias, int64_t rows, int64_t h);

// Softmax over the last dimension of alpha * x, optionally causal: rows
// are the trailing [sq, sk] blocks; for row qi only the first
// qi + 1 + (sk - sq) entries are live, the rest are written as 0.
// Fuses the attention-score 1/sqrt(d) scaling into the max/exp sweep.
void scaled_softmax(const float* x, float* y, int64_t rows, int64_t sq,
                    int64_t sk, float alpha, bool causal);
// dx = alpha * y * (dy - sum_j y[j] dy[j]) — backward of the above
// given the forward *output* y.
void scaled_softmax_grad(const float* y, const float* dy, float* dx,
                         int64_t rows, int64_t n, float alpha);

// ---------------------------------------------- paged decode attention
// One contiguous run of cached positions of one (layer, head): `rows`
// positions whose keys are stored transposed, k[c * k_stride + j] for
// channel c of the run's position j (so a score sweep reads contiguous
// key lanes), and whose values are row-major, v[j * d + c].
struct KVRun {
  const float* k = nullptr;
  const float* v = nullptr;
  int64_t rows = 0;
  int64_t k_stride = 0;
};

// One decode row's attention for one head, read in place over the
// cached positions held in runs[0, nruns), in position order (len = the
// runs' total rows, >= 1):
//   out[0, d) = softmax_causal(alpha * q Kᵀ) V.
// scores and probs are len-float scratch (probs holds the softmax row
// on return). Bitwise equal to gathering K and V into contiguous
// [len, d] rows and composing gemm(q, K, trans_b) -> scaled_softmax on
// one causal [1, len] row -> gemm(probs, V), under either GEMM dispatch,
// because it keeps their per-element orders: each score is one chain
// over c = 0..d-1, each out[c] one chain over positions 0..len-1 across
// all runs (never a per-run partial sum). Blocked dispatch restarts a
// chain at the same fixed absolute k-panel boundaries as gemm();
// MLS_KERNEL_REF=1 follows gemm_ref (double-accumulated scores, one
// unpanelled chain per out[c]).
void decode_attention(const float* q, const KVRun* runs, int64_t nruns,
                      int64_t d, float alpha, float* scores, float* probs,
                      float* out);

// ------------------------------------------------------------- dropout
// Stateless inverted dropout over a local tensor of row-major shape
// dims[0..nd) whose element at local coordinate c has global index
// base + sum_d c[d] * strides[d] (ops::IndexMap). Element kept iff
// hash64(seed ^ global index) >= p * (2^64 - 1); mask is 1/0 and
// y = x / (1 - p) where kept, 0 where dropped. The keep decision is a
// pure function of (seed, global index), so masks are bit-identical
// under any sharding and any thread count.
void dropout(const float* x, float* y, float* mask, int nd,
             const int64_t* dims, const int64_t* strides, int64_t base,
             float p, uint64_t seed);
// dx = dy * mask / (1 - p).
void dropout_grad(const float* dy, const float* mask, float* dx, int64_t n,
                  float p);

// ------------------------------------------------------ layout transposes
// The two hot attention-layout transposes as blocked row copies (the
// inner d-sized row is contiguous in both layouts), replacing generic
// per-element permute coordinate arithmetic.
// x: [s, b, heads*d] -> y: [b*heads, s, d]
void sbh_to_bhsd(const float* x, float* y, int64_t s, int64_t b,
                 int64_t heads, int64_t d);
// x: [b*heads, s, d] -> y: [s, b, heads*d]
void bhsd_to_sbh(const float* x, float* y, int64_t s, int64_t b,
                 int64_t heads, int64_t d);

}  // namespace mls::kernels
