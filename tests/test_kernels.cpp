// Tests for the blocked kernel substrate (tensor/kernels.h):
//  * blocked GEMM vs the scalar reference across tile-straddling
//    shapes (1/7/17/64/130 hit every MR=6 / NR=16 edge case) and all
//    four transpose variants,
//  * bit-identical output at any MLS_KERNEL_THREADS (the library's
//    determinism contract: k-reduction order never depends on tile
//    position or thread count),
//  * beta=0 semantics — every element of C is written, so matmul may
//    run into uninitialized (NaN-canary) storage,
//  * fused epilogues (bias+GeLU, scale+softmax) vs their composed
//    equivalents at the ops and autograd levels,
//  * the transcendental tier's contract: tanh/exp error bounds against
//    double precision, NaN propagation and saturation,
//  * row-wise stateless dropout bitwise equal to the per-element
//    odometer it replaced, over sharded index maps,
//  * the specialized sbh<->bhsd layout transposes vs generic permute,
//  * an end-to-end t=2/p=2 training run: blocked path vs
//    MLS_KERNEL_REF=1, losses equal within the documented tolerance,
//    and bit-identical under MLS_KERNEL_THREADS=4.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "autograd/engine.h"
#include "autograd/functions.h"
#include "comm/spmd.h"
#include "common/memtracker.h"
#include "common/rng.h"
#include "core/env.h"
#include "optim/optim.h"
#include "pipeline/executor.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace mls {
namespace {

// RAII Env override so a failing EXPECT cannot leak the setting into
// later tests.
class ScopedEnv {
 public:
  ScopedEnv(std::string name, const std::string& value) : name_(std::move(name)) {
    core::Env::set(name_, value);
  }
  ~ScopedEnv() { core::Env::clear(name_); }

 private:
  std::string name_;
};

std::vector<float> random_vec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  Tensor t = Tensor::randn(Shape{{n}}, rng);
  std::memcpy(v.data(), t.data(), sizeof(float) * static_cast<size_t>(n));
  return v;
}

// Absolute tolerance for a length-k float dot product of randn values
// against the reference (which accumulates in a different order /
// precision). Scales linearly with k; catches any mis-indexed element
// (those are O(1) wrong, not O(k * eps)).
float dot_tol(int64_t k) { return 1e-5f + 5e-5f * static_cast<float>(k); }

// ------------------------------------------------- blocked vs reference

TEST(KernelGemm, BlockedMatchesReferenceAcrossShapesAndTrans) {
  const int64_t sizes[] = {1, 7, 17, 64, 130};
  for (int64_t m : sizes) {
    for (int64_t n : sizes) {
      for (int64_t k : sizes) {
        const std::vector<float> a = random_vec(m * k, 1000 + m * 31 + k);
        const std::vector<float> b = random_vec(k * n, 2000 + k * 31 + n);
        for (int ta = 0; ta < 2; ++ta) {
          for (int tb = 0; tb < 2; ++tb) {
            const bool trans_a = ta != 0;
            const bool trans_b = tb != 0;
            // Storage: A is [m,k] ([k,m] if trans_a), B is [k,n] ([n,k]
            // if trans_b); the flat buffers above serve either reading.
            const int64_t lda = trans_a ? m : k;
            const int64_t ldb = trans_b ? k : n;
            std::vector<float> c_ref(static_cast<size_t>(m * n), -42.0f);
            std::vector<float> c_blk(static_cast<size_t>(m * n), 42.0f);
            kernels::gemm_ref(a.data(), b.data(), c_ref.data(), m, n, k,
                              trans_a, trans_b);
            kernels::gemm_blocked(a.data(), b.data(), c_blk.data(), m, n, k,
                                  trans_a, trans_b, lda, ldb, n);
            for (int64_t i = 0; i < m * n; ++i) {
              ASSERT_NEAR(c_ref[static_cast<size_t>(i)],
                          c_blk[static_cast<size_t>(i)], dot_tol(k))
                  << "m=" << m << " n=" << n << " k=" << k
                  << " trans_a=" << trans_a << " trans_b=" << trans_b
                  << " elem=" << i;
            }
          }
        }
      }
    }
  }
}

TEST(KernelGemm, DispatcherHonorsReferenceFlag) {
  const int64_t m = 33, n = 29, k = 41;
  const std::vector<float> a = random_vec(m * k, 7);
  const std::vector<float> b = random_vec(k * n, 8);
  std::vector<float> c_ref(static_cast<size_t>(m * n));
  std::vector<float> c_env(static_cast<size_t>(m * n));
  kernels::gemm_ref(a.data(), b.data(), c_ref.data(), m, n, k, false, false);
  {
    ScopedEnv env("MLS_KERNEL_REF", "1");
    ASSERT_TRUE(kernels::use_reference());
    kernels::gemm(a.data(), b.data(), c_env.data(), m, n, k, false, false);
  }
  EXPECT_EQ(0, std::memcmp(c_ref.data(), c_env.data(),
                           sizeof(float) * c_ref.size()));
  ASSERT_FALSE(kernels::use_reference());
}

TEST(KernelKnobs, CachedPerThreadUntilEnvChanges) {
  // The knobs are cached per thread; every Env::set must still reach a
  // thread that cached the old value, and an unparsable value must keep
  // throwing rather than leave a stale value in the cache.
  ScopedEnv env("MLS_KERNEL_THREADS", "3");
  EXPECT_EQ(kernels::threads(), 3);  // cached on this thread
  int before = 0, after = 0;
  std::thread other([&] {
    before = kernels::threads();
    core::Env::set("MLS_KERNEL_THREADS", "5");
    after = kernels::threads();
  });
  other.join();
  EXPECT_EQ(before, 3);
  EXPECT_EQ(after, 5);
  EXPECT_EQ(kernels::threads(), 5);  // another thread's set invalidated it
  core::Env::set("MLS_KERNEL_THREADS", "four");
  EXPECT_THROW(kernels::threads(), Error);
  EXPECT_THROW(kernels::threads(), Error);
  core::Env::set("MLS_KERNEL_THREADS", "3");
  EXPECT_EQ(kernels::threads(), 3);
}

// -------------------------------------------- thread-count bit identity

TEST(KernelGemm, ThreadCountDoesNotChangeBits) {
  // Big enough to clear kParallelGrain so the pool actually engages;
  // m and n straddle tile boundaries (130 = 21*6+4, 97 = 6*16+1).
  const int64_t m = 130, n = 97, k = 256;
  const std::vector<float> a = random_vec(m * k, 11);
  const std::vector<float> b = random_vec(k * n, 12);
  for (int ta = 0; ta < 2; ++ta) {
    for (int tb = 0; tb < 2; ++tb) {
      const bool trans_a = ta != 0;
      const bool trans_b = tb != 0;
      std::vector<float> c1(static_cast<size_t>(m * n));
      kernels::gemm(a.data(), b.data(), c1.data(), m, n, k, trans_a, trans_b);
      for (const char* nt : {"2", "4", "7"}) {
        ScopedEnv env("MLS_KERNEL_THREADS", nt);
        ASSERT_GT(kernels::threads(), 1);
        std::vector<float> cn(static_cast<size_t>(m * n), -1.0f);
        kernels::gemm(a.data(), b.data(), cn.data(), m, n, k, trans_a,
                      trans_b);
        EXPECT_EQ(0,
                  std::memcmp(c1.data(), cn.data(), sizeof(float) * c1.size()))
            << "threads=" << nt << " trans_a=" << trans_a
            << " trans_b=" << trans_b;
      }
    }
  }
}

TEST(KernelGemm, BmmThreadCountDoesNotChangeBits) {
  const int64_t nb = 8, m = 33, n = 40, k = 64;  // nb*m*n*k > grain
  const std::vector<float> a = random_vec(nb * m * k, 21);
  const std::vector<float> b = random_vec(nb * k * n, 22);
  std::vector<float> c1(static_cast<size_t>(nb * m * n));
  kernels::bmm(a.data(), b.data(), c1.data(), nb, m, n, k, false, true);
  {
    ScopedEnv env("MLS_KERNEL_THREADS", "4");
    std::vector<float> c4(static_cast<size_t>(nb * m * n), -1.0f);
    kernels::bmm(a.data(), b.data(), c4.data(), nb, m, n, k, false, true);
    EXPECT_EQ(0, std::memcmp(c1.data(), c4.data(), sizeof(float) * c1.size()));
  }
}

TEST(KernelGemm, PinnedThreadCountsAreBitIdentical) {
  // The full satellite matrix: GEMM and bmm across 1/2/4/7 workers
  // *with core pinning enabled*, so the affinity path (rank slice
  // computation, per-worker pin) runs even on small hosts. Pinning may
  // serialize on few cores; it must never change bits.
  ScopedEnv pin("MLS_KERNEL_PIN", "1");
  const int64_t m = 130, n = 97, k = 256;
  const std::vector<float> a = random_vec(m * k, 71);
  const std::vector<float> b = random_vec(k * n, 72);
  std::vector<float> c1(static_cast<size_t>(m * n));
  {
    ScopedEnv env("MLS_KERNEL_THREADS", "1");
    kernels::gemm(a.data(), b.data(), c1.data(), m, n, k, false, false);
  }
  const int64_t nb = 8, bm = 33, bn = 40, bk = 64;
  const std::vector<float> ba = random_vec(nb * bm * bk, 73);
  const std::vector<float> bb = random_vec(nb * bk * bn, 74);
  std::vector<float> bc1(static_cast<size_t>(nb * bm * bn));
  {
    ScopedEnv env("MLS_KERNEL_THREADS", "1");
    kernels::bmm(ba.data(), bb.data(), bc1.data(), nb, bm, bn, bk, false,
                 true);
  }
  for (const char* nt : {"2", "4", "7"}) {
    ScopedEnv env("MLS_KERNEL_THREADS", nt);
    std::vector<float> cn(static_cast<size_t>(m * n), -1.0f);
    kernels::gemm(a.data(), b.data(), cn.data(), m, n, k, false, false);
    EXPECT_EQ(0, std::memcmp(c1.data(), cn.data(), sizeof(float) * c1.size()))
        << "gemm threads=" << nt;
    std::vector<float> bcn(static_cast<size_t>(nb * bm * bn), -1.0f);
    kernels::bmm(ba.data(), bb.data(), bcn.data(), nb, bm, bn, bk, false,
                 true);
    EXPECT_EQ(0,
              std::memcmp(bc1.data(), bcn.data(), sizeof(float) * bc1.size()))
        << "bmm threads=" << nt;
  }
}

TEST(KernelFused, PinnedThreadCountsAreBitIdenticalForEpilogues) {
  // Fused epilogues route through the same pool: row partitions for
  // bias_gelu / softmax(+grad), a *column* partition for
  // bias_gelu_grad (so each dbias[j] keeps the serial increasing-row
  // summation order). All must memcmp-match serial at every count.
  ScopedEnv pin("MLS_KERNEL_PIN", "1");
  const int64_t rows = 128, h = 256;  // rows*h clears kElemGrain
  const std::vector<float> x = random_vec(rows * h, 81);
  const std::vector<float> bias = random_vec(h, 82);
  const std::vector<float> dy = random_vec(rows * h, 83);
  const int64_t nbh = 8, sq = 64, sk = 64;  // softmax: [nbh, sq, sk]
  const std::vector<float> scores = random_vec(nbh * sq * sk, 84);
  // Dropout over a [rows, h] shard (columns [h, 2h)) of a [rows, 2h]
  // tensor: rows are decoded per slot from the odometer.
  const int64_t ddims[] = {rows, h};
  const int64_t dstrides[] = {2 * h, 1};
  auto run_dropout = [&](std::vector<float>& out, std::vector<float>& mask) {
    kernels::dropout(x.data(), out.data(), mask.data(), 2, ddims, dstrides,
                     /*base=*/h, 0.3f, /*seed=*/85);
  };

  std::vector<float> y1(x.size()), dx1(x.size()), db1(bias.size());
  std::vector<float> sm1(scores.size()), smg1(scores.size());
  std::vector<float> g1(x.size()), gg1(x.size());
  std::vector<float> do1(x.size()), dm1(x.size()), dg1(x.size());
  {
    ScopedEnv env("MLS_KERNEL_THREADS", "1");
    kernels::bias_gelu(x.data(), bias.data(), y1.data(), rows, h);
    kernels::bias_gelu_grad(x.data(), bias.data(), dy.data(), dx1.data(),
                            db1.data(), rows, h);
    kernels::scaled_softmax(scores.data(), sm1.data(), nbh * sq, sq, sk,
                            0.25f, /*causal=*/true);
    kernels::scaled_softmax_grad(sm1.data(), scores.data(), smg1.data(),
                                 nbh * sq, sk, 0.25f);
    kernels::gelu(x.data(), g1.data(), rows * h);
    kernels::gelu_grad(x.data(), dy.data(), gg1.data(), rows * h);
    run_dropout(do1, dm1);
    kernels::dropout_grad(dy.data(), dm1.data(), dg1.data(), rows * h, 0.3f);
  }
  for (const char* nt : {"2", "4", "7"}) {
    ScopedEnv env("MLS_KERNEL_THREADS", nt);
    std::vector<float> y(x.size(), -1.0f), dx(x.size(), -1.0f);
    std::vector<float> db(bias.size(), -1.0f);
    std::vector<float> sm(scores.size(), -1.0f), smg(scores.size(), -1.0f);
    std::vector<float> g(x.size(), -1.0f), gg(x.size(), -1.0f);
    std::vector<float> dout(x.size(), -1.0f), dm(x.size(), -1.0f);
    std::vector<float> dg(x.size(), -1.0f);
    kernels::bias_gelu(x.data(), bias.data(), y.data(), rows, h);
    kernels::bias_gelu_grad(x.data(), bias.data(), dy.data(), dx.data(),
                            db.data(), rows, h);
    kernels::scaled_softmax(scores.data(), sm.data(), nbh * sq, sq, sk, 0.25f,
                            /*causal=*/true);
    kernels::scaled_softmax_grad(sm.data(), scores.data(), smg.data(),
                                 nbh * sq, sk, 0.25f);
    kernels::gelu(x.data(), g.data(), rows * h);
    kernels::gelu_grad(x.data(), dy.data(), gg.data(), rows * h);
    run_dropout(dout, dm);
    kernels::dropout_grad(dy.data(), dm.data(), dg.data(), rows * h, 0.3f);
    EXPECT_EQ(0, std::memcmp(g1.data(), g.data(), sizeof(float) * g.size()))
        << "gelu threads=" << nt;
    EXPECT_EQ(0, std::memcmp(gg1.data(), gg.data(), sizeof(float) * gg.size()))
        << "gelu_grad threads=" << nt;
    EXPECT_EQ(0,
              std::memcmp(do1.data(), dout.data(), sizeof(float) * dout.size()))
        << "dropout y threads=" << nt;
    EXPECT_EQ(0, std::memcmp(dm1.data(), dm.data(), sizeof(float) * dm.size()))
        << "dropout mask threads=" << nt;
    EXPECT_EQ(0, std::memcmp(dg1.data(), dg.data(), sizeof(float) * dg.size()))
        << "dropout_grad threads=" << nt;
    EXPECT_EQ(0, std::memcmp(y1.data(), y.data(), sizeof(float) * y.size()))
        << "bias_gelu threads=" << nt;
    EXPECT_EQ(0, std::memcmp(dx1.data(), dx.data(), sizeof(float) * dx.size()))
        << "bias_gelu_grad dx threads=" << nt;
    EXPECT_EQ(0, std::memcmp(db1.data(), db.data(), sizeof(float) * db.size()))
        << "bias_gelu_grad dbias threads=" << nt;
    EXPECT_EQ(0, std::memcmp(sm1.data(), sm.data(), sizeof(float) * sm.size()))
        << "scaled_softmax threads=" << nt;
    EXPECT_EQ(0,
              std::memcmp(smg1.data(), smg.data(), sizeof(float) * smg.size()))
        << "scaled_softmax_grad threads=" << nt;
  }
}

TEST(KernelPool, WorkersPersistAcrossKernels) {
  // The tentpole claim: workers are spawned once and reused, not
  // created (or woken through a mutex handshake) per call. Snapshot
  // the pool after one threaded GEMM, run ten more, and check the
  // worker count did not move while the job count did.
  ScopedEnv env("MLS_KERNEL_THREADS", "4");
  const int64_t m = 130, n = 97, k = 256;
  const std::vector<float> a = random_vec(m * k, 91);
  const std::vector<float> b = random_vec(k * n, 92);
  std::vector<float> c(static_cast<size_t>(m * n));
  kernels::gemm(a.data(), b.data(), c.data(), m, n, k, false, false);
  const kernels::PoolStats before = kernels::local_pool_stats();
  ASSERT_GE(before.workers, 3);  // 4 slots = caller + >= 3 workers
  for (int i = 0; i < 10; ++i) {
    kernels::gemm(a.data(), b.data(), c.data(), m, n, k, false, false);
  }
  const kernels::PoolStats after = kernels::local_pool_stats();
  EXPECT_EQ(before.workers, after.workers);
  EXPECT_GE(after.jobs, before.jobs + 10);
}

TEST(KernelPool, TeardownSurvivesPoisonedWorldUnwind) {
  // A rank that throws mid-step unwinds its thread; the thread_local
  // pool destructor must stop and join that rank's workers without
  // deadlock, and later runs must come up clean.
  ScopedEnv env("MLS_KERNEL_THREADS", "4");
  const int64_t m = 130, n = 97, k = 256;
  const std::vector<float> a = random_vec(m * k, 95);
  const std::vector<float> b = random_vec(k * n, 96);
  EXPECT_THROW(
      spmd::run(2,
                [&](comm::Comm& c) {
                  std::vector<float> out(static_cast<size_t>(m * n));
                  kernels::gemm(a.data(), b.data(), out.data(), m, n, k,
                                false, false);
                  if (c.rank() == 1) throw std::runtime_error("injected");
                  c.barrier();  // strands rank 0 until the poison lands
                }),
      std::exception);
  // The world is gone; a fresh threaded run must still be correct.
  std::vector<float> c1(static_cast<size_t>(m * n));
  {
    ScopedEnv one("MLS_KERNEL_THREADS", "1");
    kernels::gemm(a.data(), b.data(), c1.data(), m, n, k, false, false);
  }
  std::vector<float> again(static_cast<size_t>(m * n), -1.0f);
  spmd::run(2, [&](comm::Comm& c) {
    std::vector<float> out(static_cast<size_t>(m * n));
    kernels::gemm(a.data(), b.data(), out.data(), m, n, k, false, false);
    if (c.rank() == 0) again = out;
  });
  EXPECT_EQ(0, std::memcmp(c1.data(), again.data(), sizeof(float) * c1.size()));
}

TEST(KernelPool, NestedRanksTimesThreadsIsBitIdenticalWithPin) {
  // t = 2 simulated ranks, 2 intra-op workers each, pinning on: each
  // rank thread binds itself (spmd::run), owns its own pool, and the
  // two pools' core slices partition the host instead of stacking.
  // Must not deadlock and must match the serial result bitwise.
  const int64_t m = 130, n = 97, k = 256;
  const std::vector<float> a = random_vec(m * k, 97);
  const std::vector<float> b = random_vec(k * n, 98);
  std::vector<float> serial(static_cast<size_t>(m * n));
  {
    ScopedEnv env("MLS_KERNEL_THREADS", "1");
    kernels::gemm(a.data(), b.data(), serial.data(), m, n, k, false, false);
  }
  ScopedEnv env("MLS_KERNEL_THREADS", "2");
  ScopedEnv pin("MLS_KERNEL_PIN", "1");
  std::vector<std::vector<float>> per_rank(2);
  spmd::run(2, [&](comm::Comm& c) {
    EXPECT_EQ(kernels::rank_binding().rank, c.rank());
    EXPECT_EQ(kernels::rank_binding().world, 2);
    std::vector<float> out(static_cast<size_t>(m * n), -1.0f);
    kernels::gemm(a.data(), b.data(), out.data(), m, n, k, false, false);
    c.barrier();
    per_rank[static_cast<size_t>(c.rank())] = std::move(out);
  });
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(0, std::memcmp(serial.data(),
                             per_rank[static_cast<size_t>(r)].data(),
                             sizeof(float) * serial.size()))
        << "rank " << r;
  }
}

// --------------------------------------------------- beta = 0 semantics

TEST(KernelGemm, Beta0OverwritesPoisonedOutput) {
  // The kernel must write every element of C (callers hand it
  // Tensor::empty — uninitialized pooled storage). Poison C with NaN:
  // any read-modify-write or skipped element survives as NaN.
  const int64_t sizes[] = {1, 7, 64, 130};
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (int64_t m : sizes) {
    for (int64_t n : sizes) {
      const int64_t k = 17;
      const std::vector<float> a = random_vec(m * k, 31);
      const std::vector<float> b = random_vec(k * n, 32);
      std::vector<float> c(static_cast<size_t>(m * n), nan);
      kernels::gemm(a.data(), b.data(), c.data(), m, n, k, false, false);
      for (float v : c) ASSERT_FALSE(std::isnan(v)) << "m=" << m << " n=" << n;
    }
  }
}

// ------------------------------------------------ matmul with 3-D lhs

TEST(KernelOps, MatmulTransAFlattensLeadingAxes) {
  // [s, b, h] with trans_a contracts over s*b: acts as [h, s*b] @ [s*b, n].
  Rng rng(41);
  const int64_t s = 5, b = 3, h = 8, n = 4;
  Tensor x = Tensor::randn(Shape{{s, b, h}}, rng);
  Tensor g = Tensor::randn(Shape{{s, b, n}}, rng);
  Tensor dw = ops::matmul(x, g.reshape(Shape{{s * b, n}}), /*trans_a=*/true);
  ASSERT_EQ(dw.dim(0), h);
  ASSERT_EQ(dw.dim(1), n);
  Tensor x2 = x.reshape(Shape{{s * b, h}});
  Tensor want = ops::matmul(x2, g.reshape(Shape{{s * b, n}}), /*trans_a=*/true);
  EXPECT_TRUE(dw.allclose(want, 0.f, 0.f));  // same kernel call; bitwise
}

// ------------------------------------------------------ fused epilogues

TEST(KernelFused, BiasGeluMatchesComposedOps) {
  Rng rng(51);
  const int64_t rows = 37, h = 65;
  Tensor x = Tensor::randn(Shape{{rows, h}}, rng);
  Tensor bias = Tensor::randn(Shape{{h}}, rng, 0.5f);
  Tensor fused = ops::bias_gelu(x, bias);
  Tensor composed = ops::gelu(ops::add_bias(x, bias));
  // One GeLU body, compiled once in kernels.cpp, and the bias add is a
  // single rounding either way: bitwise.
  EXPECT_EQ(0, std::memcmp(fused.data(), composed.data(),
                           sizeof(float) * static_cast<size_t>(fused.numel())));
}

TEST(KernelFused, BiasGeluGradMatchesComposedOps) {
  Rng rng(52);
  const int64_t rows = 37, h = 65;
  Tensor x = Tensor::randn(Shape{{rows, h}}, rng);
  Tensor bias = Tensor::randn(Shape{{h}}, rng, 0.5f);
  Tensor dy = Tensor::randn(Shape{{rows, h}}, rng);
  ops::BiasGeluGrads g = ops::bias_gelu_grad(x, bias, dy);
  Tensor dx_composed = ops::gelu_grad(ops::add_bias(x, bias), dy);
  Tensor dbias_composed = ops::sum_to_last_dim(dx_composed);
  EXPECT_EQ(0, std::memcmp(g.dx.data(), dx_composed.data(),
                           sizeof(float) * static_cast<size_t>(g.dx.numel())));
  EXPECT_TRUE(g.dbias.allclose(dbias_composed, 1e-4f, 1e-5f));
}

TEST(KernelFused, ScaledSoftmaxMatchesComposedOps) {
  Rng rng(53);
  const float alpha = 0.35f;
  Tensor x = Tensor::randn(Shape{{6, 17, 17}}, rng);
  for (bool causal : {false, true}) {
    Tensor fused = ops::scaled_softmax(x, alpha, causal);
    Tensor composed = ops::softmax_lastdim(ops::scale(x, alpha), causal);
    EXPECT_TRUE(fused.allclose(composed, 1e-5f, 1e-6f)) << "causal=" << causal;
  }
}

TEST(KernelFused, ScaledSoftmaxGradMatchesComposedOps) {
  Rng rng(54);
  const float alpha = 0.35f;
  Tensor x = Tensor::randn(Shape{{6, 17, 17}}, rng);
  Tensor dy = Tensor::randn(Shape{{6, 17, 17}}, rng);
  Tensor y = ops::scaled_softmax(x, alpha, /*causal=*/false);
  Tensor fused = ops::scaled_softmax_grad(y, dy, alpha);
  // d/dx softmax(alpha x) = alpha * softmax_grad evaluated at y.
  Tensor composed = ops::scale(ops::softmax_lastdim_grad(y, dy), alpha);
  EXPECT_TRUE(fused.allclose(composed, 1e-5f, 1e-6f));
}

TEST(KernelFused, AutogradBiasGeluMatchesComposedGraph) {
  Rng rng(55);
  const int64_t rows = 16, h = 24;
  Tensor xv = Tensor::randn(Shape{{rows, h}}, rng);
  Tensor bv = Tensor::randn(Shape{{h}}, rng, 0.5f);
  Tensor dy = Tensor::randn(Shape{{rows, h}}, rng);

  ag::Var x1(xv.clone(), true);
  ag::Var b1 = ag::Var::param(bv.clone(), "bias");
  ag::Var y1 = ag::bias_gelu(x1, b1);
  ag::backward(y1, dy);

  ag::Var x2(xv.clone(), true);
  ag::Var b2 = ag::Var::param(bv.clone(), "bias");
  ag::Var y2 = ag::gelu(ag::add_bias(x2, b2));
  ag::backward(y2, dy);

  EXPECT_TRUE(y1.value().allclose(y2.value(), 1e-5f, 1e-6f));
  EXPECT_TRUE(x1.grad().allclose(x2.grad(), 1e-5f, 1e-6f));
  EXPECT_TRUE(b1.grad().allclose(b2.grad(), 1e-4f, 1e-5f));
}

TEST(KernelFused, AutogradScaledSoftmaxMatchesComposedGraph) {
  Rng rng(56);
  const float alpha = 0.25f;
  Tensor xv = Tensor::randn(Shape{{4, 9, 9}}, rng);
  Tensor dy = Tensor::randn(Shape{{4, 9, 9}}, rng);
  for (bool causal : {false, true}) {
    ag::Var x1(xv.clone(), true);
    ag::Var y1 = ag::scaled_softmax(x1, alpha, causal);
    ag::backward(y1, dy);

    ag::Var x2(xv.clone(), true);
    ag::Var y2 = ag::softmax(ag::scale(x2, alpha), causal);
    ag::backward(y2, dy);

    EXPECT_TRUE(y1.value().allclose(y2.value(), 1e-5f, 1e-6f))
        << "causal=" << causal;
    EXPECT_TRUE(x1.grad().allclose(x2.grad(), 1e-5f, 1e-6f))
        << "causal=" << causal;
  }
}

TEST(KernelFused, FoldedTspInteriorsAreThreadCountInvariant) {
  // The folded-TSP fused autograd nodes (bias_gelu_matmul,
  // scaled_softmax_dropout_bmm) run their interiors through ops:: and
  // therefore through the worker pool. Forward values and every grad
  // must be bitwise identical at 1 vs 4 threads with pinning on —
  // including the backward recompute-from-saved-x passes.
  Rng rng(57);
  const int64_t rows = 256, h = 128, out = 112;
  Tensor xv = Tensor::randn(Shape{{rows, h}}, rng);
  Tensor bv = Tensor::randn(Shape{{h}}, rng, 0.5f);
  Tensor wv = Tensor::randn(Shape{{h, out}}, rng);
  Tensor dy = Tensor::randn(Shape{{rows, out}}, rng);
  const int64_t nbh = 8, sq = 64, sk = 64, d = 32;
  Tensor sv = Tensor::randn(Shape{{nbh, sq, sk}}, rng);
  Tensor vv = Tensor::randn(Shape{{nbh, sk, d}}, rng);
  Tensor sdy = Tensor::randn(Shape{{nbh, sq, d}}, rng);
  const auto map = ops::IndexMap::identity(sv.shape());

  struct Run {
    Tensor y, dx, dbias, dw, sy, dscores, dv;
  };
  auto run_once = [&]() {
    Run r;
    ag::Var x(xv.clone(), true);
    ag::Var bias = ag::Var::param(bv.clone(), "bias");
    ag::Var w = ag::Var::param(wv.clone(), "w");
    ag::Var y = ag::bias_gelu_matmul(x, bias, w);
    ag::backward(y, dy);
    r.y = y.value();
    r.dx = x.grad();
    r.dbias = bias.grad();
    r.dw = w.grad();
    ag::Var scores(sv.clone(), true);
    ag::Var v(vv.clone(), true);
    ag::Var sy = ag::scaled_softmax_dropout_bmm(scores, v, 0.25f,
                                                /*causal=*/true, 0.1f, 99,
                                                map);
    ag::backward(sy, sdy);
    r.sy = sy.value();
    r.dscores = scores.grad();
    r.dv = v.grad();
    return r;
  };

  Run one;
  {
    ScopedEnv env("MLS_KERNEL_THREADS", "1");
    one = run_once();
  }
  ScopedEnv env("MLS_KERNEL_THREADS", "4");
  ScopedEnv pin("MLS_KERNEL_PIN", "1");
  const Run four = run_once();
  auto same_bits = [](const Tensor& p, const Tensor& q) {
    return p.numel() == q.numel() &&
           std::memcmp(p.data(), q.data(),
                       sizeof(float) * static_cast<size_t>(p.numel())) == 0;
  };
  EXPECT_TRUE(same_bits(one.y, four.y));
  EXPECT_TRUE(same_bits(one.dx, four.dx));
  EXPECT_TRUE(same_bits(one.dbias, four.dbias));
  EXPECT_TRUE(same_bits(one.dw, four.dw));
  EXPECT_TRUE(same_bits(one.sy, four.sy));
  EXPECT_TRUE(same_bits(one.dscores, four.dscores));
  EXPECT_TRUE(same_bits(one.dv, four.dv));
}

// ------------------------------------------------ transcendental tier

// Evenly spaced float grid over [lo, hi], n points.
std::vector<float> grid(float lo, float hi, int64_t n) {
  std::vector<float> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    v[static_cast<size_t>(i)] = static_cast<float>(
        lo + (static_cast<double>(hi) - lo) * static_cast<double>(i) /
                 static_cast<double>(n - 1));
  }
  return v;
}

TEST(KernelApprox, TanhWithinDocumentedBoundOnDenseSweep) {
  const std::vector<float> x = grid(-12.0f, 12.0f, 2'000'001);
  std::vector<float> y(x.size());
  kernels::tanh_approx(x.data(), y.data(), static_cast<int64_t>(x.size()));
  double worst = 0.0;
  float worst_at = 0.0f;
  for (size_t i = 0; i < x.size(); ++i) {
    const double err = std::fabs(y[i] - std::tanh(static_cast<double>(x[i])));
    if (err > worst) {
      worst = err;
      worst_at = x[i];
    }
  }
  EXPECT_LE(worst, kernels::kTanhMaxAbsError) << "at x=" << worst_at;
  // Odd symmetry is exact (the rational is odd, the clamp symmetric).
  for (size_t i = 0; i < x.size(); ++i)
    ASSERT_EQ(y[i], -y[x.size() - 1 - i]) << "x=" << x[i];
}

TEST(KernelApprox, ExpWithinDocumentedBoundOnDenseSweep) {
  const std::vector<float> x = grid(-87.0f, 0.0f, 2'000'001);
  std::vector<float> y(x.size());
  kernels::exp_approx(x.data(), y.data(), static_cast<int64_t>(x.size()));
  double worst = 0.0;
  float worst_at = 0.0f;
  for (size_t i = 0; i < x.size(); ++i) {
    const double ref = std::exp(static_cast<double>(x[i]));
    const double err = std::fabs(y[i] - ref) / ref;
    if (err > worst) {
      worst = err;
      worst_at = x[i];
    }
  }
  EXPECT_LE(worst, kernels::kExpMaxRelError) << "at x=" << worst_at;
  const float zero = 0.0f;
  float e0 = -1.0f;
  kernels::exp_approx(&zero, &e0, 1);
  EXPECT_EQ(e0, 1.0f);
}

TEST(KernelApprox, SingleElementCallsMatchVectorSweepBitwise) {
  // A one-element call runs the loop's scalar tail, a long call its
  // vector body; where a row or a thread's chunk ends decides which
  // one an element gets, so the two must agree bit for bit.
  const std::vector<float> x = grid(-100.0f, 100.0f, 200'003);
  const int64_t n = static_cast<int64_t>(x.size());
  std::vector<float> ones(x.size(), 1.0f);
  std::vector<float> t(x.size()), e(x.size()), g(x.size()), gg(x.size());
  kernels::tanh_approx(x.data(), t.data(), n);
  kernels::exp_approx(x.data(), e.data(), n);
  kernels::gelu(x.data(), g.data(), n);
  kernels::gelu_grad(x.data(), ones.data(), gg.data(), n);
  for (size_t i = 0; i < x.size(); i += 7) {
    float t1, e1, g1, gg1;
    kernels::tanh_approx(&x[i], &t1, 1);
    kernels::exp_approx(&x[i], &e1, 1);
    kernels::gelu(&x[i], &g1, 1);
    kernels::gelu_grad(&x[i], &ones[i], &gg1, 1);
    ASSERT_EQ(0, std::memcmp(&t1, &t[i], sizeof(float))) << "tanh x=" << x[i];
    ASSERT_EQ(0, std::memcmp(&e1, &e[i], sizeof(float))) << "exp x=" << x[i];
    ASSERT_EQ(0, std::memcmp(&g1, &g[i], sizeof(float))) << "gelu x=" << x[i];
    ASSERT_EQ(0, std::memcmp(&gg1, &gg[i], sizeof(float)))
        << "gelu_grad x=" << x[i];
  }
}

TEST(KernelApprox, NanInGivesNanOut) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  float out = 0.0f;
  kernels::tanh_approx(&nan, &out, 1);
  EXPECT_TRUE(std::isnan(out)) << "tanh";
  kernels::exp_approx(&nan, &out, 1);
  EXPECT_TRUE(std::isnan(out)) << "exp";
  kernels::gelu(&nan, &out, 1);
  EXPECT_TRUE(std::isnan(out)) << "gelu";
  const float one = 1.0f;
  kernels::gelu_grad(&nan, &one, &out, 1);
  EXPECT_TRUE(std::isnan(out)) << "gelu_grad";
  const float zero_bias = 0.0f;
  kernels::bias_gelu(&nan, &zero_bias, &out, 1, 1);
  EXPECT_TRUE(std::isnan(out)) << "bias_gelu";

  // Softmax: a NaN score poisons its own row, and only that row.
  const int64_t rows = 3, n = 17;
  std::vector<float> x = random_vec(rows * n, 91);
  x[n + 5] = nan;  // row 1
  std::vector<float> y(x.size());
  kernels::scaled_softmax(x.data(), y.data(), rows, 1, n, 0.5f,
                          /*causal=*/false);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t j = 0; j < n; ++j) {
      EXPECT_EQ(r == 1, std::isnan(y[static_cast<size_t>(r * n + j)]))
          << "row " << r << " col " << j;
    }
  }
}

TEST(KernelApprox, SaturatesAtLargeMagnitudes) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> big = {7.9053112f, 8.0f, 20.0f, 1e4f, 1e30f, inf};
  for (float v : big) {
    float t = 0.0f;
    kernels::tanh_approx(&v, &t, 1);
    EXPECT_EQ(t, 1.0f) << "tanh(" << v << ")";
    const float nv = -v;
    kernels::tanh_approx(&nv, &t, 1);
    EXPECT_EQ(t, -1.0f) << "tanh(" << nv << ")";
  }
  for (float v : {-87.5f, -100.0f, -1e30f, -inf}) {
    float e = 1.0f;
    kernels::exp_approx(&v, &e, 1);
    EXPECT_EQ(e, 0.0f) << "exp(" << v << ")";
  }
  for (float v : {88.5f, 100.0f, 1e30f, inf}) {
    float e = 0.0f;
    kernels::exp_approx(&v, &e, 1);
    EXPECT_EQ(e, inf) << "exp(" << v << ")";
  }
  // GeLU tends to the identity / zero, and its derivative to 1 / 0.
  const float one = 1.0f;
  for (float v : {10.0f, 30.0f, 1e4f}) {
    float g = 0.0f, d = 0.0f;
    kernels::gelu(&v, &g, 1);
    kernels::gelu_grad(&v, &one, &d, 1);
    EXPECT_EQ(g, v) << "gelu(" << v << ")";
    EXPECT_EQ(d, 1.0f) << "gelu'(" << v << ")";
    const float nv = -v;
    kernels::gelu(&nv, &g, 1);
    kernels::gelu_grad(&nv, &one, &d, 1);
    EXPECT_EQ(g, 0.0f) << "gelu(" << nv << ")";
    EXPECT_EQ(d, 0.0f) << "gelu'(" << nv << ")";
  }
}

// ---------------------------------------------------- stateless dropout

// The per-element odometer kernels::dropout replaced, kept verbatim as
// the bitwise reference: advance the global index element by element.
uint64_t reference_hash64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void reference_dropout(const std::vector<float>& x, std::vector<float>& y,
                       std::vector<float>& mask, float p, uint64_t seed,
                       const ops::IndexMap& map) {
  const float inv_keep = 1.0f / (1.0f - p);
  const uint64_t threshold =
      static_cast<uint64_t>(p * 18446744073709551615.0);
  const int nd = static_cast<int>(map.dims.size());
  std::vector<int64_t> coord(static_cast<size_t>(nd), 0);
  int64_t gidx = map.base;
  for (size_t i = 0; i < x.size(); ++i) {
    const bool keep = (p == 0.0f) ||
        (reference_hash64(seed ^ static_cast<uint64_t>(gidx)) >= threshold);
    mask[i] = keep ? 1.0f : 0.0f;
    y[i] = keep ? x[i] * inv_keep : 0.0f;
    for (int d = nd - 1; d >= 0; --d) {
      const auto du = static_cast<size_t>(d);
      gidx += map.strides[du];
      if (++coord[du] < map.dims[du]) break;
      gidx -= map.strides[du] * map.dims[du];
      coord[du] = 0;
    }
  }
}

TEST(KernelDropout, RowWiseMatchesPerElementOdometerOnShardedMaps) {
  struct Case {
    const char* name;
    Shape global;
    int dim;  // -1: identity map
    int64_t offset, len;
  };
  const std::vector<Case> cases = {
      {"identity", Shape{{3, 5, 7}}, -1, 0, 0},
      {"identity-1d", Shape{{37}}, -1, 0, 0},
      {"shard-dim0-base", Shape{{6, 5, 7}}, 0, 2, 3},
      {"shard-dim1", Shape{{3, 10, 7}}, 1, 5, 5},
      {"shard-dim2", Shape{{3, 5, 14}}, 2, 7, 7},
      // Large enough to split rows across pool slots.
      {"shard-dim1-pooled", Shape{{16, 64, 128}}, 1, 32, 32},
      {"shard-dim2-pooled", Shape{{32, 16, 128}}, 2, 64, 64},
  };
  for (const char* nt : {"1", "4"}) {
    ScopedEnv env("MLS_KERNEL_THREADS", nt);
    for (const Case& c : cases) {
      const ops::IndexMap map =
          c.dim < 0 ? ops::IndexMap::identity(c.global)
                    : ops::IndexMap::shard(c.global, c.dim, c.offset, c.len);
      const Shape local(map.dims);
      Rng rng(101);
      Tensor x = Tensor::randn(local, rng);
      const std::vector<float> xv(x.data(), x.data() + x.numel());
      for (float p : {0.0f, 0.1f, 0.5f}) {
        std::vector<float> want_y(xv.size()), want_m(xv.size());
        reference_dropout(xv, want_y, want_m, p, 4242, map);
        ops::DropoutOut got = ops::dropout_stateless(x, p, 4242, map);
        const size_t bytes = sizeof(float) * xv.size();
        EXPECT_EQ(0, std::memcmp(want_m.data(), got.mask.data(), bytes))
            << c.name << " p=" << p << " threads=" << nt;
        EXPECT_EQ(0, std::memcmp(want_y.data(), got.y.data(), bytes))
            << c.name << " p=" << p << " threads=" << nt;

        Tensor dy = Tensor::randn(local, rng);
        Tensor dx = ops::dropout_grad(dy, got.mask, p);
        const float inv_keep = 1.0f / (1.0f - p);
        std::vector<float> want_dx(xv.size());
        for (size_t i = 0; i < xv.size(); ++i)
          want_dx[i] = dy.data()[i] * want_m[i] * inv_keep;
        EXPECT_EQ(0, std::memcmp(want_dx.data(), dx.data(), bytes))
            << c.name << " dropout_grad p=" << p << " threads=" << nt;
      }
    }
  }
}

// ------------------------------------------------- layout fast paths

TEST(KernelLayout, SbhTransposesMatchGenericPermute) {
  Rng rng(61);
  const int64_t s = 10, b = 3, heads = 4, d = 7;
  Tensor x = Tensor::randn(Shape{{s, b, heads * d}}, rng);
  Tensor fast = ops::sbh_to_bhsd(x, heads);
  // Composed path: [s,b,heads,d] -> permute {1,2,0,3} -> [b*heads,s,d].
  Tensor slow = ops::permute(x.reshape(Shape{{s, b, heads, d}}), {1, 2, 0, 3})
                    .reshape(Shape{{b * heads, s, d}});
  ASSERT_EQ(fast.shape().str(), slow.shape().str());
  EXPECT_EQ(0, std::memcmp(fast.data(), slow.data(),
                           sizeof(float) * static_cast<size_t>(fast.numel())));

  Tensor back = ops::bhsd_to_sbh(fast, heads);
  ASSERT_EQ(back.shape().str(), x.shape().str());
  EXPECT_EQ(0, std::memcmp(back.data(), x.data(),
                           sizeof(float) * static_cast<size_t>(x.numel())));
}

// ------------------------------------------ end-to-end training parity

// One t=2, p=2 (SP + selective recompute) training run; returns every
// step's loss from rank 0. Same construction as test_analysis's
// harness so the kernel substrate is exercised under checkpoint
// replay, pipelining, and both parallelisms at once.
std::vector<float> train_t2p2_losses(int steps) {
  model::ModelConfig cfg = model::ModelConfig::tiny(2, 4);
  cfg.p = 2;
  cfg.sequence_parallel = true;
  cfg.recompute = core::Recompute::kSelective;
  cfg.global_batch = 4 * cfg.b;
  cfg.validate();

  Rng rng(2026);
  std::vector<std::vector<int64_t>> tokens, targets;
  for (int64_t mb = 0; mb < cfg.total_microbatches(); ++mb) {
    std::vector<int64_t> tok(static_cast<size_t>(cfg.s * cfg.b));
    std::vector<int64_t> tgt(tok.size());
    for (auto& x : tok)
      x = static_cast<int64_t>(rng.next_below(static_cast<uint64_t>(cfg.v)));
    for (auto& x : tgt)
      x = static_cast<int64_t>(rng.next_below(static_cast<uint64_t>(cfg.v)));
    tokens.push_back(std::move(tok));
    targets.push_back(std::move(tgt));
  }

  std::vector<float> losses;
  spmd::run(cfg.t * cfg.p * cfg.d, [&](comm::Comm& c) {
    MemoryTracker::instance().reset();
    pipeline::PipelineEngine engine(cfg, c);
    optim::Sgd opt(engine.params(), 0.05f);
    std::vector<float> local;
    for (int step = 0; step < steps; ++step) {
      opt.zero_grad();
      auto stats = engine.run_iteration(tokens, targets, step);
      opt.step();
      local.push_back(stats.loss);
    }
    if (c.rank() == 0) losses = local;
  });
  return losses;
}

TEST(KernelTraining, BlockedPathTracksReferencePath) {
  const int steps = 4;
  std::vector<float> ref;
  {
    ScopedEnv env("MLS_KERNEL_REF", "1");
    ref = train_t2p2_losses(steps);
  }
  const std::vector<float> got = train_t2p2_losses(steps);
  ASSERT_EQ(ref.size(), got.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    // Different accumulation orders diverge slowly over steps; same
    // budget as test_core's serial-vs-parallel equivalence.
    EXPECT_NEAR(ref[i], got[i], 2e-3f * (1.0f + static_cast<float>(i)))
        << "step " << i;
  }
}

TEST(KernelTraining, ThreadedTrainingIsBitIdentical) {
  // Intra-op workers never change the k-reduction order, so a full
  // training run (GEMMs, fused ops, checkpoint replays, collectives)
  // is bit-identical at any MLS_KERNEL_THREADS.
  const int steps = 3;
  const std::vector<float> one = train_t2p2_losses(steps);
  std::vector<float> four;
  {
    ScopedEnv env("MLS_KERNEL_THREADS", "4");
    four = train_t2p2_losses(steps);
  }
  ASSERT_EQ(one.size(), four.size());
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], four[i]) << "step " << i;  // bitwise
  }
}

}  // namespace
}  // namespace mls
