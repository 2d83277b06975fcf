// Tests for the runtime subsystem: streams/events, the overlap
// scheduler, nonblocking collectives (bit-identical results and traffic
// vs their blocking twins), and end-to-end numeric equivalence of
// overlap_recompute — including nested checkpoints with dropout, whose
// RNG replay must be bit-exact when prefetched into a comm window.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "autograd/checkpoint.h"
#include "autograd/engine.h"
#include "autograd/functions.h"
#include "comm/spmd.h"
#include "common/rng.h"
#include "core/collectives.h"
#include "model/transformer.h"
#include "runtime/overlap.h"
#include "runtime/stream.h"

namespace mls {
namespace {

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// ------------------------------------------------------------- stream

TEST(Stream, RunsTasksInFifoOrder) {
  runtime::Stream s("test");
  std::vector<int> order;  // only the worker thread writes
  for (int i = 0; i < 16; ++i) s.enqueue([&order, i] { order.push_back(i); });
  s.synchronize();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
  EXPECT_EQ(s.tasks_executed(), 16);
}

TEST(Stream, EventReadyAfterPrecedingWork) {
  runtime::Stream s;
  std::atomic<bool> before{false};
  s.enqueue([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    before = true;
  });
  runtime::Event e = s.record_event();
  ASSERT_TRUE(e.valid());
  e.wait();
  EXPECT_TRUE(before.load());
  EXPECT_TRUE(e.ready());
  // An event recorded on an idle stream is ready (almost) immediately.
  s.synchronize();
  runtime::Event e2 = s.record_event();
  e2.wait();
  EXPECT_TRUE(e2.ready());
}

TEST(Stream, SynchronizeRethrowsTaskError) {
  runtime::Stream s;
  s.enqueue([] { throw Error("task boom"); });
  std::atomic<bool> later_ran{false};
  s.enqueue([&] { later_ran = true; });  // queue keeps draining
  EXPECT_THROW(s.synchronize(), Error);
  EXPECT_TRUE(later_ran.load());
}

TEST(Stream, DestructorDrainsQueue) {
  std::atomic<int> ran{0};
  {
    runtime::Stream s;
    for (int i = 0; i < 8; ++i) s.enqueue([&] { ++ran; });
  }
  EXPECT_EQ(ran.load(), 8);
}

// -------------------------------------------------------- scheduler

TEST(OverlapScheduler, PrefetchesOnePerWindowInOrder) {
  runtime::OverlapScheduler sched;
  std::vector<int> ran;
  int key0 = 0, key1 = 0;
  sched.begin_scope();
  sched.add_prefetch(&key0, [&] { ran.push_back(0); });
  sched.add_prefetch(&key1, [&] { ran.push_back(1); });

  sched.on_comm_launch();  // runs replay 0
  ASSERT_EQ(ran, (std::vector<int>{0}));
  // Lookahead is capped: the front replay is done but unretired, so a
  // second window must not start replay 1.
  sched.on_comm_launch();
  ASSERT_EQ(ran, (std::vector<int>{0}));

  EXPECT_TRUE(sched.node_reached(&key0));  // 0 was prefetched
  sched.on_comm_launch();                  // now 1 runs
  ASSERT_EQ(ran, (std::vector<int>{0, 1}));
  EXPECT_TRUE(sched.node_reached(&key1));
  sched.end_scope();

  EXPECT_EQ(sched.stats().comm_windows, 3);
  EXPECT_EQ(sched.stats().prefetches, 2);
  EXPECT_EQ(sched.stats().inline_replays, 0);
  EXPECT_EQ(sched.window_work().size(), 3u);
}

TEST(OverlapScheduler, UnprefetchedNodeCountsAsInlineReplay) {
  runtime::OverlapScheduler sched;
  sched.begin_scope();
  int key = 0;
  sched.add_prefetch(&key, [] {});
  // No comm window opened before the engine reaches the node.
  EXPECT_FALSE(sched.node_reached(&key));
  EXPECT_EQ(sched.stats().inline_replays, 1);
  sched.end_scope();
}

TEST(OverlapScheduler, ScopesNestForReentrantBackward) {
  runtime::OverlapScheduler sched;
  std::vector<int> ran;
  int outer = 0, inner = 0;
  sched.begin_scope();
  sched.add_prefetch(&outer, [&] { ran.push_back(0); });
  sched.begin_scope();  // replay backward enters a nested scope
  sched.add_prefetch(&inner, [&] { ran.push_back(1); });
  sched.on_comm_launch();  // must run the *inner* scope's replay
  ASSERT_EQ(ran, (std::vector<int>{1}));
  EXPECT_TRUE(sched.node_reached(&inner));
  sched.end_scope();
  sched.on_comm_launch();  // back in the outer scope
  ASSERT_EQ(ran, (std::vector<int>{1, 0}));
  EXPECT_TRUE(sched.node_reached(&outer));
  sched.end_scope();
}

TEST(OverlapGuard, InactiveGuardInstallsNothing) {
  runtime::OverlapGuard g(/*active=*/false);
  EXPECT_EQ(g.scheduler(), nullptr);
  EXPECT_EQ(runtime::OverlapScheduler::current(), nullptr);
}

// ------------------------------------------- nonblocking collectives

struct StatsSnapshot {
  comm::TrafficStats s;
  explicit StatsSnapshot(const comm::TrafficStats& in) : s(in) {}
};

void expect_stats_equal(const comm::TrafficStats& a,
                        const comm::TrafficStats& b) {
  EXPECT_EQ(a.bytes_received, b.bytes_received);
  EXPECT_EQ(a.all_reduce_count, b.all_reduce_count);
  EXPECT_EQ(a.all_gather_count, b.all_gather_count);
  EXPECT_EQ(a.reduce_scatter_count, b.reduce_scatter_count);
  EXPECT_EQ(a.broadcast_count, b.broadcast_count);
  EXPECT_EQ(a.p2p_send_count, b.p2p_send_count);
  EXPECT_EQ(a.p2p_bytes_sent, b.p2p_bytes_sent);
  EXPECT_EQ(a.p2p_recv_count, b.p2p_recv_count);
  EXPECT_EQ(a.p2p_bytes_received, b.p2p_bytes_received);
}

class NonblockingTest : public ::testing::TestWithParam<int> {};

TEST_P(NonblockingTest, MatchBlockingBitwiseWithIdenticalTraffic) {
  const int t = GetParam();
  spmd::run(t, [&](comm::Comm& c) {
    Rng rng(40 + static_cast<uint64_t>(c.rank()));
    const Tensor input = Tensor::randn(Shape{{2 * t, 5}}, rng);

    // all-reduce
    Tensor ar_b = input.clone();
    c.stats().reset();
    c.all_reduce(ar_b);
    const StatsSnapshot ar_stats(c.stats());
    Tensor ar_nb = input.clone();
    c.stats().reset();
    comm::CommHandle h = c.iall_reduce(ar_nb);
    h.wait();
    ASSERT_TRUE(bitwise_equal(ar_b, ar_nb));
    expect_stats_equal(ar_stats.s, c.stats());

    // reduce-scatter
    c.stats().reset();
    Tensor rs_b = c.reduce_scatter(input, 0);
    const StatsSnapshot rs_stats(c.stats());
    c.stats().reset();
    Tensor rs_nb = c.ireduce_scatter(input, 0).result();
    ASSERT_TRUE(bitwise_equal(rs_b, rs_nb));
    expect_stats_equal(rs_stats.s, c.stats());

    // all-gather
    c.stats().reset();
    Tensor ag_b = c.all_gather(rs_b, 0);
    const StatsSnapshot ag_stats(c.stats());
    c.stats().reset();
    Tensor ag_nb = c.iall_gather(rs_nb, 0).result();
    ASSERT_TRUE(bitwise_equal(ag_b, ag_nb));
    expect_stats_equal(ag_stats.s, c.stats());
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, NonblockingTest,
                         ::testing::Values(2, 3, 4));

TEST(Nonblocking, IAllReduceLandsInPlace) {
  spmd::run(2, [](comm::Comm& c) {
    Tensor x = Tensor::full(Shape{{4}}, static_cast<float>(c.rank() + 1));
    comm::CommHandle h = c.iall_reduce(x);
    ASSERT_TRUE(h.valid());
    h.wait();
    EXPECT_TRUE(h.done());
    for (int64_t i = 0; i < 4; ++i) ASSERT_FLOAT_EQ(x.data()[i], 3.f);
  });
}

TEST(Nonblocking, ISendClonesEagerlyAndIRecvDelivers) {
  spmd::run(2, [](comm::Comm& c) {
    if (c.rank() == 0) {
      Tensor t = Tensor::full(Shape{{6}}, 9.f, Dtype::F16);
      comm::CommHandle h = c.isend(1, 3, t);
      t.fill_(-1.f);  // must not reach the receiver: isend cloned
      h.wait();
      EXPECT_EQ(c.stats().p2p_send_count, 1);
      EXPECT_EQ(c.stats().p2p_bytes_sent, 12);
    } else {
      Tensor r = c.irecv(0, 3).result();
      for (int64_t i = 0; i < 6; ++i) ASSERT_FLOAT_EQ(r.data()[i], 9.f);
      EXPECT_EQ(c.stats().p2p_recv_count, 1);
      EXPECT_EQ(c.stats().p2p_bytes_received, 12);
    }
  });
}

// --------------------------------------- overlap_recompute numerics

// Backward gradients of a 2-layer tensor+sequence-parallel stack with
// selective recomputation must be bit-identical with and without
// overlap_recompute: the prefetched replays run on the same thread with
// the same RNG sites, just earlier.
TEST(OverlapRecompute, LayerGradsBitIdenticalToSerial) {
  const int t = 2;
  model::ModelConfig cfg = model::ModelConfig::tiny(t, 2);
  cfg.sequence_parallel = true;
  cfg.recompute = core::Recompute::kSelective;
  spmd::run(t, [&](comm::Comm& c) {
    auto run_mode = [&](bool overlap, std::vector<Tensor>& grads) {
      core::ParallelEnv env;
      env.tp = c;
      env.sequence_parallel = true;
      env.recompute = core::Recompute::kSelective;
      env.overlap_recompute = overlap;
      env.seed = cfg.seed;
      Rng master(cfg.seed);
      std::vector<std::unique_ptr<model::TransformerLayer>> layers;
      for (int l = 0; l < 2; ++l) {
        layers.push_back(
            std::make_unique<model::TransformerLayer>(env, cfg, l, master));
      }
      Rng drng(11);
      Tensor x0 = Tensor::randn(Shape{{cfg.s / t, cfg.b, cfg.h}}, drng);
      ag::Var x(x0, true);
      ag::Var y = x;
      for (auto& l : layers) y = l->forward(y, env);
      {
        runtime::OverlapGuard guard(overlap);
        ag::backward(y, Tensor::full(y.value().shape(), 1.f));
        if (overlap) {
          auto* s = guard.scheduler();
          ASSERT_NE(s, nullptr);
          // The mode must actually engage: windows opened, replays hidden.
          EXPECT_GT(s->stats().comm_windows, 0);
          EXPECT_GT(s->stats().prefetches, 0);
        }
      }
      grads.push_back(x.grad().clone());
      for (auto& l : layers)
        for (const auto& p : l->params()) grads.push_back(p.grad().clone());
    };
    std::vector<Tensor> serial, overlapped;
    run_mode(false, serial);
    run_mode(true, overlapped);
    ASSERT_EQ(serial.size(), overlapped.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      ASSERT_TRUE(bitwise_equal(serial[i], overlapped[i])) << "grad " << i;
    }
  });
}

// Nested checkpoints with dropout at both levels: the outer (full-layer
// style, collective-bearing) checkpoint replays inline, the inner
// pure-compute one is prefetched into the ḡ backward's all-gather
// window — and both dropout masks must replay bit-exactly.
TEST(OverlapRecompute, NestedCheckpointDropoutReplayBitExact) {
  const int t = 2;
  const int64_t s = 8, h = 16;
  spmd::run(t, [&](comm::Comm& c) {
    Rng rng(21 + static_cast<uint64_t>(c.rank()));
    const Tensor x0 = Tensor::randn(Shape{{s / t, h}}, rng);
    Rng wrng(33);  // same weights on every rank
    const Tensor w0 = Tensor::randn(Shape{{h, h}}, wrng, 0.3f);

    auto run_mode = [&](bool overlap, Tensor& dx, Tensor& dw, Tensor& out) {
      ag::Var x(x0.clone(), true);
      ag::Var w = ag::Var::param(w0.clone());
      auto inner = [&](const std::vector<ag::Var>& ins) {
        ag::Var a = ag::gelu(ag::matmul(ins[0], ins[1]));
        return ag::dropout(a, 0.25f, /*seed=*/123,
                           ops::IndexMap::identity(a.value().shape()));
      };
      auto outer = [&](const std::vector<ag::Var>& ins) {
        ag::Var g = core::gather_from_sequence_parallel(ins[0], c);
        ag::Var a = ag::checkpoint(inner, {g, ins[1]}, /*pure_compute=*/true);
        ag::Var d = ag::dropout(a, 0.1f, /*seed=*/321,
                                ops::IndexMap::identity(a.value().shape()));
        return core::scatter_to_sequence_parallel(d, c);
      };
      ag::Var y = ag::checkpoint(outer, {x, w}, /*pure_compute=*/false);
      {
        runtime::OverlapGuard guard(overlap);
        ag::backward(y, Tensor::full(y.value().shape(), 1.f));
        if (overlap) {
          auto* sc = guard.scheduler();
          ASSERT_NE(sc, nullptr);
          // The inner replay really ran inside a window of the nested
          // (re-entrant) backward, not at its own node.
          EXPECT_GT(sc->stats().prefetches, 0);
        }
      }
      dx = x.grad().clone();
      dw = w.grad().clone();
      out = y.value().clone();
    };

    Tensor dx_s, dw_s, out_s, dx_o, dw_o, out_o;
    run_mode(false, dx_s, dw_s, out_s);
    run_mode(true, dx_o, dw_o, out_o);
    ASSERT_TRUE(bitwise_equal(out_s, out_o));
    ASSERT_TRUE(bitwise_equal(dx_s, dx_o));
    ASSERT_TRUE(bitwise_equal(dw_s, dw_o));
  });
}

}  // namespace
}  // namespace mls
