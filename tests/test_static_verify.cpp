// Tests for the static plan verifier (src/analysis/static): seeded
// mis-plans must each be flagged with BOTH call sites named; schedules
// recorded from real t=2, t=2+SP, p=2, interleaved, d=2 and folded-TSP
// iterations and from serve decode must verify with zero violations,
// with the byte model equal to every communicator's TrafficStats; a
// runtime mismatch must come back as a violation, not an abort; and
// the Table-2 activation bytes must equal the MemoryTracker's.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/ledger.h"
#include "analysis/static/budget.h"
#include "analysis/static/record.h"
#include "analysis/static/verify.h"
#include "autograd/engine.h"
#include "comm/spmd.h"
#include "common/memtracker.h"
#include "common/rng.h"
#include "memory/activation_model.h"
#include "model/gpt.h"
#include "serve/decode.h"
#include "serve/kv_cache.h"

namespace mls {
namespace {

using analysis::CommRecord;
using analysis::OpKind;
using analysis::SiteGuard;
using model::ModelConfig;
using verify::Plan;
using verify::PlanEvent;
using verify::Recording;
using verify::Violation;

constexpr int kF16 = static_cast<int>(Dtype::F16);

std::string joined(const std::vector<Violation>& vs) {
  std::string out;
  for (const Violation& v : vs) out += "[" + v.check + "] " + v.message + "\n";
  return out;
}

// A two-rank plan over group "world": one hand-built event per rank.
Plan two_rank_plan(const CommRecord& rank0, const CommRecord& rank1) {
  Plan plan(2);
  plan.add_group("world", {0, 1});
  plan.ranks[0] = {PlanEvent{rank0, "world"}};
  plan.ranks[1] = {PlanEvent{rank1, "world"}};
  return plan;
}

// ------------------------------------------------- seeded mis-plans
// Deliberately broken plans, written as event literals; each must be
// caught with the call sites of BOTH offending ranks named.

TEST(StaticMisplan, MismatchedOpNamesBothSites) {
  const Plan plan = two_rank_plan(
      {.kind = OpKind::kAllReduce, .reduce_op = 0, .dtype = kF16,
       .count = 64, .site = "static.rank0_reduce"},
      {.kind = OpKind::kAllGather, .dtype = kF16, .count = 32, .dim = 0,
       .site = "static.rank1_gather"});
  const auto vs = verify::check_schedule(plan);
  ASSERT_EQ(vs.size(), 1u) << joined(vs);
  const std::string& msg = vs[0].message;
  EXPECT_NE(msg.find("static.rank0_reduce"), std::string::npos) << msg;
  EXPECT_NE(msg.find("static.rank1_gather"), std::string::npos) << msg;
  EXPECT_NE(msg.find("all_reduce"), std::string::npos) << msg;
  EXPECT_NE(msg.find("all_gather"), std::string::npos) << msg;
}

TEST(StaticMisplan, CountDriftNamesBothSites) {
  // Padded-vocab drift: one rank's shard is larger.
  const Plan plan = two_rank_plan(
      {.kind = OpKind::kAllReduce, .reduce_op = 0, .dtype = kF16,
       .count = 1024, .site = "static.count_rank0"},
      {.kind = OpKind::kAllReduce, .reduce_op = 0, .dtype = kF16,
       .count = 1536, .site = "static.count_rank1"});
  const auto vs = verify::check_schedule(plan);
  ASSERT_EQ(vs.size(), 1u) << joined(vs);
  const std::string& msg = vs[0].message;
  EXPECT_NE(msg.find("count=1024"), std::string::npos) << msg;
  EXPECT_NE(msg.find("count=1536"), std::string::npos) << msg;
  EXPECT_NE(msg.find("static.count_rank0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("static.count_rank1"), std::string::npos) << msg;
}

TEST(StaticMisplan, SequenceParallelOnOneRankOnly) {
  // The paper's g-vs-f̄ confusion: one rank ran with SP (ḡ issues a
  // reduce-scatter), the other without (f̄ issues an all-reduce).
  const int64_t n_full = 16 * 2 * 32;
  const Plan plan = two_rank_plan(
      {.kind = OpKind::kReduceScatter, .dtype = kF16, .count = n_full,
       .dim = 0, .site = "ḡ(scatter_to_sp).fwd"},
      {.kind = OpKind::kAllReduce, .reduce_op = 0, .dtype = kF16,
       .count = n_full, .site = "f̄(reduce_from_tp).fwd"});
  const auto vs = verify::verify_plan(plan);
  ASSERT_GE(vs.size(), 1u);
  const std::string& msg = vs[0].message;
  EXPECT_EQ(vs[0].check, "schedule");
  EXPECT_NE(msg.find("ḡ(scatter_to_sp).fwd"), std::string::npos) << msg;
  EXPECT_NE(msg.find("f̄(reduce_from_tp).fwd"), std::string::npos) << msg;
  EXPECT_NE(msg.find("reduce_scatter"), std::string::npos) << msg;
  EXPECT_NE(msg.find("all_reduce"), std::string::npos) << msg;
}

TEST(StaticMisplan, FoldedTspPlanOnOneRankOnly) {
  // Plan-axis mis-configuration: rank 0 runs the folded-TSP plan
  // (sequence-sharded, ḡ issues a reduce-scatter at the row exit) while
  // rank 1 was left on the plain TP plan (f̄ issues an all-reduce) — the
  // failure mode of setting MLS_PLAN on only part of the launch. The
  // verifier must name both plan-qualified sites.
  const int64_t n_full = 16 * 2 * 32;
  const Plan plan = two_rank_plan(
      {.kind = OpKind::kReduceScatter, .dtype = kF16, .count = n_full,
       .dim = 0, .site = "folded_tsp.ḡ(scatter_to_sp).fwd"},
      {.kind = OpKind::kAllReduce, .reduce_op = 0, .dtype = kF16,
       .count = n_full, .site = "tp.f̄(reduce_from_tp).fwd"});
  const auto vs = verify::verify_plan(plan);
  ASSERT_GE(vs.size(), 1u);
  const std::string& msg = vs[0].message;
  EXPECT_EQ(vs[0].check, "schedule");
  EXPECT_NE(msg.find("folded_tsp.ḡ(scatter_to_sp).fwd"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("tp.f̄(reduce_from_tp).fwd"), std::string::npos) << msg;
  EXPECT_NE(msg.find("reduce_scatter"), std::string::npos) << msg;
  EXPECT_NE(msg.find("all_reduce"), std::string::npos) << msg;
}

TEST(StaticMisplan, P2pCycleIsReportedWithBothSites) {
  // Both stages recv before they send: a classic pipeline boundary
  // cycle. Sends buffer, but neither recv can ever be satisfied.
  Plan plan(2);
  plan.add_group("pipe", {0, 1});
  const char* s0 = "static.stage0_recv_first";
  const char* s1 = "static.stage1_recv_first";
  plan.ranks[0] = {
      {{.kind = OpKind::kRecv, .peer = 1, .tag = 7, .site = s0}, "pipe"},
      {{.kind = OpKind::kSend, .dtype = kF16, .count = 128, .peer = 1,
        .tag = 8, .site = s0},
       "pipe"}};
  plan.ranks[1] = {
      {{.kind = OpKind::kRecv, .peer = 0, .tag = 8, .site = s1}, "pipe"},
      {{.kind = OpKind::kSend, .dtype = kF16, .count = 128, .peer = 0,
        .tag = 7, .site = s1},
       "pipe"}};
  const auto vs = verify::check_deadlock(plan);
  ASSERT_EQ(vs.size(), 1u) << joined(vs);
  const std::string& msg = vs[0].message;
  EXPECT_EQ(vs[0].check, "deadlock");
  EXPECT_NE(msg.find(s0), std::string::npos) << msg;
  EXPECT_NE(msg.find(s1), std::string::npos) << msg;
  EXPECT_NE(msg.find("wait-for cycle"), std::string::npos) << msg;
}

TEST(StaticMisplan, WrongTable2FormulaNamesBothSources) {
  ModelConfig cfg = ModelConfig::tiny(2, 1);
  cfg.sequence_parallel = true;
  cfg.recompute = core::Recompute::kSelective;
  cfg.validate();
  // The classic wrong claim: sbh(34 + 5as/h) without dividing by t —
  // the non-parallel Table 2 row applied to a sharded config.
  const double wrong = memory::act_bytes_per_layer(
      ModelConfig::tiny(1, 1), memory::technique_of(ModelConfig::tiny(1, 1)));
  const auto vs =
      verify::check_budget_claim(cfg, wrong, "test.wrong_formula_site");
  ASSERT_EQ(vs.size(), 1u);
  const std::string& msg = vs[0].message;
  EXPECT_EQ(vs[0].check, "budget");
  EXPECT_NE(msg.find("act_bytes_per_layer"), std::string::npos) << msg;
  EXPECT_NE(msg.find("test.wrong_formula_site"), std::string::npos) << msg;
  EXPECT_NE(msg.find("drift"), std::string::npos) << msg;
}

// A correct claim produces no violation (the checker is exact, not
// tolerance-based).
TEST(StaticBudget, ExactClaimPasses) {
  ModelConfig cfg = ModelConfig::tiny(2, 1);
  cfg.sequence_parallel = true;
  cfg.recompute = core::Recompute::kSelective;
  cfg.validate();
  const double right =
      memory::act_bytes_per_layer(cfg, memory::technique_of(cfg));
  EXPECT_TRUE(verify::check_budget_claim(cfg, right, "test.right").empty());
}

// ------------------------------------------------- the recorder

// Records one real iteration and checks it: no runtime failure, the
// recorder's own predict_traffic == TrafficStats check on every
// communicator, and the static schedule/deadlock checks.
Recording expect_clean_iteration(const ModelConfig& cfg,
                                 bool overlap_recompute = false) {
  Recording rec = verify::record_train_iteration(cfg, overlap_recompute);
  EXPECT_TRUE(rec.violations.empty()) << joined(rec.violations);
  EXPECT_TRUE(verify::verify_plan(rec.plan).empty())
      << joined(verify::verify_plan(rec.plan));
  EXPECT_GT(rec.plan.num_events(), 0);
  return rec;
}

ModelConfig train_config(int t, int p, int d, bool sp, int m) {
  ModelConfig cfg = ModelConfig::tiny(t, 4);
  cfg.p = p;
  cfg.d = d;
  cfg.interleave_m = m;
  cfg.sequence_parallel = sp;
  cfg.recompute = core::Recompute::kSelective;
  cfg.global_batch = static_cast<int64_t>(cfg.b) * d * 4;
  cfg.validate();
  return cfg;
}

// Events of `kind` issued at `site` (prefix) over all ranks.
int64_t count_events(const Plan& plan, OpKind kind, const std::string& site) {
  int64_t n = 0;
  for (const auto& prog : plan.ranks) {
    for (const PlanEvent& e : prog) {
      n += e.kind == kind && e.site.rfind(site, 0) == 0;
    }
  }
  return n;
}

TEST(StaticClean, ConfigGridVerifiesWithZeroViolations) {
  for (int t : {1, 2}) {
    for (int p : {1, 2}) {
      for (int sp : {0, 1}) {
        if (sp && t == 1) continue;
        for (auto rc : {core::Recompute::kNone, core::Recompute::kSelective,
                        core::Recompute::kFull}) {
          ModelConfig cfg = train_config(t, p, 1, sp != 0, 1);
          cfg.recompute = rc;
          SCOPED_TRACE("t=" + std::to_string(t) + " p=" + std::to_string(p) +
                       " sp=" + std::to_string(sp));
          expect_clean_iteration(cfg);
        }
      }
    }
  }
}

// Every group counts: the world the grid is split from, and the four
// single-rank dp groups that issue nothing at d = 1.
TEST(StaticClean, GroupTableComesFromEveryRanksCommunicators) {
  const Recording rec = expect_clean_iteration(train_config(2, 2, 1, true, 1));
  // world + 2 tp groups + 2 pp groups + 4 single-rank dp groups.
  EXPECT_EQ(rec.plan.groups.size(), 9u);
  for (const verify::Group& g : rec.plan.groups) {
    EXPECT_TRUE(g.name == "world" || g.name.rfind("world/c", 0) == 0)
        << g.name;
  }
  EXPECT_EQ(count_events(rec.plan, OpKind::kSplit, "pipeline.grid_split"),
            3 * 4);
}

// ------------------------------------------------- traffic prediction
// predict_traffic must reproduce the runtime ring formulas exactly,
// including the near-equal chunking of non-divisible element counts.

TEST(StaticTraffic, RingFormulasMatchRuntimeOnNonDivisibleCounts) {
  const int T = 3;
  const int64_t n = 10;  // 10 % 3 != 0: exercises chunk_ofs rounding
  std::vector<comm::TrafficStats> runtime(T);
  const Recording rec = verify::record(T, [&](comm::Comm& c) {
    Tensor x = Tensor::full(Shape{{n}}, 1.0f + static_cast<float>(c.rank()));
    c.all_reduce(x);
    Tensor g = c.all_gather(x, 0);
    Tensor rs = c.reduce_scatter(g, 0);
    Tensor b = Tensor::full(Shape{{n}}, 3.0f);
    c.broadcast(b, 1);
    runtime[static_cast<size_t>(c.rank())] = c.stats();
    return std::vector<comm::Comm>{};
  });
  ASSERT_TRUE(rec.violations.empty()) << joined(rec.violations);
  ASSERT_TRUE(verify::verify_plan(rec.plan).empty());
  for (int r = 0; r < T; ++r) {
    EXPECT_TRUE(verify::predict_traffic(rec.plan, "world", r) ==
                runtime[static_cast<size_t>(r)])
        << "rank " << r;
  }
}

// The recorder's traffic check is live: a counter the byte model does
// not explain is reported, naming the group and the drifting field.
TEST(StaticTraffic, RecorderFlagsTrafficDrift) {
  const Recording rec = verify::record(2, [](comm::Comm& c) {
    Tensor x = Tensor::full(Shape{{8}}, 1.0f);
    c.all_reduce(x);
    if (c.rank() == 1) c.stats().bytes_received += 2;
    return std::vector<comm::Comm>{};
  });
  ASSERT_EQ(rec.violations.size(), 1u) << joined(rec.violations);
  EXPECT_EQ(rec.violations[0].check, "traffic");
  EXPECT_EQ(rec.violations[0].group, "world");
  EXPECT_NE(rec.violations[0].message.find("rank 1"), std::string::npos)
      << rec.violations[0].message;
}

// A mismatch in the real code comes back as a schedule violation with
// the runtime ledger's two-call-site report, instead of an abort.
TEST(StaticRecord, RuntimeMismatchBecomesScheduleViolation) {
  const Recording rec = verify::record(2, [](comm::Comm& c) {
    Tensor x = Tensor::full(Shape{{4, 2}}, 1.0f);
    if (c.rank() == 0) {
      SiteGuard sg("static.sp_rank");
      c.reduce_scatter(x, 0);
    } else {
      SiteGuard sg("static.tp_rank");
      c.all_reduce(x);
    }
    return std::vector<comm::Comm>{};
  });
  ASSERT_EQ(rec.violations.size(), 1u) << joined(rec.violations);
  const std::string& msg = rec.violations[0].message;
  EXPECT_EQ(rec.violations[0].check, "schedule");
  EXPECT_NE(msg.find("static.sp_rank"), std::string::npos) << msg;
  EXPECT_NE(msg.find("static.tp_rank"), std::string::npos) << msg;
}

// A rank's events in different groups come back in the order the rank
// issued them, which check_deadlock's per-rank programs rely on.
TEST(StaticRecord, RankProgramKeepsIssueOrderAcrossGroups) {
  const Recording rec = verify::record(2, [](comm::Comm& world) {
    {
      SiteGuard sg("static.first");
      world.barrier();
    }
    comm::Comm solo = world.split(world.rank());
    {
      SiteGuard sg("static.second");
      solo.barrier();
    }
    SiteGuard sg("static.third");
    world.barrier();
    return std::vector<comm::Comm>{solo};
  });
  ASSERT_TRUE(rec.violations.empty()) << joined(rec.violations);
  EXPECT_EQ(rec.plan.groups.size(), 3u);
  for (const auto& prog : rec.plan.ranks) {
    std::vector<std::string> sites;
    for (const PlanEvent& e : prog) {
      if (e.kind == OpKind::kBarrier) sites.push_back(e.site);
    }
    EXPECT_EQ(sites, (std::vector<std::string>{"static.first", "static.second",
                                               "static.third"}));
  }
}

// Overlapped recompute issues the backward tp collectives on the comm
// stream: the recorder sees them as async records (a rank thread and
// its comm worker record at once), the plan verifies, and — through
// the recorder's traffic check — predict_traffic equals every group's
// TrafficStats.
TEST(StaticRecord, OverlapRecomputeRecordsAsyncOps) {
  const Recording rec = expect_clean_iteration(
      train_config(2, 1, 1, true, 1), /*overlap_recompute=*/true);
  int64_t async = 0;
  for (const auto& prog : rec.plan.ranks) {
    for (const PlanEvent& e : prog) async += e.async;
  }
  EXPECT_GT(async, 0);
}

// ---------------------------------------------------- recorded training
// Real iterations over each parallel axis: recorded, verified, and the
// byte model equal to the runtime counters on every communicator.

TEST(ReplayTrain, TensorParallelZeroDrift) {
  const Recording rec = expect_clean_iteration(train_config(2, 1, 1, false, 1));
  EXPECT_GT(count_events(rec.plan, OpKind::kAllReduce, "f̄(reduce_from_tp)"),
            0);
  EXPECT_EQ(count_events(rec.plan, OpKind::kReduceScatter, ""), 0);
}

TEST(ReplayTrain, SequenceParallelZeroDrift) {
  const Recording rec = expect_clean_iteration(train_config(2, 1, 1, true, 1));
  EXPECT_GT(count_events(rec.plan, OpKind::kReduceScatter, "ḡ(scatter_to_sp)"),
            0);
  EXPECT_EQ(count_events(rec.plan, OpKind::kAllReduce, "f̄(reduce_from_tp)"),
            0);
}

TEST(ReplayTrain, PipelineZeroDrift) {
  const Recording rec = expect_clean_iteration(train_config(2, 2, 1, true, 1));
  // 4 microbatches cross the one stage boundary each way, on 2 tp ranks.
  EXPECT_EQ(count_events(rec.plan, OpKind::kSend, "pp.fwd_send"), 4 * 2);
  EXPECT_EQ(count_events(rec.plan, OpKind::kRecv, "pp.bwd_recv"), 4 * 2);
}

TEST(ReplayTrain, InterleavedPipelineZeroDrift) {
  const Recording rec = expect_clean_iteration(train_config(1, 2, 1, false, 2));
  // 2 chunks per rank: 3 virtual-stage boundaries, 4 microbatches.
  EXPECT_EQ(count_events(rec.plan, OpKind::kSend, "pp.fwd_send"), 3 * 4);
}

TEST(ReplayTrain, DataParallelZeroDrift) {
  const Recording rec = expect_clean_iteration(train_config(1, 1, 2, false, 1));
  EXPECT_GT(count_events(rec.plan, OpKind::kAllReduce, "dp.grad_all_reduce"),
            0);
}

// The folded plan shares the TP+SP comm schedule exactly (folding only
// changes which activations are stored): same events, same sites.
void expect_same_schedule_as_sp(const ModelConfig& sp_cfg) {
  ModelConfig folded = sp_cfg;
  folded.set_plan(core::PlanKind::kFoldedTsp);
  folded.validate();
  const Recording a = expect_clean_iteration(sp_cfg);
  const Recording b = expect_clean_iteration(folded);
  ASSERT_EQ(a.plan.ranks.size(), b.plan.ranks.size());
  for (size_t r = 0; r < a.plan.ranks.size(); ++r) {
    const auto& x = a.plan.ranks[r];
    const auto& y = b.plan.ranks[r];
    ASSERT_EQ(x.size(), y.size()) << "rank " << r;
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_TRUE(analysis::records_match(x[i], y[i]) && x[i].site == y[i].site)
          << "rank " << r << " event " << i;
    }
  }
}

TEST(ReplayTrain, FoldedTspZeroDrift) {
  expect_same_schedule_as_sp(train_config(2, 1, 1, true, 1));
}

TEST(ReplayTrain, FoldedTspPipelineZeroDrift) {
  expect_same_schedule_as_sp(train_config(2, 2, 1, true, 1));
}

// ----------------------------------------------------- replay: Table 2
// The measured MemoryTracker bytes of a real layer forward, fed back
// into the budget checker as a "claim", must be exact — the static
// budget IS the runtime byte count.

TEST(ReplayBudget, MeasuredLayerBytesMatchStaticBudget) {
  for (int sp : {0, 1}) {
    for (auto rc : {core::Recompute::kNone, core::Recompute::kSelective}) {
      ModelConfig cfg = ModelConfig::tiny(2, 1);
      cfg.sequence_parallel = sp != 0;
      cfg.recompute = rc;
      cfg.validate();
      int64_t measured = -1;
      spmd::run(cfg.t, [&](comm::Comm& c) {
        auto& mt = MemoryTracker::instance();
        mt.reset();
        core::ParallelEnv env;
        env.tp = c;
        env.sequence_parallel = cfg.sequence_parallel;
        env.sharded_input_save = cfg.sharded_input_save;
        env.recompute = cfg.recompute;
        env.seed = cfg.seed;
        Rng master(cfg.seed);
        model::TransformerLayer layer(env, cfg, 0, master);
        Rng drng(5);
        const int64_t s_local =
            cfg.sequence_parallel ? cfg.s / cfg.t : cfg.s;
        ag::Var x(Tensor::randn(Shape{{s_local, cfg.b, cfg.h}}, drng), true);
        ag::Var y = layer.forward(x, env);
        const int64_t bytes = mt.current_major_bytes();
        ag::backward(y, Tensor::full(y.value().shape(), 1.f));
        if (c.rank() == 0) measured = bytes;
      });
      ASSERT_GE(measured, 0);
      const auto vs = verify::check_budget_claim(
          cfg, static_cast<double>(measured), "MemoryTracker replay");
      EXPECT_TRUE(vs.empty()) << "sp=" << sp << "\n" << joined(vs);
    }
  }
}

// -------------------------------------------------------------- serve
// A decode loop recorded from the real DecodeEngine must verify, and
// the paged cache's used bytes must equal the KV layout's byte model.

TEST(ReplayServe, DecodeZeroDriftAndExactKvBytes) {
  ModelConfig cfg = ModelConfig::tiny(2, 2);
  cfg.validate();
  const int steps = 3;
  const int64_t n_rows = 2;
  const Recording rec = verify::record_decode(cfg, steps, n_rows);
  ASSERT_TRUE(rec.violations.empty()) << joined(rec.violations);
  ASSERT_TRUE(verify::verify_plan(rec.plan).empty());
  // Per step and rank: embed + 2 reduces per layer + the logits gather.
  EXPECT_EQ(rec.plan.num_events(), cfg.t * steps * (1 + 2 * cfg.L + 1));

  std::vector<int64_t> kv_used(static_cast<size_t>(cfg.t), -1);
  spmd::run(cfg.t, [&](comm::Comm& c) {
    model::GPTModel m(cfg, c);
    serve::DecodeEngine eng(m, /*overlap=*/false);
    auto cache = serve::make_paged_kv_cache(eng.layout(), /*budget=*/cfg.s * 4);
    std::vector<std::unique_ptr<serve::SequenceKV>> seqs;
    for (int64_t i = 0; i < n_rows; ++i) seqs.push_back(cache->create(cfg.s));
    for (int step = 0; step < steps; ++step) {
      std::vector<serve::DecodeRow> rows;
      for (int64_t i = 0; i < n_rows; ++i) {
        serve::DecodeRow r;
        r.token = (7 * step + 3 * i) % cfg.v;
        r.position = step;
        r.kv = seqs[static_cast<size_t>(i)].get();
        ASSERT_TRUE(r.kv->reserve(r.position));
        rows.push_back(r);
      }
      eng.step(rows);
    }
    kv_used[static_cast<size_t>(c.rank())] = cache->stats().used_bytes;
    seqs.clear();
  });
  const serve::KVLayout layout = serve::kv_layout(cfg, cfg.t, 1);
  for (int r = 0; r < cfg.t; ++r) {
    // `steps` positions cached per sequence, n_rows sequences.
    EXPECT_EQ(kv_used[static_cast<size_t>(r)],
              n_rows * steps * layout.logical_bytes_per_token())
        << "rank " << r;
  }
}

}  // namespace
}  // namespace mls
