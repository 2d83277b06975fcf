#include "analysis/static/record.h"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "common/check.h"
#include "comm/spmd.h"
#include "pipeline/executor.h"
#include "serve/decode.h"

namespace mls::verify {

namespace {

// Which check a failed run violates, from the runtime's own report: the
// ledger's cross-rank validator, the hang watchdog, or anything else.
std::string failure_check(const std::string& what) {
  if (what.find("collective mismatch") != std::string::npos) {
    return "schedule";
  }
  if (what.find("comm watchdog") != std::string::npos) return "deadlock";
  return "run";
}

// handles[world_rank] = every communicator that rank used. Groups come
// in handle order (world, then every rank's first split, ...); a group
// some rank never returned (its body threw first) is left out.
Plan plan_from_ledgers(const std::vector<std::vector<comm::Comm>>& handles) {
  Plan plan(static_cast<int>(handles.size()));
  std::map<std::string, size_t> index;
  std::vector<const comm::Comm*> first_handle;
  std::vector<std::vector<int>> members;  // [group][group rank] -> world
  size_t slots = 0;
  for (const auto& mine : handles) slots = std::max(slots, mine.size());
  for (size_t j = 0; j < slots; ++j) {
    for (size_t r = 0; r < handles.size(); ++r) {
      if (j >= handles[r].size()) continue;
      const comm::Comm& c = handles[r][j];
      const auto [it, fresh] = index.try_emplace(c.group_name(),
                                                 first_handle.size());
      if (fresh) {
        first_handle.push_back(&c);
        members.emplace_back(static_cast<size_t>(c.size()), -1);
      }
      members[it->second][static_cast<size_t>(c.rank())] =
          static_cast<int>(r);
    }
  }
  for (size_t g = 0; g < first_handle.size(); ++g) {
    const std::vector<int>& m = members[g];
    if (std::count(m.begin(), m.end(), -1) > 0) continue;
    const std::string name = first_handle[g]->group_name();
    MLS_CHECK(std::is_sorted(m.begin(), m.end()))
        << "group '" << name << "' ranks out of world order";
    plan.add_group(name, m);
    const auto history = first_handle[g]->ledger_history();
    for (size_t grank = 0; grank < history.size(); ++grank) {
      auto& prog = plan.ranks[static_cast<size_t>(m[grank])];
      for (const analysis::CommRecord& rec : history[grank]) {
        prog.push_back(PlanEvent{rec, name});
      }
    }
  }
  for (auto& prog : plan.ranks) {
    std::sort(prog.begin(), prog.end(),
              [](const PlanEvent& a, const PlanEvent& b) {
                return a.order < b.order;
              });
  }
  return plan;
}

std::string traffic_str(const comm::TrafficStats& s) {
  std::ostringstream os;
  os << "bytes_received=" << s.bytes_received
     << " all_reduce=" << s.all_reduce_count
     << " all_gather=" << s.all_gather_count
     << " reduce_scatter=" << s.reduce_scatter_count
     << " broadcast=" << s.broadcast_count << " send=" << s.p2p_send_count
     << "/" << s.p2p_bytes_sent << "B recv=" << s.p2p_recv_count << "/"
     << s.p2p_bytes_received << "B";
  return os.str();
}

}  // namespace

Recording record(int world_size, const RankBody& body) {
  analysis::Options opts;
  opts.validate = true;
  opts.watchdog = true;
  opts.flight_depth = std::numeric_limits<int>::max();  // keep every event
  analysis::ScopedOptions scoped(opts);

  Recording out;
  std::vector<std::vector<comm::Comm>> handles(
      static_cast<size_t>(world_size));
  try {
    spmd::run(world_size, [&](comm::Comm& world) {
      auto& mine = handles[static_cast<size_t>(world.rank())];
      mine.push_back(world);
      for (comm::Comm& c : body(world)) mine.push_back(std::move(c));
    });
  } catch (const std::exception& e) {
    out.violations.push_back({failure_check(e.what()), "", e.what()});
  }
  out.plan = plan_from_ledgers(handles);
  if (!out.violations.empty()) return out;

  for (size_t r = 0; r < handles.size(); ++r) {
    for (const comm::Comm& c : handles[r]) {
      const comm::TrafficStats want =
          predict_traffic(out.plan, c.group_name(), c.rank());
      if (want == c.stats()) continue;
      out.violations.push_back(
          {"traffic", c.group_name(),
           "traffic drift in group '" + c.group_name() + "' rank " +
               std::to_string(c.rank()) + ":\n  predicted: " +
               traffic_str(want) + "\n  runtime:   " +
               traffic_str(c.stats())});
    }
  }
  return out;
}

Recording record_train_iteration(const model::ModelConfig& cfg,
                                 bool overlap_recompute) {
  cfg.validate();
  pipeline::PipelineOptions popts;
  if (cfg.interleave_m > 1) {
    popts.schedule = pipeline::Schedule::kInterleaved1F1B;
  }
  popts.overlap_recompute = overlap_recompute;
  // Token values never reach the comm schedule; any in-vocab ids do.
  std::vector<int64_t> seq(static_cast<size_t>(cfg.s * cfg.b));
  for (size_t i = 0; i < seq.size(); ++i) {
    seq[i] = static_cast<int64_t>(i) % cfg.v;
  }
  const std::vector<std::vector<int64_t>> batch(
      static_cast<size_t>(cfg.total_microbatches()), seq);
  return record(cfg.t * cfg.p * cfg.d, [&](comm::Comm& world) {
    pipeline::PipelineEngine engine(cfg, world, popts);
    engine.run_iteration(batch, batch, 0);
    return std::vector<comm::Comm>{engine.tp_comm(), engine.pp_comm(),
                                   engine.dp_comm()};
  });
}

Recording record_decode(const model::ModelConfig& cfg, int steps,
                        int64_t rows) {
  cfg.validate();
  return record(cfg.t, [&](comm::Comm& world) {
    model::GPTModel model(cfg, world);
    serve::DecodeEngine engine(model);
    auto cache = serve::make_paged_kv_cache(engine.layout(), rows * cfg.s);
    std::vector<std::unique_ptr<serve::SequenceKV>> seqs;
    for (int64_t i = 0; i < rows; ++i) seqs.push_back(cache->create(cfg.s));
    for (int step = 0; step < steps; ++step) {
      std::vector<serve::DecodeRow> batch;
      for (int64_t i = 0; i < rows; ++i) {
        serve::DecodeRow row;
        row.token = i % cfg.v;
        row.position = step;
        row.kv = seqs[static_cast<size_t>(i)].get();
        row.sample = true;
        MLS_CHECK(row.kv->reserve(row.position));
        batch.push_back(row);
      }
      engine.step(batch);
    }
    return std::vector<comm::Comm>{};
  });
}

}  // namespace mls::verify
