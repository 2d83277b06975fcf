// The recorder: a Plan taken from one run of the real code
// (DESIGN.md §12).
//
// record() runs the real training or decode code once on a tiny real
// world with the comm analyzer on (validate + watchdog, the whole
// history retained) and reads each rank's program back from the
// runtime ledgers (Comm::ledger_history). Single-rank groups record
// too, and CommRecord::order merges one rank's groups back into the
// order it issued them, so the Plan is exactly what every rank did.
// The static checks (verify.h) then run over it; a new parallel plan
// or schedule needs no second description of its collectives.
//
// A failure of the run does not abort the caller: a mismatch the
// ledger's validator catches becomes a "schedule" violation, a hang
// the watchdog catches a "deadlock" violation — each carrying the
// runtime's report, which names the call sites involved — and any
// other error a "run" violation. After a clean run, predict_traffic
// must equal every communicator's TrafficStats ("traffic" otherwise),
// so the byte model is checked on every recorded config.
#pragma once

#include <functional>
#include <vector>

#include "analysis/static/plan.h"
#include "analysis/static/verify.h"
#include "comm/comm.h"
#include "model/config.h"

namespace mls::verify {

struct Recording {
  Plan plan;
  std::vector<Violation> violations;  // from the run itself, see above
};

// Runs `body` on every rank of a fresh `world_size`-rank world. `body`
// returns the communicators it split off `world`: the group table is
// read from their names and ranks, so a group that issued nothing (the
// dp group at d = 1) still counts.
using RankBody = std::function<std::vector<comm::Comm>(comm::Comm& world)>;
Recording record(int world_size, const RankBody& body);

// One PipelineEngine::run_iteration over a t*p*d world (interleaved
// 1F1B when cfg.interleave_m > 1).
Recording record_train_iteration(const model::ModelConfig& cfg,
                                 bool overlap_recompute = false);

// `steps` DecodeEngine::step calls over `rows` sampling sequences on a
// world of t ranks (serve runs the whole model on the world group).
Recording record_decode(const model::ModelConfig& cfg, int steps,
                        int64_t rows);

}  // namespace mls::verify
