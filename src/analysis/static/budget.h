// The machine-checkable byte budget (DESIGN.md §12): Table-2 activation
// bytes, model-state bytes, serve KV bytes and total wire traffic for a
// config, from the §4 formulas and a recorded plan — plus a claim
// checker that turns a wrong byte formula into a structured two-source
// violation (the analytic model's formula vs the claimant's number).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/static/verify.h"
#include "memory/activation_model.h"
#include "memory/pressure.h"
#include "model/config.h"

namespace mls::verify {

struct StaticBudget {
  memory::Technique technique;        // Table 2 row implied by the config
  double act_bytes_per_layer = 0;     // Table 2
  double total_first_stage = 0;       // Eq 5 + interleaving + extras
  double model_state_bytes = 0;       // Fig 1 (params+grads+optimizer)
  int64_t kv_bytes_per_token = 0;     // serve: 2*2*(h/t)*L logical bytes
  // Wire traffic of one training iteration, summed over every group
  // rank of every group in the plan (bytes_received + p2p bytes).
  int64_t train_wire_bytes = 0;
};

// The budget implied by `cfg`; `plan` supplies the traffic totals (pass
// the record_train_iteration plan for the same config).
StaticBudget compute_budget(const model::ModelConfig& cfg, const Plan& plan);

// Checks a claimed per-layer activation byte count against the Table-2
// formula for the config's technique. `claim_site` names where the
// claim came from; the violation names both it and the formula.
std::vector<Violation> check_budget_claim(const model::ModelConfig& cfg,
                                          double claimed_bytes_per_layer,
                                          const std::string& claim_site);

// Pressure-plane forecast (DESIGN.md §14): given the MLS_MEM_* budget
// and watermarks, predict offline whether this config can trip them —
// and which rung of the recompute ladder the escalation governor would
// have to reach. Resident bytes per rung = model state + first-stage
// activation total with cfg.recompute overridden to that rung; the
// same §4 formulas the runtime MemoryTracker matches byte-exactly, so
// "can_trip_soft == false" is a static proof the governor stays idle.
struct PressureForecast {
  int64_t budget_bytes = 0;
  double soft_bytes = 0;
  double hard_bytes = 0;
  // Indexed by the ladder: [0]=none, [1]=selective, [2]=full.
  double resident_bytes[3] = {0, 0, 0};
  int configured_rung = 0;      // cfg.recompute as a ladder index
  bool can_trip_soft = false;   // configured rung's residency >= soft
  bool can_trip_hard = false;   // configured rung's residency >= hard
  int floor_rung = -1;          // lowest rung under soft; -1: none fits
  bool fits_at_full = false;    // full recompute stays under hard

  std::string text() const;  // mls_verify's human block
};

// `pressure` is the plane's own config (PressureConfig::from_env in
// mls_verify), so the watermark defaults live in memory/pressure.h only.
PressureForecast forecast_pressure(const model::ModelConfig& cfg,
                                   const memory::PressureConfig& pressure);

}  // namespace mls::verify
