#include "analysis/static/budget.h"

#include <cmath>
#include <sstream>

#include "serve/kv_cache.h"

namespace mls::verify {

StaticBudget compute_budget(const model::ModelConfig& cfg, const Plan& plan) {
  StaticBudget b;
  b.technique = memory::technique_of(cfg);
  b.act_bytes_per_layer = memory::act_bytes_per_layer(cfg, b.technique);
  b.total_first_stage =
      memory::total_activation_bytes_first_stage(cfg, b.technique);
  b.model_state_bytes = memory::model_state_bytes_per_rank(cfg).total();
  b.kv_bytes_per_token =
      serve::kv_layout(cfg, cfg.t, 1).logical_bytes_per_token();
  for (const Group& g : plan.groups) {
    for (int r = 0; r < g.size(); ++r) {
      const comm::TrafficStats st = predict_traffic(plan, g.name, r);
      b.train_wire_bytes +=
          st.bytes_received + st.p2p_bytes_sent;  // sent==recv'd on the wire
    }
  }
  return b;
}

PressureForecast forecast_pressure(const model::ModelConfig& cfg,
                                   const memory::PressureConfig& pressure) {
  PressureForecast f;
  f.budget_bytes = pressure.budget_bytes;
  f.soft_bytes = static_cast<double>(pressure.budget_bytes) * pressure.soft_pct;
  f.hard_bytes = static_cast<double>(pressure.budget_bytes) * pressure.hard_pct;
  const double state = memory::model_state_bytes_per_rank(cfg).total();
  const core::Recompute rungs[3] = {core::Recompute::kNone,
                                    core::Recompute::kSelective,
                                    core::Recompute::kFull};
  for (int i = 0; i < 3; ++i) {
    model::ModelConfig rc = cfg;
    rc.recompute = rungs[i];
    f.resident_bytes[i] =
        state + memory::total_activation_bytes_first_stage(
                    rc, memory::technique_of(rc));
  }
  f.configured_rung = static_cast<int>(cfg.recompute);
  f.can_trip_soft = f.resident_bytes[f.configured_rung] >= f.soft_bytes;
  f.can_trip_hard = f.resident_bytes[f.configured_rung] >= f.hard_bytes;
  for (int i = 0; i < 3; ++i) {
    if (f.resident_bytes[i] < f.soft_bytes) {
      f.floor_rung = i;
      break;
    }
  }
  f.fits_at_full = f.resident_bytes[2] < f.hard_bytes;
  return f;
}

std::string PressureForecast::text() const {
  const char* rung_names[3] = {"none", "selective", "full"};
  std::ostringstream os;
  os << "pressure forecast (budget " << budget_bytes << " B, soft "
     << static_cast<int64_t>(soft_bytes) << " B, hard "
     << static_cast<int64_t>(hard_bytes) << " B):\n";
  for (int i = 0; i < 3; ++i) {
    os << "  recompute=" << rung_names[i] << ": resident "
       << static_cast<int64_t>(resident_bytes[i]) << " B"
       << (i == configured_rung ? "  <- configured" : "") << "\n";
  }
  os << "  configured rung " << (can_trip_hard ? "trips the HARD watermark"
                                 : can_trip_soft
                                     ? "trips the soft watermark"
                                     : "stays under the soft watermark")
     << "; ";
  if (floor_rung >= 0) {
    os << "governor settles at recompute=" << rung_names[floor_rung];
  } else if (fits_at_full) {
    os << "even full recompute sits in the hysteresis band";
  } else {
    os << "no rung fits: expect MemoryPressureError / shedding";
  }
  return os.str();
}

std::vector<Violation> check_budget_claim(const model::ModelConfig& cfg,
                                          double claimed_bytes_per_layer,
                                          const std::string& claim_site) {
  const memory::Technique tech = memory::technique_of(cfg);
  const double expected = memory::act_bytes_per_layer(cfg, tech);
  if (claimed_bytes_per_layer == expected) return {};
  std::ostringstream os;
  os << "Table-2 byte mismatch for technique '"
     << memory::technique_name(tech) << "' (s=" << cfg.s << " b=" << cfg.b
     << " h=" << cfg.h << " a=" << cfg.a << " t=" << cfg.t << "):\n"
     << "  formula (memory/activation_model.h act_bytes_per_layer): "
     << expected << " bytes/layer\n"
     << "  claimed (" << claim_site << "): " << claimed_bytes_per_layer
     << " bytes/layer\n"
     << "  drift: " << claimed_bytes_per_layer - expected << " bytes";
  return {Violation{"budget", "", os.str()}};
}

}  // namespace mls::verify
