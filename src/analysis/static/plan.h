// Plan: the per-rank collective schedule the static checks run over
// (DESIGN.md §12).
//
// A Plan is recorded from the real training and decode code
// (analysis/static/record.h): every event is exactly the runtime
// ledger's analysis::CommRecord plus the name of the group it ran in,
// so records_match / format_record / format_mismatch apply to it
// verbatim. Hand-built plans (the seeded mis-plan tests, mls-verify
// --demo-failure) are written as event literals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/ledger.h"

namespace mls::verify {

// One comm event at one world rank, inside one analyzer group. `peer`
// is the GROUP rank of the p2p peer, as at runtime.
struct PlanEvent : analysis::CommRecord {
  std::string group;  // analyzer group name this event runs in
};

// An analyzer group: name + member world ranks. Members are ascending
// world ranks, and their position IS the group rank — the same
// convention Comm::split derives from split colors.
struct Group {
  std::string name;
  std::vector<int> members;
  int size() const { return static_cast<int>(members.size()); }
  int rank_of(int world_rank) const;  // group rank, -1 if not a member
};

// A complete plan: per-world-rank event programs (issue order — one
// thread is one rank, exactly like the runtime) plus the group table.
struct Plan {
  int world_size = 1;
  std::vector<std::vector<PlanEvent>> ranks;  // [world_rank] -> events
  std::vector<Group> groups;

  explicit Plan(int world = 1);

  // Registers a group (idempotent by name; members must then agree) and
  // returns its index into `groups`.
  int add_group(const std::string& name, std::vector<int> members);
  const Group* find_group(const std::string& name) const;

  // This member's events of `group`, in issue order.
  std::vector<PlanEvent> events_of(const std::string& group,
                                   int world_rank) const;

  // Events over all ranks.
  int64_t num_events() const;
};

}  // namespace mls::verify
