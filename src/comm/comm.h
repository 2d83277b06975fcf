// Comm: a per-rank handle onto a simulated communicator (a group of
// ranks sharing collectives), analogous to an NCCL communicator.
//
// Ranks are threads; collectives are implemented with the *actual ring
// algorithms* used by NCCL for large messages:
//   * all-reduce  = ring reduce-scatter + ring all-gather (exactly the
//     decomposition the paper leans on in §4.2.2 to argue sequence
//     parallelism adds no communication volume),
//   * all-gather / reduce-scatter = the corresponding single phase.
// Each rank's TrafficStats records the bytes it receives per ring step,
// so tests can assert the paper's volume claims exactly:
//   all-reduce moves 2(t-1)/t · n bytes per rank,
//   reduce-scatter and all-gather move (t-1)/t · n bytes each.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "comm/mailbox.h"
#include "tensor/tensor.h"

namespace mls::analysis {
struct CommRecord;
}

namespace mls::comm {

class HandleRegistry;

struct TrafficStats {
  int64_t bytes_received = 0;  // ring-step bytes into this rank
  int64_t all_reduce_count = 0;
  int64_t all_gather_count = 0;
  int64_t reduce_scatter_count = 0;
  int64_t broadcast_count = 0;
  int64_t p2p_send_count = 0;
  int64_t p2p_bytes_sent = 0;
  int64_t p2p_recv_count = 0;
  int64_t p2p_bytes_received = 0;
  void reset() { *this = TrafficStats{}; }
  bool operator==(const TrafficStats&) const = default;
};

class World;

enum class ReduceOp { Sum, Max };

// Completion handle of a nonblocking operation (the NCCL-group /
// MPI_Request analogue). The operation runs on the rank's comm stream;
// the handle becomes done when it finishes there.
class CommHandle {
 public:
  CommHandle() = default;
  bool valid() const { return state_ != nullptr; }
  // Poll without blocking. An invalid handle is trivially done.
  bool done() const;
  // Blocks until the operation completes on the comm stream; rethrows
  // any error the operation raised there (e.g. a poisoned communicator).
  void wait();
  // wait(), then the operation's output tensor (meaningful for
  // iall_gather / ireduce_scatter / irecv; a default tensor for
  // in-place and send operations).
  Tensor result();
  // Declares that this handle will intentionally never be waited (e.g.
  // a best-effort send raced with shutdown). Suppresses the analyzer's
  // leaked-handle diagnostic for it; the operation itself still runs to
  // completion on the comm stream.
  void abandon();

 private:
  friend class Comm;
  friend class HandleRegistry;
  struct State;
  std::shared_ptr<State> state_;
};

class Comm {
 public:
  Comm() = default;

  // Creates all rank handles of a fresh communicator. Handle i must be
  // used only by (one) thread acting as rank i. `name` labels the group
  // in analyzer diagnostics (split() derives child names from it).
  static std::vector<Comm> create_group(int size, std::string name = "world");

  int rank() const { return rank_; }
  int size() const;
  bool valid() const { return world_ != nullptr; }

  // In-place all-reduce (ring RS + ring AG). Max is used by the
  // vocab-parallel cross-entropy's stable-softmax reduction.
  void all_reduce(Tensor& t, ReduceOp op = ReduceOp::Sum);
  // Gathers equal shards from every rank along `dim`; all ranks return
  // the full tensor. (dim 0 — the sequence dimension in [s,b,h] layout —
  // is the fast path used by the paper's g operator.)
  Tensor all_gather(const Tensor& shard, int dim = 0);
  // Sums `full` across ranks, then returns this rank's chunk along
  // `dim` (which must be divisible by the group size). The paper's ḡ.
  Tensor reduce_scatter(const Tensor& full, int dim = 0);
  void broadcast(Tensor& t, int root);
  void barrier();

  // Collective: partitions ranks by color into sub-communicators and
  // returns this rank's handle in its sub-group. Used to build the
  // tensor-parallel × pipeline-parallel grid.
  Comm split(int color) const;

  // Point-to-point (ranks are this communicator's ranks).
  void send(int dst, int tag, const Tensor& t);
  Tensor recv(int src, int tag);

  // --- nonblocking variants --------------------------------------------
  // Each enqueues the corresponding blocking operation onto this rank's
  // comm stream and returns immediately; results and TrafficStats are
  // identical to the blocking versions by construction (stats update
  // when the operation executes — wait() the handle before comparing).
  // Ordering contract (as with nonblocking NCCL): all ranks must submit
  // the same collective sequence per communicator, and a rank must not
  // run another collective on the same communicator — blocking or not —
  // while one is still in flight.
  CommHandle iall_reduce(Tensor& t, ReduceOp op = ReduceOp::Sum);
  CommHandle iall_gather(const Tensor& shard, int dim = 0);
  CommHandle ireduce_scatter(const Tensor& full, int dim = 0);
  // isend clones eagerly on the calling thread: the caller may release
  // the tensor's storage as soon as the call returns.
  CommHandle isend(int dst, int tag, const Tensor& t);
  CommHandle irecv(int src, int tag);

  // Injected wire latency: every rank sleeps `sec_per_byte * bytes_moved
  // + sec_fixed` at the end of each collective / recv on this
  // communicator. On the nonblocking path the sleep happens on the comm
  // stream, so compute can hide it — the knob bench_overlap turns.
  void set_injected_comm_latency(double sec_per_byte, double sec_fixed = 0);

  TrafficStats& stats() { return *stats_; }
  const TrafficStats& stats() const { return *stats_; }

  // Analyzer group name ("world", "world/c3", ...). Empty for an
  // invalid handle. The static verifier keys its per-group plans on
  // these names (analysis/static/record.h).
  std::string group_name() const;

  // Snapshot of this communicator's analyzer ledger: the retained
  // CommRecord history per group rank, oldest first (see
  // analysis::Ledger::snapshot). Empty when the analyzer is off;
  // trimmed to Options::flight_depth events per rank — raise it
  // (ScopedOptions) before the run to retain everything. Pure read;
  // costs nothing unless called.
  std::vector<std::vector<analysis::CommRecord>> ledger_history() const;

  // Unblocks every rank of this communicator (and sub-communicators)
  // with an error; called when a rank fails. The reason is embedded in
  // the error every unblocked rank throws, so the original diagnostic
  // (a collective-mismatch report, a watchdog dump) survives fan-out.
  void poison(const std::string& reason = "another rank failed");

  // The FIRST poison reason recorded anywhere in this communicator's
  // hierarchy (parent or any split descendant), or "" when healthy.
  // Elastic recovery logs this as the root cause; secondary "another
  // rank failed" fan-out errors never overwrite it.
  std::string poison_reason() const;

  // Blocks until every task already enqueued on this rank's comm stream
  // has finished, swallowing their errors (each nonblocking op delivers
  // its own error through its CommHandle). Elastic recovery calls this
  // to quiesce in-flight i* operations before tearing a world down.
  void drain();

 private:
  Comm(std::shared_ptr<World> world, int rank);

  // Enqueues `op` (applied to a non-owning alias of this rank handle)
  // onto the comm stream and returns its completion handle.
  CommHandle launch(std::function<Tensor(Comm&)> op, const char* what);
  void inject_latency(int64_t bytes) const;

  std::shared_ptr<World> world_;
  int rank_ = 0;
  std::shared_ptr<TrafficStats> stats_;
  // Leaked-CommHandle detector (see CommHandle::abandon). Shared across
  // copies/aliases of this rank handle; the pending-handle audit runs
  // when the last copy drops. Null when leak checking is off.
  std::shared_ptr<HandleRegistry> handles_;
};

}  // namespace mls::comm
