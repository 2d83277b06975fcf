#include "analysis/ledger.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "analysis/report.h"
#include "common/check.h"
#include "core/env.h"

namespace mls::analysis {

const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::kAllReduce: return "all_reduce";
    case OpKind::kAllGather: return "all_gather";
    case OpKind::kReduceScatter: return "reduce_scatter";
    case OpKind::kBroadcast: return "broadcast";
    case OpKind::kBarrier: return "barrier";
    case OpKind::kSplit: return "split";
    case OpKind::kSend: return "send";
    case OpKind::kRecv: return "recv";
  }
  return "?";
}

bool records_match(const CommRecord& a, const CommRecord& b) {
  if (a.kind != b.kind || a.async != b.async) return false;
  switch (a.kind) {
    case OpKind::kBarrier:
    case OpKind::kSplit:  // colors legitimately differ per rank
      return true;
    case OpKind::kAllReduce:
      return a.count == b.count && a.reduce_op == b.reduce_op &&
             a.dtype == b.dtype;
    case OpKind::kAllGather:
    case OpKind::kReduceScatter:
    case OpKind::kBroadcast:
      return a.count == b.count && a.dim == b.dim && a.dtype == b.dtype;
    default:
      return true;  // p2p records are never cross-rank validated
  }
}

// ------------------------------------------------------------- Options

namespace {
std::mutex g_opts_mu;
std::optional<Options> g_opts_override;
}  // namespace

Options Options::from_env() {
  using core::Env;
  Options o;
  const bool all = Env::flag("MLS_COMM_ANALYZE", false);
  o.validate = Env::flag("MLS_COMM_VALIDATE", all);
  o.watchdog = Env::flag("MLS_COMM_WATCHDOG", all);
  o.watchdog_sec = Env::real("MLS_COMM_WATCHDOG_SEC", o.watchdog_sec);
  o.flight_depth =
      static_cast<int>(Env::integer("MLS_COMM_FLIGHT_DEPTH", o.flight_depth));
  o.leak_fatal = Env::flag("MLS_LEAK_FATAL", o.leak_fatal);
  return o;
}

Options Options::effective() {
  {
    std::lock_guard<std::mutex> lock(g_opts_mu);
    if (g_opts_override) return *g_opts_override;
  }
  return from_env();
}

ScopedOptions::ScopedOptions(Options o) {
  std::lock_guard<std::mutex> lock(g_opts_mu);
  had_prev_ = g_opts_override.has_value();
  if (had_prev_) prev_ = *g_opts_override;
  g_opts_override = o;
}

ScopedOptions::~ScopedOptions() {
  std::lock_guard<std::mutex> lock(g_opts_mu);
  if (had_prev_) {
    g_opts_override = prev_;
  } else {
    g_opts_override.reset();
  }
}

// ----------------------------------------------------------- SiteGuard

namespace {
thread_local const char* t_site = nullptr;
}  // namespace

SiteGuard::SiteGuard(const char* site) : prev_(t_site) { t_site = site; }
SiteGuard::~SiteGuard() { t_site = prev_; }
const char* SiteGuard::current() { return t_site; }

// ----------------------------------------------------------- leak count

namespace {
std::atomic<int64_t> g_handle_leaks{0};
std::atomic<int64_t> g_begin_order{0};  // CommRecord::order
}  // namespace

int64_t handle_leaks() { return g_handle_leaks.load(std::memory_order_relaxed); }
void reset_handle_leaks() { g_handle_leaks.store(0, std::memory_order_relaxed); }
void note_handle_leaks(int64_t n) {
  g_handle_leaks.fetch_add(n, std::memory_order_relaxed);
}

// --------------------------------------------------------------- Ledger

Ledger::Ledger(std::string group, int size, Options opts)
    : group_(std::move(group)),
      size_(size),
      opts_(opts),
      epoch_(std::chrono::steady_clock::now()) {
  MLS_CHECK_GE(size_, 1);
  ranks_.reserve(static_cast<size_t>(size_));
  for (int r = 0; r < size_; ++r) ranks_.push_back(std::make_unique<RankLog>());
}

double Ledger::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void Ledger::set_failure_handler(std::function<void(const std::string&)> fn) {
  std::lock_guard<std::mutex> lock(failure_mu_);
  on_failure_ = std::move(fn);
}

void Ledger::fail(const std::string& report) {
  std::function<void(const std::string&)> handler;
  {
    std::lock_guard<std::mutex> lock(failure_mu_);
    handler = on_failure_;
  }
  if (handler) handler(report);
  throw Error(report);
}

int64_t Ledger::begin(int rank, CommRecord rec) {
  auto& rl = *ranks_[static_cast<size_t>(rank)];
  rec.start = now();
  if (rec.site.empty()) {
    const char* s = SiteGuard::current();
    rec.site = s ? s : "(untagged)";
  }
  {
    std::lock_guard<std::mutex> lock(rl.mu);
    rec.id = rl.next_id++;
    // Under the rank lock, so order agrees with id within one ledger.
    rec.order = g_begin_order.fetch_add(1, std::memory_order_relaxed);
    if (is_collective(rec.kind)) rec.seq = rl.next_seq++;
    rl.history.push_back(rec);
    // Trim completed history beyond the flight depth; in-flight events
    // are pinned so the watchdog can always see them.
    while (rl.history.size() >
               static_cast<size_t>(std::max(1, opts_.flight_depth)) &&
           rl.history.front().end != 0) {
      rl.history.pop_front();
    }
  }
  if (opts_.validate && is_collective(rec.kind)) {
    if (rank == 0) {
      publish(rec);
    } else {
      validate(rank, rec);
    }
  }
  return rec.id;
}

void Ledger::end(int rank, int64_t id) {
  if (id < 0) return;
  auto& rl = *ranks_[static_cast<size_t>(rank)];
  const double t = now();
  std::lock_guard<std::mutex> lock(rl.mu);
  for (auto it = rl.history.rbegin(); it != rl.history.rend(); ++it) {
    if (it->id == id) {
      it->end = t;
      return;
    }
  }
}

void Ledger::publish(const CommRecord& rec) {
  // Consecutive collectives at rank 0 are ordered by the collectives'
  // own rendezvous (and by the one-in-flight ordering contract), so the
  // plain slot write below is never concurrent with another publish.
  pub_[static_cast<size_t>(rec.seq % kPubRing)] = rec;
  pub_seq_.store(rec.seq, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(pub_mu_);
  }
  pub_cv_.notify_all();
}

std::vector<CommRecord> Ledger::last_done(int rank, int k) const {
  const auto& rl = *ranks_[static_cast<size_t>(rank)];
  std::vector<CommRecord> out;
  std::lock_guard<std::mutex> lock(rl.mu);
  for (auto it = rl.history.rbegin(); it != rl.history.rend(); ++it) {
    if (it->end == 0) continue;
    out.push_back(*it);
    if (static_cast<int>(out.size()) >= k) break;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

void Ledger::validate(int rank, const CommRecord& rec) {
  // Fast path: rank 0 has already entered this (or a later) collective.
  if (pub_seq_.load(std::memory_order_acquire) < rec.seq) {
    const auto deadline = std::chrono::duration<double>(
        opts_.watchdog_sec > 0 ? opts_.watchdog_sec : 30.0);
    std::unique_lock<std::mutex> lock(pub_mu_);
    const bool ok = pub_cv_.wait_for(lock, deadline, [&] {
      return pub_seq_.load(std::memory_order_acquire) >= rec.seq;
    });
    lock.unlock();
    if (!ok) {
      fail(format_publish_stall(group_, rank, rec,
                                pub_seq_.load(std::memory_order_acquire),
                                deadline.count(),
                                last_done(rank, opts_.flight_depth)));
    }
  }
  const CommRecord& canon = pub_[static_cast<size_t>(rec.seq % kPubRing)];
  MLS_CHECK_EQ(canon.seq, rec.seq) << "publish ring wrapped in " << group_;
  if (!records_match(canon, rec)) {
    fail(format_mismatch(group_, 0, canon, rank, rec,
                         last_done(rank, opts_.flight_depth)));
  }
}

std::vector<std::vector<CommRecord>> Ledger::snapshot() const {
  std::vector<std::vector<CommRecord>> out;
  out.reserve(static_cast<size_t>(size_));
  for (const auto& rl : ranks_) {
    std::lock_guard<std::mutex> lock(rl->mu);
    out.emplace_back(rl->history.begin(), rl->history.end());
  }
  return out;
}

}  // namespace mls::analysis
