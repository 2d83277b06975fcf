#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>

#include "bench.h"

namespace perfbench::trace {
namespace {

struct Local {
  const char* name;
  int64_t id;
  double start, end;
  int parent;  // index in the same thread buffer
};

struct Buffer {
  int track = 0;
  std::vector<Local> spans;
  std::vector<int> open;  // stack of open span indices
};

std::atomic<bool> g_on{false};
std::mutex g_mu;  // guards g_buffers, g_generation, g_external
std::vector<std::unique_ptr<Buffer>> g_buffers;
std::vector<Record> g_external;
uint64_t g_generation = 1;

thread_local Buffer* t_buf = nullptr;
thread_local uint64_t t_generation = 0;
thread_local int t_track = 0;

Buffer& local_buffer() {
  std::lock_guard<std::mutex> lock(g_mu);
  if (t_buf == nullptr || t_generation != g_generation) {
    g_buffers.push_back(std::make_unique<Buffer>());
    t_buf = g_buffers.back().get();
    t_generation = g_generation;
  }
  t_buf->track = t_track;
  return *t_buf;
}

}  // namespace

void enable(bool on) { g_on.store(on, std::memory_order_relaxed); }
bool enabled() { return g_on.load(std::memory_order_relaxed); }

void reset() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_buffers.clear();
  g_external.clear();
  ++g_generation;
}

void set_track(int track) { t_track = track; }

Span::Span(const char* name, int64_t id) {
  if (!enabled()) return;
  Buffer& b = local_buffer();
  const int parent = b.open.empty() ? -1 : b.open.back();
  index_ = static_cast<int>(b.spans.size());
  b.spans.push_back({name, id, now_s(), 0.0, parent});
  b.open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  Buffer& b = *t_buf;
  b.spans[static_cast<size_t>(index_)].end = now_s();
  b.open.pop_back();
}

void add(const char* name, int track, int64_t id, double start, double end) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(g_mu);
  g_external.push_back({name, track, id, start, end, -1});
}

std::vector<Record> collect() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<Record> out;
  for (const auto& b : g_buffers) {
    const int base = static_cast<int>(out.size());
    for (const Local& s : b->spans) {
      out.push_back({s.name, b->track, s.id, s.start, s.end,
                     s.parent < 0 ? -1 : base + s.parent});
    }
  }
  out.insert(out.end(), g_external.begin(), g_external.end());
  return out;
}

std::vector<double> self_times(const std::vector<Record>& recs) {
  std::vector<double> self(recs.size());
  for (size_t i = 0; i < recs.size(); ++i) self[i] = recs[i].end - recs[i].start;
  for (const Record& r : recs) {
    if (r.parent >= 0) self[static_cast<size_t>(r.parent)] -= r.end - r.start;
  }
  return self;
}

bool write_chrome(const std::string& path, const std::vector<Record>& recs,
                  const std::string& config_json) {
  std::ofstream f(path);
  if (!f) return false;
  double t0 = recs.empty() ? 0.0 : recs.front().start;
  for (const Record& r : recs) t0 = std::min(t0, r.start);
  const std::vector<double> self = self_times(recs);
  std::set<int> tracks;
  f << "{\"metadata\":" << config_json << ",\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    tracks.insert(r.track);
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                  "\"parent\":%d,\"self_us\":%.3f}}",
                  first ? "" : ",\n", r.name, r.track, (r.start - t0) * 1e6,
                  (r.end - r.start) * 1e6, static_cast<long long>(r.id),
                  r.parent, self[i] * 1e6);
    f << buf;
    first = false;
  }
  for (int t : tracks) {
    const std::string label = t == kRequestTrack  ? "requests"
                              : t == kMainTrack   ? "main"
                                                  : "rank " + std::to_string(t);
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                  "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",\n", t, label.c_str());
    f << buf;
    first = false;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench::trace
