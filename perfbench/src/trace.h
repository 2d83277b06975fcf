// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around the calls
// it makes into each library layer. A span has a static name, a track
// (the simulated rank whose thread recorded it), a start and end time,
// the span that was open on the same thread when it began (its
// parent), and an optional request/step id. Nothing is written until
// the run ends; write_chrome() then exports every span as Chrome-trace
// JSON with one track per rank, each event carrying its self time
// (duration minus the time its child spans cover).
//
// When tracing is off a Span costs one relaxed atomic load.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

// Track for spans that are not tied to a rank thread (request
// lifetimes reconstructed from completions).
constexpr int kRequestTrack = 1000;
// Track for the main thread (set-up spans around spmd::run).
constexpr int kMainTrack = 1001;

void enable(bool on);
bool enabled();
// Drops every recorded span.
void reset();
// The calling thread's track (its rank); 0 until set.
void set_track(int track);

class Span {
 public:
  // `name` must outlive the trace (a string literal).
  explicit Span(const char* name, int64_t id = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;  // slot in the thread's buffer; -1 when off
};

// Records an already-timed span (start/end in now_s() seconds) with no
// parent, e.g. a request's submit-to-finish lifetime.
void add(const char* name, int track, int64_t id, double start, double end);

struct Record {
  const char* name;
  int track;
  int64_t id;
  double start, end;  // seconds
  int parent;         // index into the collected vector, -1 for roots
};
// Every span recorded since the last reset, merged across threads.
std::vector<Record> collect();
// Self time of each record in `recs` (seconds).
std::vector<double> self_times(const std::vector<Record>& recs);

// Writes Chrome-trace JSON ("traceEvents", one tid per track) with the
// resolved configuration as metadata. Returns false on I/O failure.
bool write_chrome(const std::string& path, const std::vector<Record>& recs,
                  const std::string& config_json);

}  // namespace perfbench::trace
