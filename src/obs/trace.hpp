// TraceRecorder — bounded per-thread span rings, exported as Chrome
// `trace_event` JSON (load the file in chrome://tracing or ui.perfetto.dev).
//
// One process-wide recorder, off by default: every record site first checks
// one relaxed atomic, so a build with tracing compiled in but not started
// pays a single load per span site.  start() opens a session (resets the
// clock epoch and drops prior buffers); each recording thread lazily
// registers a fixed-capacity ring and appends completed spans to it,
// overwriting the OLDEST events when full — a long solve keeps its most
// recent window instead of failing or reallocating.  write_chrome_json()
// may be called after the solves quiesce (the service destructor, cli_solve
// teardown) and merges all rings sorted by timestamp.
//
// Event names and categories must be string literals (or otherwise outlive
// the session) — the ring stores pointers, never copies.
//
// Determinism: like metrics, spans are pure observers; the solver never
// reads them back.  Timestamps are wall-clock and land only in trace files,
// never in a determinism fingerprint.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace qplec::trace {

struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::int64_t ts_us = 0;   ///< offset from session epoch
  std::int64_t dur_us = 0;  ///< < 0: instant event
  int tid = 0;              ///< ring registration order
};

/// True between start() and stop().  The one check every record site makes
/// first.
bool enabled();

/// Per-thread ring capacity of the sessions SolveService and cli_solve open
/// (events; oldest dropped on overflow, so a long solve keeps its most
/// recent window).
inline constexpr int kRingCapacity = 8192;

/// Opens a recording session: resets the epoch, drops previous buffers, and
/// sets the per-thread ring capacity (events; clamped to >= 16).
void start(int ring_capacity);

/// Stops recording.  Buffers survive for a later write_chrome_json().
void stop();

/// Microseconds since the session epoch (0 when no session ran).
std::int64_t now_us();

/// Records a complete span [start_us, start_us + dur_us) on this thread's
/// ring.  No-op when disabled.
void complete(const char* name, const char* cat, std::int64_t start_us, std::int64_t dur_us);

/// Records an instant event at now.  No-op when disabled.
void instant(const char* name, const char* cat);

/// RAII span: records [construction, destruction) under `name`.  The
/// enabled() check happens once, at construction.
class Span {
 public:
  Span(const char* name, const char* cat);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* cat_;
  std::int64_t start_us_;  ///< -1: recording was off at construction
};

/// Events dropped to ring overflow since start() (all threads).
std::uint64_t dropped();

/// Buffered events of every ring, merged and sorted by (ts, tid).  For tests
/// and the JSON writer; call after recording threads quiesce.
std::vector<TraceEvent> snapshot_events();

/// Writes the Chrome trace_event JSON file; false on I/O failure.  Safe to
/// call whether or not the session is stopped (stop first for a consistent
/// file).
bool write_chrome_json(const std::string& path);

}  // namespace qplec::trace
