// Span recorder of the benchmark's traced run.
//
// The traced run wraps each call into a layer's public function in a span:
// name, start, end, parent span and the id of the request it belongs to.
// Spans are kept in memory and written out once, at the end, as a Chrome
// trace (chrome://tracing, Perfetto).  Spans are recorded only from the
// benchmark's own code; nothing inside the library is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

namespace qplec::e2e {

struct SpanRecord {
  const char* name = "";  ///< static string
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  ///< index into Tracer::spans(), -1 for a request root
  int request = 0;
};

class Tracer {
 public:
  /// Closes its span when destroyed; spans opened while it is alive become
  /// its children.
  class Scope {
   public:
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    friend class Tracer;
    Scope(Tracer& tracer, int index) : tracer_(tracer), index_(index) {}
    Tracer& tracer_;
    int index_;
  };

  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Request id stamped on every span opened from now on.
  void set_request(int request) { request_ = request; }

  [[nodiscard]] Scope span(const char* name);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time (us) of every span: its duration minus the part its direct
  /// children cover.
  std::vector<double> self_times_us() const;

  /// Chrome trace-event JSON ("X" events, args carry request and parent).
  void write_chrome_trace(std::ostream& out) const;

 private:
  void close(int index);
  double now_us() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  int request_ = 0;
};

}  // namespace qplec::e2e
