// MetricsRegistry — the process-wide metrics spine of qplec.
//
// Three instrument kinds, all safe to hit from any ExecBackend lane or
// service worker:
//
//   * Counter — monotone event count.  Increments land in one of a fixed set
//     of cache-line-padded cells (the LaneScratch layout, see
//     src/dist/backend.hpp) selected by the caller's lane, so parallel
//     increments never share a line; value() folds the cells in cell order.
//     Because every count is algorithm-determined (not wall-clock sampled),
//     the folded total is bit-identical for any lane count.
//   * Gauge — a settable level (queue depth, busy workers).
//   * Histogram — fixed upper-bound buckets plus sum/count/min/max;
//     snapshots expose p50/p95/p99 estimated by linear interpolation inside
//     the bucket containing the rank (the overflow bucket interpolates
//     toward the observed max).
//
// Determinism contract: metrics are observers only.  Nothing in this layer
// feeds a value back into the solver, so metrics-on and metrics-off solves
// are bit-identical (pinned by tests/test_obs.cpp); only *timing* series
// (histograms over wall-clock) are non-deterministic, exactly like the
// PassTimer sinks they extend.
//
// Handles returned by counter()/gauge()/histogram() are stable for the
// registry's lifetime — resolve once, keep the reference, hit it on the hot
// path.  Every instrument consults the registry's enabled flag on write, so
// ExecConfig{.metrics = false} turns the whole layer into a handful of
// relaxed atomic loads.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace qplec::obs {

/// Point-in-time view of one histogram: cumulative-bucket percentile
/// estimates plus the raw moments.  `bounds` are the inclusive upper bounds
/// of the finite buckets; `counts` has one extra trailing entry for the
/// overflow (+Inf) bucket.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  /// Rank-interpolated quantile estimate, q in [0, 1].  0 when empty.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};

class MetricsRegistry;

/// Monotone counter with per-lane padded cells.  inc() (no lane) is for
/// serial call sites; inc(lane, n) for backend-lane code.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { inc(0, n); }
  void inc(int lane, std::uint64_t n) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    cells_[static_cast<std::size_t>(lane) & (kCells - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Folds the cells in cell order (the LaneScratch fold rule; integer
  /// addition is associative, so any lane layout folds to the same total).
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  static constexpr std::size_t kCells = 16;  // power of two (lane mask)
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  Cell cells_[kCells];
  const std::atomic<bool>* enabled_;
};

/// Settable level.  set/add are relaxed; a gauge is a report, not a lock.
class Gauge {
 public:
  void set(std::int64_t v) {
    if (enabled_->load(std::memory_order_relaxed)) value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) {
    if (enabled_->load(std::memory_order_relaxed)) value_.fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  std::atomic<std::int64_t> value_{0};
  const std::atomic<bool>* enabled_;
};

/// Fixed-bucket histogram.  Bucket i counts observations <= bounds[i]; one
/// trailing overflow bucket catches the rest.
class Histogram {
 public:
  void observe(double v);
  HistogramSnapshot snapshot() const;

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

 private:
  friend class MetricsRegistry;
  Histogram(const std::atomic<bool>* enabled, std::vector<double> bounds);

  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  const std::atomic<bool>* enabled_;
};

/// Full-registry snapshot: name-sorted instrument values (the export order).
struct RegistrySnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every layer records into.  Never destroyed
  /// (function-local static), so cached instrument references stay valid for
  /// the process lifetime.
  static MetricsRegistry& global();

  /// Master switch (ExecConfig::metrics).  Disabled instruments drop writes;
  /// reads still see whatever was recorded while enabled.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Find-or-create by name.  Names follow Prometheus conventions; a name
  /// may carry a label suffix (`qplec_x_total{status="ok"}`) which the text
  /// exporter passes through.  Histograms must be label-free.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` must be strictly increasing; ignored if the histogram exists.
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  /// The default latency bucket ladder (ms), 0.05 .. 10000 roughly
  /// exponential — wide enough for a microbench step and a multi-second
  /// solve alike.
  static std::vector<double> latency_buckets_ms();

  /// Current value of a counter, 0 if absent (tests/reports; never hot).
  std::uint64_t counter_value(const std::string& name) const;

  RegistrySnapshot snapshot() const;

  /// Prometheus text exposition format (# TYPE lines + samples, name-sorted).
  std::string prometheus_text() const;
  /// Writes prometheus_text() to `path`; false on I/O failure.
  bool write_prometheus_file(const std::string& path) const;

 private:
  mutable std::mutex mu_;  // guards the maps; instruments self-synchronize
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::atomic<bool> enabled_{true};
};

}  // namespace qplec::obs
