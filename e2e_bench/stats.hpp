// Summary statistics and the metric report of the end-to-end benchmark.
//
// Everything here is pure and unit-tested (test_e2e_bench.cpp): the
// percentile rule, span self time, failure counting and the report that
// carries every metric the benchmark prints.  BENCHMARK.json at the
// repository root is the one list of metric names and units; run.py refuses
// a result whose metric set differs from it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/service/solve_service.hpp"

namespace qplec::e2e {

/// Linear-interpolation percentile (p in [0, 100]) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double p);

inline double median(std::vector<double> samples) { return percentile(std::move(samples), 50.0); }

/// The tail a timing is reported at: the highest of {50, 90, 99, 99.9} that
/// has at least ten samples beyond its nearest rank.  `p` is 0 when even the
/// median has fewer than ten samples beyond it (fewer than 20 samples).
struct TailPercentile {
  double p = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};
TailPercentile tail_percentile(const std::vector<double>& samples);

/// Samples strictly beyond the nearest rank of percentile p among n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// A closed interval of time on one clock (microseconds).
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Self time of `parent`: its duration minus the part of it that the union
/// of `children` covers.  Children may overlap each other and may stick out
/// of the parent; only their union clipped to the parent is subtracted.
double self_time(Interval parent, std::vector<Interval> children);

/// Outcome counting of one run: every submitted request is attempted, and
/// every terminal status other than kOk (including queue_full rejects) is a
/// failure.
struct OutcomeTally {
  std::int64_t attempted = 0;
  std::int64_t ok = 0;
  std::int64_t failed = 0;

  void record(SolveStatus status) {
    ++attempted;
    if (status == SolveStatus::kOk) {
      ++ok;
    } else {
      ++failed;
    }
  }
  double failed_frac() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

/// True iff `name` is non-empty and made of [A-Za-z0-9_.-] only.
bool valid_metric_name(std::string_view name);

/// The metrics of one run in the order they were set, printed as
/// `  name = value unit` lines and emitted as the result JSON line.
class MetricReport {
 public:
  /// Adds a metric; throws std::invalid_argument on a malformed or repeated
  /// name or an empty unit, so a typo cannot reach the report.
  void set(std::string_view name, std::string_view unit, double value);

  /// Prints one line per metric to stdout.
  void print() const;
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string json(bool correct, const OutcomeTally& tally) const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value = 0.0;
  };
  std::vector<Entry> entries_;
};

}  // namespace qplec::e2e
