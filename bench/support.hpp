// Shared support for the experiment benches: aligned table printing, a wall
// clock, and the standard instance builders the experiments sweep over.
//
// Every bench binary prints its experiment table(s) first (the rows/series
// that map to the paper's claims) and then runs its
// google-benchmark micro section, so `./bench_x` with no arguments
// regenerates the experiment.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/graph/generators.hpp"
#include "src/runtime/batch_solver.hpp"
#include "src/runtime/reporter.hpp"
#include "src/runtime/scenarios.hpp"

namespace qplec::bench {

// ------------------------------------------------------------- stressors ---
// The standard large-instance stressors every single-instance scaling bench
// sweeps (bench_sharded_scaling, bench_neighbor_cache) and CI gates against.
// One definition here so the 204800-edge regular workload and the heavy-
// tailed skew workload stay identical across benches instead of each binary
// hard-coding its own sizes.
inline constexpr int kStressRegularNodes = 25600;
inline constexpr int kStressRegularDegree = 16;  // 25600*16/2 = 204800 edges
/// The power-law stressor takes 4x the regular node count (bounded-degree
/// power-law graphs are sparse; this exercises hub skew, not scale) ...
inline constexpr int kStressPowerLawNodeFactor = 4;
/// Exponent: the sweep-wide default, so the scenario path (batch_solve
/// --stressors goes through make_family_graph) and the raw bench graphs
/// genuinely share one definition.
inline constexpr double kStressPowerLawGamma = kPowerLawDefaultGamma;
/// ... with max expected degree 8x the regular stressor's degree.
inline constexpr double kStressPowerLawDegreeFactor = 8.0;
inline constexpr std::uint64_t kStressSeed = 42;

/// The regular stressor at a custom scale (CI runs reduced --nodes sweeps on
/// its runners; defaults give the canonical 204800-edge instance).
inline Graph make_regular_stressor(int nodes = kStressRegularNodes,
                                   int degree = kStressRegularDegree) {
  return make_random_regular(nodes, degree, kStressSeed);
}

/// The heavy-tailed skew stressor matched to a regular sweep of the given
/// size (node/degree factors above).
inline Graph make_power_law_stressor(int regular_nodes = kStressRegularNodes,
                                     int regular_degree = kStressRegularDegree) {
  return make_power_law(regular_nodes * kStressPowerLawNodeFactor, kStressPowerLawGamma,
                        kStressPowerLawDegreeFactor * regular_degree, kStressSeed);
}

/// Fixed-width markdown-style table writer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  Table& row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  void print() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i) width[i] = headers_[i].size();
    for (const auto& r : rows_) {
      for (std::size_t i = 0; i < r.size() && i < width.size(); ++i) {
        width[i] = std::max(width[i], r[i].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      std::fputs("|", stdout);
      for (std::size_t i = 0; i < headers_.size(); ++i) {
        const std::string& c = i < cells.size() ? cells[i] : std::string();
        std::printf(" %-*s |", static_cast<int>(width[i]), c.c_str());
      }
      std::fputs("\n", stdout);
    };
    print_row(headers_);
    std::fputs("|", stdout);
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      std::printf("%s|", std::string(width[i] + 2, '-').c_str());
    }
    std::fputs("\n", stdout);
    for (const auto& r : rows_) print_row(r);
    std::fputs("\n", stdout);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int decimals = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

inline std::string fmt(std::int64_t v) { return std::to_string(v); }
inline std::string fmt(int v) { return std::to_string(v); }
inline std::string fmt(std::uint64_t v) { return std::to_string(v); }

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double ms() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                     start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void banner(const char* experiment, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("  claim under test: %s\n", claim);
  std::printf("==============================================================\n\n");
}

/// Runs a scenario manifest through the parallel batch runtime and writes the
/// machine-readable trajectory file BENCH_<name>.json next to the binary.
/// The experiment tables stay human-readable; the JSON is what perf tracking
/// consumes.  threads <= 0 uses the hardware concurrency.
inline BatchReport run_batch(const char* name, const std::vector<Scenario>& manifest,
                             int threads = 0) {
  ExecConfig config;
  config.workers = threads;
  const BatchReport report = BatchSolver(config).run(manifest);
  BenchReporter reporter;
  reporter.set("bench", name).set("algorithm", "bko_podc2020");
  const std::string path = std::string("BENCH_") + name + ".json";
  reporter.write_json_file(report, path);
  std::printf("[%s] %zu scenarios on %d threads: %.1f ms wall, %.0f edges/s -> %s\n\n",
              name, report.results.size(), report.num_threads, report.wall_ms,
              report.edges_per_sec(), path.c_str());
  return report;
}

}  // namespace qplec::bench
