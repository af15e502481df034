// qplec batch runtime CLI: solve a manifest of scenarios in parallel.
//
//   usage: batch_solve [--threads N] [--manifest file] [--out BENCH_batch.json]
//                      [--seed N] [--quiet] [--shards N] [--sharded-min-edges M]
//                      [--no-neighbor-cache] [--no-result-cache]
//                      [--max-queue-depth N] [--churn N]
//                      [--validation-tier off|sampled|every_round] [--stressors]
//                      [--metrics-dump metrics.prom]
//
// Without --manifest, runs the default sweep (every solver-test scenario
// plus larger regulars — see default_manifest).  Prints a per-scenario table
// to stdout and writes the machine-readable report to --out (default
// BENCH_batch.json; "-" disables).  Exit status is non-zero if any scenario
// produced an invalid coloring.
//
// --shards N routes every instance with at least --sharded-min-edges edges
// (default 20000) to the intra-instance sharded executor (src/dist), keeping
// the rest on the serial per-worker path; results are identical either way.
// All sharded solves of one batch lease a single shared worker pool (sized
// once inside BatchSolver), so --shards never multiplies thread counts.
// --no-neighbor-cache disables the incremental neighbor-color cache on every
// solve (the full-rescan reference path; identical output) — CI diffs the
// two reports to prove it.  --validation-tier sets the demoted-walk cadence
// and leaves every fingerprint identical (the CI golden gate runs an
// every_round leg against the same golden file).  --stressors appends
// large-instance stressor scenarios sized by the shared bench/support.hpp
// constants (the same 204800-edge regular + power-law parameters every
// scaling bench sweeps) to the manifest.  NOTE: scenarios go through
// build_instance — scrambled LOCAL ids, --seed honored — so their
// fingerprints intentionally differ
// from the benches' raw fixed-seed stressor graphs; the shared constants
// align the workload SHAPE, not the exact instance.  --metrics-dump writes
// the process-wide MetricsRegistry (service queue/latency series, pool lane
// time, engine cache counters) in Prometheus text format after the batch.
// --no-result-cache disables the service's memoized-outcome cache, so a
// manifest listing the same scenario twice solves it twice (with the cache
// on, the repeat is served verbatim from the first solve — bit-identical
// colors, so reports agree either way).  --max-queue-depth bounds the
// service queue; batch_solve submits the whole manifest up front, so a bound
// smaller than the manifest sheds the excess scenarios as queue_full (they
// report invalid) — it exists to demo/admission-test the knob, not for
// normal batches.  --churn N re-solves each scenario after the batch and
// applies N random edge inserts/removes through SolveService::update, printing
// whether each landed on the incremental repair path or fell back to a full
// re-solve; churn failures count into the exit status.
//
// A numeric flag value must be the whole token and in range (e.g. --shards
// and --churn >= 1); anything else is a usage error with exit
// status 2.
//
// Manifest format, one scenario per line ('#' comments):
//   <family> <size> <flavor> <policy> [seed [aux]]
//   e.g.  regular 512 two_delta practical 42 8
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "bench/support.hpp"
#include "examples/flag_parse.hpp"
#include "src/obs/metrics.hpp"
#include "src/runtime/batch_solver.hpp"
#include "src/runtime/reporter.hpp"
#include "src/runtime/scenarios.hpp"
#include "src/service/solve_service.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: batch_solve [--threads N] [--manifest file] "
               "[--out BENCH_batch.json] [--seed N] [--quiet] "
               "[--shards N] [--sharded-min-edges M] "
               "[--no-neighbor-cache] [--no-result-cache] "
               "[--max-queue-depth N] [--churn N] "
               "[--validation-tier off|sampled|every_round] [--stressors] "
               "[--metrics-dump metrics.prom]\n"
               "  --churn N: after the batch, re-solve each scenario through "
               "SolveService and apply N random edge ops (half inserts, half "
               "removes) via the incremental update path; prints a "
               "repaired/fallback summary\n");
  return 2;
}

/// The shared stressor workloads as scenarios (bench/support.hpp constants).
std::vector<qplec::Scenario> stressor_scenarios(std::uint64_t seed) {
  using namespace qplec;
  std::vector<Scenario> out;
  out.push_back(Scenario{GraphFamily::kRegular, bench::kStressRegularNodes,
                         ListFlavor::kTwoDelta, PolicyKind::kPractical, seed,
                         bench::kStressRegularDegree});
  out.push_back(Scenario{
      GraphFamily::kPowerLaw, bench::kStressRegularNodes * bench::kStressPowerLawNodeFactor,
      ListFlavor::kTwoDelta, PolicyKind::kPractical, seed,
      static_cast<int>(bench::kStressPowerLawDegreeFactor * bench::kStressRegularDegree)});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qplec;

  int threads = 0;
  int shards = 1;
  int sharded_min_edges = -1;
  std::string manifest_path;
  std::string out_path = "BENCH_batch.json";
  std::uint64_t seed = 42;
  bool neighbor_cache = true;
  bool result_cache = true;
  int max_queue_depth = 0;
  int churn_ops = 0;
  ValidationTier validation_tier = default_validation_tier();
  bool stressors = false;
  bool quiet = false;
  std::string metrics_dump;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      threads = cli::parse_flag(argv[++i], usage, 0);
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = cli::parse_flag(argv[++i], usage, 1);
    } else if (arg == "--sharded-min-edges" && i + 1 < argc) {
      sharded_min_edges = cli::parse_flag(argv[++i], usage, 0);
    } else if (arg == "--manifest" && i + 1 < argc) {
      manifest_path = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = cli::parse_flag<std::uint64_t>(argv[++i], usage);
    } else if (arg == "--no-neighbor-cache") {
      neighbor_cache = false;
    } else if (arg == "--no-result-cache") {
      result_cache = false;
    } else if (arg == "--max-queue-depth" && i + 1 < argc) {
      max_queue_depth = cli::parse_flag(argv[++i], usage, 0);
    } else if (arg == "--churn" && i + 1 < argc) {
      churn_ops = cli::parse_flag(argv[++i], usage, 1);
    } else if (arg == "--validation-tier" && i + 1 < argc) {
      const std::string tier = argv[++i];
      if (tier == "off") {
        validation_tier = ValidationTier::kOff;
      } else if (tier == "sampled") {
        validation_tier = ValidationTier::kSampled;
      } else if (tier == "every_round") {
        validation_tier = ValidationTier::kEveryRound;
      } else {
        return usage();
      }
    } else if (arg == "--metrics-dump" && i + 1 < argc) {
      metrics_dump = argv[++i];
    } else if (arg == "--stressors") {
      stressors = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      return usage();
    }
  }

  std::vector<Scenario> manifest;
  try {
    if (manifest_path.empty()) {
      manifest = default_manifest(seed);
    } else {
      std::ifstream in(manifest_path);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", manifest_path.c_str());
        return 1;
      }
      manifest = parse_manifest(in);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "manifest error: %s\n", e.what());
    return 1;
  }
  if (stressors) {
    for (const Scenario& s : stressor_scenarios(seed)) manifest.push_back(s);
  }
  if (manifest.empty()) {
    std::fprintf(stderr, "empty manifest\n");
    return 1;
  }

  ExecConfig config;
  config.workers = threads;
  config.shards = shards;
  config.use_neighbor_cache = neighbor_cache;
  config.validation_tier = validation_tier;
  if (sharded_min_edges >= 0) config.min_sharded_edges = sharded_min_edges;
  if (!result_cache) config.max_cache_entries = 0;
  config.max_queue_depth = max_queue_depth;
  const BatchSolver batch(config);

  BatchReport report;
  try {
    report = batch.run(manifest);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "batch failed: %s\n", e.what());
    return 1;
  }

  if (!metrics_dump.empty() &&
      !obs::MetricsRegistry::global().write_prometheus_file(metrics_dump)) {
    std::fprintf(stderr, "cannot write metrics %s\n", metrics_dump.c_str());
    return 1;
  }

  BenchReporter reporter;
  reporter.set("bench", "batch_solve").set("algorithm", "bko_podc2020");
  if (!quiet) reporter.write_text(report, std::cout);
  if (out_path != "-") {
    try {
      reporter.write_json_file(report, out_path);
      if (!quiet) std::fprintf(stderr, "wrote %s\n", out_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }

  int invalid = 0;
  for (const ScenarioResult& r : report.results) {
    if (!r.valid) {
      std::fprintf(stderr, "INVALID coloring for %s%s%s\n", r.scenario.name().c_str(),
                   r.error.empty() ? "" : ": ", r.error.c_str());
      ++invalid;
    }
  }

  // --churn demo: re-solve each scenario through its own SolveService (the
  // batch's service is private to BatchSolver), then push N random edge ops
  // through the incremental update path.  One scenario at a time, so
  // --max-queue-depth never sheds these.
  if (churn_ops > 0) {
    SolveService service(config);
    int repaired = 0;
    int fell_back = 0;
    int churn_failed = 0;
    for (const Scenario& s : manifest) {
      const SolveTicket base = service.submit(SolveRequest::from_scenario(s));
      if (!base.wait().ok()) {
        std::fprintf(stderr, "CHURN base solve failed for %s\n", s.name().c_str());
        ++churn_failed;
        continue;
      }
      ChurnBatch ops;
      try {
        // build_instance is pure, so this graph is bit-identical to the one
        // the service snapshot holds; ops generated here validate there.
        const ListEdgeColoringInstance instance = build_instance(s);
        ops = make_random_churn(instance.graph, churn_ops - churn_ops / 2,
                                churn_ops / 2, seed ^ s.seed);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "CHURN batch for %s: %s\n", s.name().c_str(), e.what());
        ++churn_failed;
        continue;
      }
      const SolveOutcome up = service.update(base, std::move(ops)).wait();
      if (!up.ok() || !up.valid) {
        std::fprintf(stderr, "CHURN update failed for %s%s%s\n", s.name().c_str(),
                     up.error.empty() ? "" : ": ", up.error.c_str());
        ++churn_failed;
        continue;
      }
      if (up.repaired) {
        ++repaired;
      } else {
        ++fell_back;
      }
      if (!quiet) {
        std::printf("churn %-40s %s region=%d solve_ms=%.2f\n", s.name().c_str(),
                    up.repaired ? "repaired" : "fallback", up.repair_region_edges,
                    up.solve_ms);
      }
    }
    if (!quiet) {
      std::printf("churn summary: %d repaired, %d fallback, %d failed (%d ops each)\n",
                  repaired, fell_back, churn_failed, churn_ops);
    }
    invalid += churn_failed;
  }
  return invalid == 0 ? 0 : 1;
}
