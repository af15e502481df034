// qplec command-line solver: read an edge list, produce an edge coloring.
//
//   usage: cli_solve [--algorithm bko|greedy|kw|luby|central] [--seed N]
//                    [--list-palette C] [--shards N] [--threads N]
//                    [--no-neighbor-cache] [--no-result-cache]
//                    [--max-queue-depth N]
//                    [--validation-tier off|sampled|every_round]
//                    [--deadline-ms X] [--json] [--serial-compat]
//                    [--metrics-dump metrics.prom] [--trace trace.json]
//                    [--verbose] [graph.txt]
//
// Input format (stdin if no file): "n m" header plus "u v" lines, or DIMACS
// "p edge" / "e u v"; '#' and 'c' comments are skipped.
// Output: one line per edge, "u v color", plus a summary on stderr.
// With --list-palette C the instance uses random (deg+1)-lists from [0, C)
// instead of the uniform (2*Delta-1) palette.
//
// The bko algorithm routes through qplec::SolveService (src/service), the
// same front door the batch runtime uses: --shards N runs the solve N-way
// parallel on a sharded ExecBackend (identical output), --threads caps the
// shard workers, --deadline-ms bounds the wall clock (the solve stops at a
// round boundary with status deadline_exceeded), --no-result-cache bypasses
// the service's memoized-outcome cache (one job per run makes it moot here;
// the flag exists for parity with the service surface) and --max-queue-depth
// bounds the service queue (over-capacity submits resolve queue_full).
// --json replaces the edge
// lines with one machine-readable outcome object on stdout — status, sizes,
// rounds, timers, colors hash — for scripting against the service's outcome
// surface; with an input FILE the request is submitted as a file source, so
// the service reads, scrambles and builds the instance end-to-end.
// --serial-compat bypasses the service and calls Solver::solve directly (the
// reference path; bit-identical output).  --no-neighbor-cache disables the
// incremental neighbor-color cache and --validation-tier sets the cadence of
// the demoted invariant walks (both leave the output bit-identical — they
// are the ExecConfig knobs of src/common/exec_config.hpp).  --json embeds the full
// SolverStats, RoundProfile included, as a "stats" sub-object.  --verbose
// adds wall time, per-round wall time and the ledger's phase breakdown.
//
// Observability (src/obs): --metrics-dump writes the process-wide
// MetricsRegistry in Prometheus text format after the run; --trace records
// the solve lifecycle (queue/build/solve plus every engine pass span) and
// writes Chrome trace_event JSON — open it in chrome://tracing.
//
// A numeric flag value must be the whole token and in range (e.g. --shards
// >= 1, --deadline-ms >= 0); anything else is a usage error with
// exit status 2.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "examples/flag_parse.hpp"
#include "src/coloring/baselines.hpp"
#include "src/coloring/greedy.hpp"
#include "src/coloring/validate.hpp"
#include "src/core/solver.hpp"
#include "src/graph/io.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/batch_solver.hpp"
#include "src/runtime/reporter.hpp"
#include "src/service/solve_service.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: cli_solve [--algorithm bko|greedy|kw|luby|central] "
               "[--seed N] [--list-palette C] [--shards N] [--threads N] "
               "[--no-neighbor-cache] "
               "[--no-result-cache] [--max-queue-depth N] "
               "[--recolor-budget N] [--churn-file ops.txt] "
               "[--validation-tier off|sampled|every_round] [--deadline-ms X] "
               "[--json] [--serial-compat] [--metrics-dump metrics.prom] "
               "[--trace trace.json] [--verbose] [graph.txt]\n"
               "  --churn-file: after the base solve, apply the edge churn "
               "batch ('i u v' / 'r u v' lines) via SolveService::update and "
               "print a second outcome record (bko --json only); "
               "--recolor-budget caps the repair region before the update "
               "falls back to a full re-solve\n");
  return 2;
}

/// Minimal JSON string escaping (quotes, backslashes, control characters) —
/// error messages carry file paths and assertion text verbatim, and a raw
/// quote would corrupt the one record --json exists to make parseable.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// The machine-readable outcome object --json prints on stdout: one flat
/// JSON record mirroring the SolveOutcome surface (status first, then sizes,
/// round counts, timers and the colors fingerprint).
void print_json(const qplec::SolveOutcome& out, const std::string& algorithm,
                std::int64_t initial_rounds, double wall_ms) {
  std::printf("{\n");
  std::printf("  \"status\": \"%s\",\n", qplec::status_name(out.status));
  std::printf("  \"algorithm\": \"%s\",\n", algorithm.c_str());
  std::printf("  \"nodes\": %d,\n", out.num_nodes);
  std::printf("  \"edges\": %d,\n", out.num_edges);
  std::printf("  \"delta\": %d,\n", out.max_degree);
  std::printf("  \"delta_bar\": %d,\n", out.max_edge_degree);
  std::printf("  \"palette\": %d,\n", out.palette_size);
  std::printf("  \"shards\": %d,\n", out.shards);
  std::printf("  \"rounds\": %lld,\n", static_cast<long long>(out.result.rounds));
  std::printf("  \"raw_rounds\": %lld,\n", static_cast<long long>(out.result.raw_rounds));
  std::printf("  \"initial_rounds\": %lld,\n", static_cast<long long>(initial_rounds));
  std::printf("  \"queue_ms\": %.3f,\n", out.queue_ms);
  std::printf("  \"build_ms\": %.3f,\n", out.build_ms);
  std::printf("  \"solve_ms\": %.3f,\n", out.solve_ms);
  std::printf("  \"wall_ms\": %.3f,\n", wall_ms);
  std::printf("  \"stats\": %s,\n", qplec::solver_stats_json(out.result.stats, 2).c_str());
  std::printf("  \"colors_hash\": \"%llx\",\n",
              static_cast<unsigned long long>(out.colors_hash));
  std::printf("  \"cache_hit\": %s,\n", out.cache_hit ? "true" : "false");
  std::printf("  \"fingerprint\": \"%llx\",\n",
              static_cast<unsigned long long>(out.fingerprint));
  std::printf("  \"churn_update\": %s,\n", out.churn_update ? "true" : "false");
  std::printf("  \"repaired\": %s,\n", out.repaired ? "true" : "false");
  std::printf("  \"repair_region_edges\": %d,\n", out.repair_region_edges);
  std::printf("  \"valid\": %s,\n", out.valid ? "true" : "false");
  std::printf("  \"error\": \"%s\"\n", json_escape(out.error).c_str());
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qplec;

  std::string algorithm = "bko";
  std::string path;
  std::uint64_t seed = 1;
  Color list_palette = 0;
  int shards = 1;
  int threads = 0;
  double deadline_ms = -1.0;
  bool neighbor_cache = true;
  bool result_cache = true;
  int max_queue_depth = 0;
  std::int64_t recolor_budget = ExecConfig{}.recolor_budget;
  std::string churn_file;
  ValidationTier validation_tier = default_validation_tier();
  bool json = false;
  bool serial_compat = false;
  bool verbose = false;
  std::string metrics_dump;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--algorithm" && i + 1 < argc) {
      algorithm = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = cli::parse_flag<std::uint64_t>(argv[++i], usage);
    } else if (arg == "--list-palette" && i + 1 < argc) {
      list_palette = cli::parse_flag<Color>(argv[++i], usage, 0);
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = cli::parse_flag(argv[++i], usage, 1);
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = cli::parse_flag(argv[++i], usage, 0);
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      deadline_ms = cli::parse_flag(argv[++i], usage, 0.0);
    } else if (arg == "--no-neighbor-cache") {
      neighbor_cache = false;
    } else if (arg == "--no-result-cache") {
      result_cache = false;
    } else if (arg == "--max-queue-depth" && i + 1 < argc) {
      max_queue_depth = cli::parse_flag(argv[++i], usage, 0);
    } else if (arg == "--recolor-budget" && i + 1 < argc) {
      recolor_budget = cli::parse_flag<std::int64_t>(argv[++i], usage);
    } else if (arg == "--churn-file" && i + 1 < argc) {
      churn_file = argv[++i];
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
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--serial-compat") {
      serial_compat = true;
    } else if (arg == "--verbose" || arg == "-v") {
      verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage();
    } else if (!arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      return usage();
    }
  }

  ExecConfig config;
  config.workers = 1;  // one job: the CLI's solve
  config.shards = shards;
  config.shard_threads = threads;
  config.use_neighbor_cache = neighbor_cache;
  config.validation_tier = validation_tier;
  config.trace_path = trace_path;
  if (!result_cache) config.max_cache_entries = 0;
  config.max_queue_depth = max_queue_depth;
  config.recolor_budget = recolor_budget;
  if (shards > 1) config.min_sharded_edges = 0;  // --shards means shard it

  // --churn-file drives SolveService::update — only meaningful where the
  // service runs AND the output is the machine-readable record (the text
  // path prints the BASE graph's edges; churned edges would not line up).
  if (!churn_file.empty() && (algorithm != "bko" || serial_compat || !json)) {
    std::fprintf(stderr, "--churn-file requires --json and the bko service path\n");
    return usage();
  }

  // The service lifecycle owns the trace session when a service runs; the
  // direct paths (--serial-compat, baselines) open and export it here.
  const bool service_owns_trace =
      algorithm == "bko" && !serial_compat && !trace_path.empty();
  if (!trace_path.empty() && !service_owns_trace) {
    trace::start(trace::kRingCapacity);
  }
  const auto finish_observability = [&] {
    if (!trace_path.empty() && !service_owns_trace) {
      trace::stop();
      if (!trace::write_chrome_json(trace_path)) {
        std::fprintf(stderr, "cannot write trace %s\n", trace_path.c_str());
      }
    }
    if (!metrics_dump.empty() &&
        !obs::MetricsRegistry::global().write_prometheus_file(metrics_dump)) {
      std::fprintf(stderr, "cannot write metrics %s\n", metrics_dump.c_str());
    }
  };

  const bool service_file_source =
      algorithm == "bko" && !serial_compat && json && !path.empty();

  const auto wall_start = std::chrono::steady_clock::now();
  const auto wall_ms = [&] {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                     wall_start)
        .count();
  };

  // With --json and a FILE, the service owns the whole lifecycle (read,
  // scramble, build, solve) — parse errors come back as an outcome, and the
  // edge lines are replaced by the JSON record anyway.
  if (service_file_source) {
    SolveOutcome out;
    SolveOutcome churn_out;
    bool ran_churn = false;
    {
      SolveService service(config);
      SolveRequest request = SolveRequest::from_dimacs(path).scramble_ids(seed).label(path);
      if (list_palette > 0) request.random_lists(list_palette, seed + 1);
      if (deadline_ms >= 0) request.deadline_ms(deadline_ms);
      const SolveTicket ticket = service.submit(std::move(request));
      out = ticket.wait();
      if (!churn_file.empty() && out.ok()) {
        // The update rides the completed ticket: churn parse errors and
        // inconsistent batches come back as a kInvalidInstance record, same
        // as every other service failure.
        try {
          churn_out = service.update(ticket, parse_churn_file(churn_file)).wait();
        } catch (const std::exception& e) {
          churn_out.status = SolveStatus::kInvalidInstance;
          churn_out.churn_update = true;
          churn_out.error = e.what();
        }
        ran_churn = true;
      }
    }  // service teardown exports the trace before the metrics dump below
    finish_observability();
    print_json(out, algorithm, out.result.initial_rounds, wall_ms());
    if (ran_churn) {
      print_json(churn_out, "bko-churn", churn_out.result.initial_rounds, wall_ms());
    }
    if (verbose && !out.result.round_report.empty()) {
      std::fprintf(stderr, "%s", out.result.round_report.c_str());
    }
    const bool base_ok = out.ok() && out.valid;
    const bool churn_ok = !ran_churn || (churn_out.ok() && churn_out.valid);
    return base_ok && churn_ok ? 0 : 1;
  }

  // --json must always leave one outcome record on stdout, error paths
  // included — that is the whole point of a machine-readable mode.
  const auto fail_json = [&](SolveStatus status, const std::string& error) {
    SolveOutcome out;
    out.status = status;
    out.error = error;
    print_json(out, algorithm, 0, wall_ms());
    return 1;
  };

  // Every other path needs the graph locally (edge output, baselines).
  Graph g;
  try {
    if (path.empty()) {
      g = read_edge_list(std::cin);
    } else {
      std::ifstream in(path);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return json ? fail_json(SolveStatus::kInvalidInstance, "cannot open " + path) : 1;
      }
      g = read_edge_list(in);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return json ? fail_json(SolveStatus::kInvalidInstance, e.what()) : 1;
  }
  g = g.with_scrambled_ids(
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(g.num_nodes()) *
                                     std::max(1, g.num_nodes())),
      seed);

  ListEdgeColoringInstance instance =
      list_palette > 0 ? make_random_list_instance(g, list_palette, seed + 1)
                       : make_two_delta_instance(g);

  // Every algorithm's result funnels into one outcome record so the --json
  // and text paths stay uniform.
  SolveOutcome out;
  out.num_nodes = instance.graph.num_nodes();
  out.num_edges = instance.graph.num_edges();
  out.max_degree = instance.graph.max_degree();
  out.max_edge_degree = instance.graph.max_edge_degree();
  out.palette_size = instance.palette_size;
  out.shards = 1;

  SolveOutcome churn_out;
  bool ran_churn = false;
  const auto solve_start = std::chrono::steady_clock::now();
  try {
    if (algorithm == "bko" && !serial_compat) {
      {
        SolveService service(config);
        SolveRequest request = SolveRequest::from_instance(instance).label("cli_solve");
        if (deadline_ms >= 0) request.deadline_ms(deadline_ms);
        const SolveTicket ticket = service.submit(std::move(request));
        out = ticket.wait();
        if (!churn_file.empty() && out.ok()) {
          try {
            churn_out = service.update(ticket, parse_churn_file(churn_file)).wait();
          } catch (const std::exception& e) {
            churn_out.status = SolveStatus::kInvalidInstance;
            churn_out.churn_update = true;
            churn_out.error = e.what();
          }
          ran_churn = true;
        }
      }  // teardown exports the trace
    } else if (algorithm == "bko") {
      // --serial-compat: the direct, throwing Solver path (the reference the
      // service's differential tests pin against).
      const auto res = Solver(Policy::practical(), config).solve(instance);
      out.result = res;
      out.colors_hash = hash_coloring(res.colors);
      out.valid = is_valid_list_coloring(instance, res.colors);
      out.status = SolveStatus::kOk;
    } else {
      RoundLedger ledger;
      EdgeColoring colors;
      if (algorithm == "greedy") {
        const auto res = baseline_greedy_by_class(instance, ledger);
        colors = res.colors;
        out.result.rounds = res.rounds;
      } else if (algorithm == "kw") {
        const auto res = baseline_kuhn_wattenhofer(instance, ledger);
        colors = res.colors;
        out.result.rounds = res.rounds;
      } else if (algorithm == "luby") {
        const auto res = baseline_luby(instance, seed + 2, ledger);
        colors = res.colors;
        out.result.rounds = res.rounds;
      } else if (algorithm == "central") {
        colors = greedy_centralized(instance);
      } else {
        return usage();
      }
      out.colors_hash = hash_coloring(colors);
      out.valid = is_valid_list_coloring(instance, colors);
      out.status = SolveStatus::kOk;
      out.result.colors = std::move(colors);
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "solve failed: %s\n", e.what());
    return json ? fail_json(SolveStatus::kInvalidInstance, e.what()) : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "solve failed: %s\n", e.what());
    return json ? fail_json(SolveStatus::kInvariantViolation, e.what()) : 1;
  }
  if (out.solve_ms == 0.0) {
    out.solve_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - solve_start)
                       .count();
  }
  finish_observability();

  if (json) {
    print_json(out, algorithm, out.result.initial_rounds, wall_ms());
    if (ran_churn) {
      print_json(churn_out, "bko-churn", churn_out.result.initial_rounds, wall_ms());
    }
    if (verbose && !out.result.round_report.empty()) {
      std::fprintf(stderr, "%s", out.result.round_report.c_str());
    }
    const bool churn_ok = !ran_churn || (churn_out.ok() && churn_out.valid);
    return out.ok() && out.valid && churn_ok ? 0 : 1;
  }

  if (!out.ok()) {
    std::fprintf(stderr, "solve failed (%s): %s\n", status_name(out.status),
                 out.error.c_str());
    return 1;
  }
  if (!out.valid) {
    std::fprintf(stderr, "INTERNAL ERROR — invalid output\n");
    return 1;
  }
  for (EdgeId e = 0; e < instance.graph.num_edges(); ++e) {
    const auto& ep = instance.graph.endpoints(e);
    std::printf("%d %d %d\n", ep.u, ep.v,
                out.result.colors[static_cast<std::size_t>(e)]);
  }
  std::fprintf(stderr, "# %s: n=%d m=%d Delta=%d palette=%d rounds=%lld — valid\n",
               algorithm.c_str(), out.num_nodes, out.num_edges, out.max_degree,
               out.palette_size, static_cast<long long>(out.result.rounds));
  if (verbose) {
    const double solve_ms = out.solve_ms;
    std::fprintf(stderr,
                 "# shards=%d threads=%d wall=%.3f ms, %.4f ms/round over %lld rounds "
                 "(queue %.3f ms)\n",
                 shards, threads, solve_ms,
                 out.result.rounds > 0 ? solve_ms / static_cast<double>(out.result.rounds)
                                       : 0.0,
                 static_cast<long long>(out.result.rounds), out.queue_ms);
    if (!out.result.round_report.empty()) {
      std::fprintf(stderr, "%s", out.result.round_report.c_str());
    }
  }
  return 0;
}
