// EXP-RANKS: the multi-process message-passing backend vs the serial path.
//
//   usage: bench_ranks [--nodes N] [--degree D] [--repeats R]
//                      [--out BENCH_ranks.json] [--min-rank-efficiency X]
//
// Solves one medium regular instance (default 2000 nodes, degree 8) on the
// serial reference and then through the process backend at ranks {1, 2, 4}
// — real forked workers, the full frame protocol, one boundary exchange per
// owned-pass superstep.  Reported per process leg:
//   * wall_ms        end-to-end (fork + ship instance + solve + collect),
//   * efficiency     serial_wall / process_wall — what the message passing
//                    costs against the in-process reference (the LOCAL model
//                    measures rounds, not wall time; a fraction of serial
//                    speed is expected, the gate only keeps it sane),
//   * colors_hash    which MUST equal the serial leg's.
// A fingerprint divergence exits 3 (determinism violation — never retried);
// a --min-rank-efficiency miss exits 1 (perf miss — CI retries once, noisy
// runners fork slowly).  The JSON lands in BENCH_ranks.json for the CI
// artifact sweep.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/support.hpp"
#include "examples/flag_parse.hpp"
#include "src/coloring/problem.hpp"
#include "src/core/solver.hpp"
#include "src/dist/process_backend.hpp"
#include "src/net/process.hpp"

namespace {

struct Leg {
  std::string name;
  int ranks = 0;  // 0 = the serial reference
  double wall_ms = 0.0;
  double efficiency = 1.0;
  std::int64_t rounds = 0;
  std::uint64_t colors_hash = 0;
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_ranks [--nodes N] [--degree D] [--repeats R] "
               "[--out BENCH_ranks.json] [--min-rank-efficiency X]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qplec;
  // When the process backend re-execs this binary as a rank worker, the
  // guard takes over before any benchmarking happens.
  process_worker_guard(argc, argv);

  int nodes = 2000;
  int degree = 8;
  int repeats = 1;
  std::string out_path = "BENCH_ranks.json";
  double min_efficiency = 0.0;  // 0 = no gate
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--nodes" && i + 1 < argc) {
      nodes = cli::parse_flag(argv[++i], usage, 2);
    } else if (arg == "--degree" && i + 1 < argc) {
      degree = cli::parse_flag(argv[++i], usage, 1);
    } else if (arg == "--repeats" && i + 1 < argc) {
      repeats = cli::parse_flag(argv[++i], usage, 1);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--min-rank-efficiency" && i + 1 < argc) {
      min_efficiency = cli::parse_flag(argv[++i], usage, cli::kPositive);
    } else {
      return usage();
    }
  }

  bench::banner("EXP-RANKS: the multi-process backend vs the serial reference",
                "forked message-passing ranks reproduce the serial solve bit "
                "for bit; the exchange protocol costs a bounded factor");

  if (!net::reexec_available()) {
    std::fprintf(stderr, "cannot re-exec /proc/self/exe; skipping the process legs\n");
    return 0;
  }

  std::printf("building the regular instance...\n");
  const Graph g = bench::make_regular_stressor(nodes, degree);
  const ListEdgeColoringInstance instance = make_two_delta_instance(g);
  std::printf("regular: n=%d m=%d Delta=%d palette=%d repeats=%d\n\n", g.num_nodes(),
              g.num_edges(), g.max_degree(), instance.palette_size, repeats);

  const int kRankCounts[] = {1, 2, 4};
  std::vector<Leg> legs;
  legs.push_back(Leg{"serial", 0, 0.0, 1.0, 0, 0});
  for (const int ranks : kRankCounts) {
    legs.push_back(Leg{"process_r" + std::to_string(ranks), ranks, 0.0, 0.0, 0, 0});
  }

  for (Leg& leg : legs) {
    ExecConfig config;
    if (leg.ranks > 0) {
      config.backend = BackendKind::kProcess;
      config.ranks = leg.ranks;
    } else {
      config.backend = BackendKind::kSerial;
    }
    const Solver solver(Policy::practical(), config);
    for (int r = 0; r < repeats; ++r) {
      const auto start = std::chrono::steady_clock::now();
      const SolveResult res = solver.solve(instance);
      const double wall = ms_since(start);
      if (r == 0 || wall < leg.wall_ms) leg.wall_ms = wall;
      leg.rounds = res.rounds;
      leg.colors_hash = hash_coloring(res.colors);
    }
    leg.efficiency = leg.wall_ms > 0 ? legs[0].wall_ms / leg.wall_ms : 0.0;
    std::printf("%-12s wall=%9.1f ms  efficiency=%5.3f  rounds=%lld  hash=%llx\n",
                leg.name.c_str(), leg.wall_ms, leg.efficiency,
                static_cast<long long>(leg.rounds),
                static_cast<unsigned long long>(leg.colors_hash));
  }
  std::printf("\n");

  // Fingerprint equality: the backend choice must be invisible in every
  // output the solver commits to.
  bool ok = true;
  for (const Leg& leg : legs) {
    if (leg.colors_hash != legs[0].colors_hash || leg.rounds != legs[0].rounds) {
      std::fprintf(stderr, "DETERMINISM VIOLATION: leg '%s' diverged from serial\n",
                   leg.name.c_str());
      ok = false;
    }
  }

  // The perf gate: the BEST process leg must stay above the floor (a sanity
  // bound against pathological protocol regressions, not a speedup claim).
  double best_efficiency = 0.0;
  for (const Leg& leg : legs) {
    if (leg.ranks > 0 && leg.efficiency > best_efficiency) best_efficiency = leg.efficiency;
  }
  bool gate_ok = true;
  if (min_efficiency > 0.0) {
    if (best_efficiency < min_efficiency) {
      std::fprintf(stderr, "PERF GATE FAILED: best rank efficiency %.3f < required %.3f\n",
                   best_efficiency, min_efficiency);
      gate_ok = false;
    } else {
      std::printf("perf gate passed: best rank efficiency %.3f (>= %.3f)\n",
                  best_efficiency, min_efficiency);
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"bench\": \"ranks\",\n  \"algorithm\": \"bko_podc2020\",\n";
  out << "  \"deterministic\": " << (ok ? "true" : "false") << ",\n";
  out << "  \"nodes\": " << g.num_nodes() << ",\n  \"edges\": " << g.num_edges() << ",\n";
  out << "  \"best_efficiency\": " << best_efficiency << ",\n";
  out << "  \"legs\": [\n";
  for (std::size_t i = 0; i < legs.size(); ++i) {
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%llx",
                  static_cast<unsigned long long>(legs[i].colors_hash));
    out << "    {\"name\": \"" << legs[i].name << "\", \"ranks\": " << legs[i].ranks
        << ", \"wall_ms\": " << legs[i].wall_ms
        << ", \"efficiency\": " << legs[i].efficiency
        << ", \"rounds\": " << legs[i].rounds << ", \"colors_hash\": \"" << hash << "\"}"
        << (i + 1 < legs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  if (!ok) return 3;  // determinism violation: never retried away (exit 3)
  return gate_ok ? 0 : 1;
}
