// EXP-CHURN: incremental recolor under edge churn vs full re-solve.
//
//   usage: bench_churn [--nodes N] [--degree D] [--repeats R] [--shards S]
//                      [--out BENCH_churn.json] [--min-speedup X]
//
// Solves the shared regular stressor (bench/support.hpp sizes) once, then for
// each batch size in {1, 4, 16, 64} draws a random churn batch (half inserts,
// half removes), and times the update path (plan_recolor + repair_recolor)
// against a from-scratch Solver::solve of the same mutated instance.  Per
// batch size the bench checks the module's invariants, not just speed:
//   * the repaired coloring is identical across repeats AND across the serial
//     and sharded (--shards) executors — any divergence exits 3;
//   * every edge outside the repair region keeps its pre-churn color verbatim
//     (the bounded-drift invariant) — a drifted survivor also exits 3;
//   * the repair must actually take the incremental path (fallback at these
//     batch sizes means the budget heuristic regressed) — also exit 3.
// --min-speedup X turns the bench into a regression gate: exit 1 unless the
// batch-size-1 update beats the from-scratch solve by X.  Exit 3 is reserved
// for the invariant violations above so CI's noisy-runner retry can absorb
// perf misses WITHOUT ever masking a correctness bug.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/support.hpp"
#include "examples/flag_parse.hpp"
#include "src/coloring/problem.hpp"
#include "src/core/recolor.hpp"
#include "src/core/solver.hpp"
#include "src/runtime/batch_solver.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/service/churn.hpp"

namespace {

struct Sample {
  int batch = 0;
  int inserts = 0;
  int removes = 0;
  int region_edges = 0;
  bool fallback = false;
  double repair_ms = 0.0;  ///< best-of plan_recolor + repair_recolor, serial
  double sharded_ms = 0.0;  ///< same through the sharded executor
  double full_ms = 0.0;    ///< best-of from-scratch solve of the mutated instance
  double speedup = 0.0;    ///< full_ms / repair_ms
  std::uint64_t repaired_hash = 0;
  std::uint64_t full_hash = 0;
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_churn [--nodes N] [--degree D] [--repeats R] "
               "[--shards S] [--out BENCH_churn.json] [--min-speedup X]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qplec;

  int nodes = bench::kStressRegularNodes;
  int degree = bench::kStressRegularDegree;
  int repeats = 3;
  int shards = 2;
  std::string out_path = "BENCH_churn.json";
  double min_speedup = 0.0;  // 0 = no gate
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--nodes" && i + 1 < argc) {
      nodes = cli::parse_flag(argv[++i], usage, 2);
    } else if (arg == "--degree" && i + 1 < argc) {
      degree = cli::parse_flag(argv[++i], usage, 1);
    } else if (arg == "--repeats" && i + 1 < argc) {
      repeats = cli::parse_flag(argv[++i], usage, 1);
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = cli::parse_flag(argv[++i], usage, 1);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--min-speedup" && i + 1 < argc) {
      min_speedup = cli::parse_flag(argv[++i], usage, cli::kPositive);
    } else {
      return usage();
    }
  }

  std::printf("building graph...\n");
  const Graph g = bench::make_regular_stressor(nodes, degree);
  const ListEdgeColoringInstance instance = make_two_delta_instance(g);
  const Policy policy = Policy::practical();

  ExecConfig serial;  // the repair's default executor
  ExecConfig sharded;
  ThreadPool shard_pool(std::max(1, shards));
  sharded.shards = shards;
  sharded.min_sharded_edges = 0;
  sharded.shared_pool = shards > 1 ? &shard_pool : nullptr;

  std::printf("base solve: n=%d m=%d Delta=%d palette=%d\n", g.num_nodes(), g.num_edges(),
              g.max_degree(), instance.palette_size);
  const SolveResult base = Solver(policy, serial).solve(instance);
  std::printf("  rounds=%lld colors_hash=%llx\n", static_cast<long long>(base.rounds),
              static_cast<unsigned long long>(hash_coloring(base.colors)));

  const std::vector<int> batches = {1, 4, 16, 64};
  std::vector<Sample> samples;
  bool ok = true;
  for (const int batch : batches) {
    const ChurnBatch ops =
        make_random_churn(g, batch - batch / 2, batch / 2, bench::kStressSeed + batch);
    Sample s;
    s.batch = batch;
    for (const EdgeDelta& op : ops.ops) (op.insert ? s.inserts : s.removes) += 1;

    // The update path, serial: plan + repair, best-of-repeats; every repeat
    // must produce the same coloring.
    RecolorPlan plan;  // kept from the last repeat for the comparisons below
    for (int r = 0; r < repeats; ++r) {
      const auto start = std::chrono::steady_clock::now();
      RecolorPlan p = plan_recolor(instance, base.colors, ops.ops);
      const RecolorOutcome rec = repair_recolor(p, policy, serial);
      const double ms = ms_since(start);
      const std::uint64_t hash = hash_coloring(rec.result.colors);
      if (r == 0) {
        s.repair_ms = ms;
        s.repaired_hash = hash;
        s.fallback = rec.fallback;
        s.region_edges = rec.region_edges;
      } else {
        s.repair_ms = std::min(s.repair_ms, ms);
        if (hash != s.repaired_hash) {
          std::fprintf(stderr, "DETERMINISM VIOLATION: batch=%d repeat %d diverged\n",
                       batch, r);
          ok = false;
        }
      }
      // Bounded-drift invariant: survivors keep their pre-churn color.
      for (EdgeId e = 0; e < p.mutated.graph.num_edges(); ++e) {
        if (p.carried[e] != kUncolored && rec.result.colors[e] != p.carried[e]) {
          std::fprintf(stderr, "DRIFT VIOLATION: batch=%d edge %d left the carried color\n",
                       batch, e);
          ok = false;
          break;
        }
      }
      plan = std::move(p);
    }
    if (s.fallback) {
      std::fprintf(stderr,
                   "BUDGET REGRESSION: batch=%d fell back to a full solve "
                   "(default recolor_budget should cover it)\n",
                   batch);
      ok = false;
    }

    // The same update through the sharded executor must be bit-identical.
    {
      const auto start = std::chrono::steady_clock::now();
      const RecolorOutcome rec = repair_recolor(plan, policy, sharded);
      s.sharded_ms = ms_since(start);
      if (hash_coloring(rec.result.colors) != s.repaired_hash) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: batch=%d serial vs %d-shard repair diverged\n",
                     batch, shards);
        ok = false;
      }
    }

    // The comparator: a from-scratch solve of the exact mutated instance.
    for (int r = 0; r < repeats; ++r) {
      const auto start = std::chrono::steady_clock::now();
      const SolveResult full = Solver(policy, serial).solve(plan.mutated);
      const double ms = ms_since(start);
      if (r == 0) {
        s.full_ms = ms;
        s.full_hash = hash_coloring(full.colors);
      } else {
        s.full_ms = std::min(s.full_ms, ms);
      }
    }
    s.speedup = s.repair_ms > 0 ? s.full_ms / s.repair_ms : 0.0;
    std::printf("batch=%-3d (i=%d r=%d) region=%-4d repair=%8.2f ms  sharded=%8.2f ms  "
                "full=%8.2f ms  speedup=%7.1fx\n",
                s.batch, s.inserts, s.removes, s.region_edges, s.repair_ms, s.sharded_ms,
                s.full_ms, s.speedup);
    samples.push_back(s);
  }

  // The regression gate: the single-op update (the steady-state churn case)
  // must beat the from-scratch solve by the requested factor.
  bool gate_ok = true;
  if (min_speedup > 0.0) {
    const Sample& target = samples.front();
    if (target.speedup < min_speedup) {
      std::fprintf(stderr, "PERF GATE FAILED: batch=1 speedup %.2fx < required %.2fx\n",
                   target.speedup, min_speedup);
      gate_ok = false;
    } else {
      std::printf("perf gate passed: batch=1 update at %.2fx (>= %.2fx)\n", target.speedup,
                  min_speedup);
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"bench\": \"churn\",\n  \"algorithm\": \"bko_podc2020\",\n";
  out << "  \"deterministic\": " << (ok ? "true" : "false") << ",\n";
  out << "  \"nodes\": " << g.num_nodes() << ", \"edges\": " << g.num_edges()
      << ", \"delta\": " << g.max_degree() << ", \"shards\": " << shards << ",\n";
  out << "  \"samples\": [\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    char repaired_hash[32];
    char full_hash[32];
    std::snprintf(repaired_hash, sizeof(repaired_hash), "%llx",
                  static_cast<unsigned long long>(s.repaired_hash));
    std::snprintf(full_hash, sizeof(full_hash), "%llx",
                  static_cast<unsigned long long>(s.full_hash));
    out << "    {\"batch\": " << s.batch << ", \"inserts\": " << s.inserts
        << ", \"removes\": " << s.removes << ", \"region_edges\": " << s.region_edges
        << ", \"fallback\": " << (s.fallback ? "true" : "false")
        << ",\n     \"repair_ms\": " << s.repair_ms << ", \"sharded_ms\": " << s.sharded_ms
        << ", \"full_ms\": " << s.full_ms << ", \"speedup\": " << s.speedup
        << ",\n     \"repaired_hash\": \"" << repaired_hash << "\", \"full_hash\": \""
        << full_hash << "\"}" << (i + 1 < samples.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  if (!ok) return 3;  // invariant violation: never retried away (exit 3)
  return gate_ok ? 0 : 1;
}
