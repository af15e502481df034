// EXP-ROUNDLOOP: the round loop under the sampled vs every_round
// validation tier.
//
//   usage: bench_roundloop [--nodes N] [--degree D] [--repeats R]
//                          [--shards S] [--out BENCH_roundloop.json]
//
// Solves the shared 204800-edge regular stressor (bench/support.hpp; CI runs
// reduced --nodes sweeps) two ways:
//   * sampled     — the Release default (one in ValidationGate::kSamplePeriod
//     demoted invariant walks runs),
//   * every_round — every demoted invariant walk runs (the Debug default).
// Both legs must produce the same fingerprint (colors hash, effective
// rounds, raw rounds) — a divergence exits 3.  After one untimed warm-up
// solve the legs' repeats interleave, alternating which leg runs first, and
// each leg keeps its best wall time.  The wall-time ratio is informational,
// not gated.  Each leg's RoundProfile (supersteps, walks
// run/skipped, pass/validate wall-time splits) is printed and written to the
// JSON.
//
// The second experiment times the progress-checkpoint cost the incremental
// ledger bought: total()/raw_total() (O(open-depth)/O(1)) vs the
// walked_total()/walked_raw_total() reference tree walks, on a scope tree
// with many closed children — the shape a deep recursion leaves behind.
// Informational (printed + JSON), not gated: the ratio grows with the tree,
// so a single threshold would just measure the chosen tree size.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/support.hpp"
#include "examples/flag_parse.hpp"
#include "src/coloring/problem.hpp"
#include "src/core/solver.hpp"
#include "src/graph/generators.hpp"
#include "src/local/ledger.hpp"
#include "src/runtime/batch_solver.hpp"
#include "src/runtime/thread_pool.hpp"

namespace {

using qplec::RoundProfile;

struct Leg {
  std::string name;
  qplec::ValidationTier tier = qplec::ValidationTier::kEveryRound;
  double wall_ms = 0.0;
  std::int64_t rounds = 0;
  std::int64_t raw_rounds = 0;
  std::uint64_t colors_hash = 0;
  RoundProfile profile;
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_roundloop [--nodes N] [--degree D] [--repeats R] "
               "[--shards S] [--out BENCH_roundloop.json]\n");
  return 2;
}

/// ns per call of `fn`, amortized over `calls` invocations.
template <typename Fn>
double ns_per_call(int calls, std::int64_t* sink, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < calls; ++i) *sink += fn();
  return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start)
             .count() /
         calls;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qplec;

  int nodes = bench::kStressRegularNodes;
  int degree = bench::kStressRegularDegree;
  int repeats = 1;
  int shards = 1;
  std::string out_path = "BENCH_roundloop.json";
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
    } else {
      return usage();
    }
  }

  bench::banner("EXP-ROUNDLOOP: sampled vs every_round validation",
                "sampling the demoted invariant walks changes no output bit");

  std::printf("building the regular stressor...\n");
  const Graph g = bench::make_regular_stressor(nodes, degree);
  const ListEdgeColoringInstance instance = make_two_delta_instance(g);
  std::printf("regular: n=%d m=%d Delta=%d palette=%d shards=%d repeats=%d\n\n",
              g.num_nodes(), g.num_edges(), g.max_degree(), instance.palette_size,
              shards, repeats);

  ThreadPool shard_pool(std::max(1, shards));

  std::vector<Leg> legs(2);
  legs[0].tier = ValidationTier::kSampled;
  legs[1].tier = ValidationTier::kEveryRound;
  std::vector<Solver> solvers;
  for (Leg& leg : legs) {
    leg.name = validation_tier_name(leg.tier);
    ExecConfig exec;
    exec.shards = shards;
    exec.min_sharded_edges = 0;
    exec.shared_pool = shards > 1 ? &shard_pool : nullptr;
    exec.validation_tier = leg.tier;
    solvers.emplace_back(Policy::practical(), exec);
  }
  // One untimed warm-up solve, then the repeats interleaved with the leg
  // order alternating, so neither leg always pays the cold caches.
  (void)solvers[0].solve(instance);
  for (int r = 0; r < repeats; ++r) {
    for (std::size_t k = 0; k < legs.size(); ++k) {
      const std::size_t i = (static_cast<std::size_t>(r) + k) % legs.size();
      Leg& leg = legs[i];
      const auto start = std::chrono::steady_clock::now();
      const SolveResult res = solvers[i].solve(instance);
      const double wall = ms_since(start);
      if (r == 0 || wall < leg.wall_ms) {
        leg.wall_ms = wall;
        leg.profile = res.stats.profile;
      }
      leg.rounds = res.rounds;
      leg.raw_rounds = res.raw_rounds;
      leg.colors_hash = hash_coloring(res.colors);
    }
  }
  for (const Leg& leg : legs) {
    std::printf("%-12s wall=%9.1f ms  rounds=%lld\n", leg.name.c_str(), leg.wall_ms,
                static_cast<long long>(leg.rounds));
    std::printf("             supersteps=%lld walks run/skipped=%lld/%lld\n",
                static_cast<long long>(leg.profile.supersteps),
                static_cast<long long>(leg.profile.validation_walks_run),
                static_cast<long long>(leg.profile.validation_walks_skipped));
    std::printf("             pass=%.1f ms  validate=%.1f ms\n\n", leg.profile.pass_ms,
                leg.profile.validate_ms);
  }

  // Fingerprint equality across the legs: the validation tier must be
  // invisible in every output the solver commits to.
  bool ok = true;
  for (const Leg& leg : legs) {
    if (leg.colors_hash != legs[0].colors_hash || leg.rounds != legs[0].rounds ||
        leg.raw_rounds != legs[0].raw_rounds) {
      std::fprintf(stderr, "DETERMINISM VIOLATION: leg '%s' diverged from '%s'\n",
                   leg.name.c_str(), legs[0].name.c_str());
      ok = false;
    }
  }

  const double speedup = legs[0].wall_ms > 0 ? legs[1].wall_ms / legs[0].wall_ms : 0.0;
  std::printf("sampled speedup over every_round: %5.2fx\n\n", speedup);

  // ------------------------------------------------- ledger checkpoint cost ---
  // A recursion-shaped tree: a modest open stack above thousands of closed
  // child scopes.  total() folds the open stack; walked_total() re-walks
  // every closed child on every call — the per-round cost progress
  // checkpoints used to pay.
  RoundLedger ledger;
  std::vector<RoundLedger::Scope> open;
  for (int d = 0; d < 8; ++d) {
    open.push_back(d % 2 == 0 ? ledger.sequential("depth") : ledger.parallel("depth"));
    for (int child = 0; child < 2500; ++child) {
      const RoundLedger::Scope scope = ledger.sequential("closed-child");
      ledger.charge(1 + child % 3, "work");
    }
  }
  std::int64_t sink = 0;
  const int calls = 2000;
  const double incremental_ns = ns_per_call(calls, &sink, [&] { return ledger.total(); });
  const double raw_ns = ns_per_call(calls, &sink, [&] { return ledger.raw_total(); });
  const double walked_ns =
      ns_per_call(calls, &sink, [&] { return ledger.walked_total(); });
  const double ledger_ratio = incremental_ns > 0 ? walked_ns / incremental_ns : 0.0;
  if (ledger.total() != ledger.walked_total()) {
    std::fprintf(stderr, "DETERMINISM VIOLATION: ledger total() != walked_total()\n");
    ok = false;
  }
  while (!open.empty()) open.pop_back();
  std::printf("ledger checkpoint cost (20000 closed scopes, open depth 8):\n");
  std::printf("  total() incremental: %8.1f ns/call   raw_total(): %6.1f ns/call\n",
              incremental_ns, raw_ns);
  std::printf("  walked_total() walk: %8.1f ns/call   ratio: %.0fx\n\n", walked_ns,
              ledger_ratio);
  (void)sink;

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  auto leg_json = [](const Leg& l) {
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%llx", static_cast<unsigned long long>(l.colors_hash));
    std::string s = "{\"name\": \"" + l.name + "\", \"validation_tier\": \"" +
                    validation_tier_name(l.tier) + "\", \"wall_ms\": " +
                    std::to_string(l.wall_ms) + ", \"rounds\": " +
                    std::to_string(l.rounds) + ", \"raw_rounds\": " +
                    std::to_string(l.raw_rounds) + ", \"colors_hash\": \"" + hash +
                    "\",\n     \"profile\": {\"supersteps\": " +
                    std::to_string(l.profile.supersteps) + ", \"validation_walks_run\": " +
                    std::to_string(l.profile.validation_walks_run) +
                    ", \"validation_walks_skipped\": " +
                    std::to_string(l.profile.validation_walks_skipped) +
                    ", \"pass_ms\": " + std::to_string(l.profile.pass_ms) +
                    ", \"validate_ms\": " + std::to_string(l.profile.validate_ms) + "}}";
    return s;
  };
  out << "{\n  \"bench\": \"roundloop\",\n  \"algorithm\": \"bko_podc2020\",\n";
  out << "  \"deterministic\": " << (ok ? "true" : "false") << ",\n";
  out << "  \"nodes\": " << g.num_nodes() << ",\n  \"edges\": " << g.num_edges()
      << ",\n  \"shards\": " << shards << ",\n";
  out << "  \"speedup\": " << speedup << ",\n";
  out << "  \"ledger\": {\"incremental_ns\": " << incremental_ns
      << ", \"raw_ns\": " << raw_ns << ", \"walked_ns\": " << walked_ns
      << ", \"ratio\": " << ledger_ratio << "},\n";
  out << "  \"legs\": [\n";
  for (std::size_t i = 0; i < legs.size(); ++i) {
    out << "    " << leg_json(legs[i]) << (i + 1 < legs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return ok ? 0 : 3;  // determinism violation: exit 3
}
