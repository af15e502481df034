// EXP-LIN — Linial color reduction, measured: the palette trajectory
// collapses super-exponentially (O(log* n) iterations) to an O(Dbar^2)
// fixpoint, for any id-space size.
#include <benchmark/benchmark.h>

#include "bench/support.hpp"
#include "src/coloring/initial.hpp"
#include "src/coloring/linial.hpp"
#include "src/graph/generators.hpp"
#include "src/coloring/validate.hpp"

namespace {

using namespace qplec;
using namespace qplec::bench;

void print_trajectory() {
  banner("EXP-LIN: Linial reduction palette trajectory",
         "m -> O((d k)^2) per round; fixpoint O(Dbar^2) after O(log* m) rounds");
  Table t({"graph", "Dbar", "initial palette", "trajectory", "final", "final/Dbar^2",
           "rounds"});
  struct Case {
    const char* name;
    Graph g;
  };
  Case cases[] = {
      {"cycle n=512", make_cycle(512)},
      {"regular n=256 d=8", make_random_regular(256, 8, 3)},
      {"regular n=256 d=32", make_random_regular(256, 32, 4)},
      {"K_40", make_complete(40)},
  };
  for (auto& c : cases) {
    const Graph g = c.g.with_scrambled_ids(
        static_cast<std::uint64_t>(c.g.num_nodes()) * c.g.num_nodes(), 9);
    const LineGraphConflict view(g, EdgeSubset::all(g));
    const InitialColoring init = initial_edge_coloring_from_ids(g);
    const int d = g.max_edge_degree();

    std::string traj;
    std::uint64_t palette = init.palette;
    std::vector<std::uint64_t> colors = init.colors;
    int rounds = 0;
    while (true) {
      const LinialParams params = choose_linial_params(palette, d);
      if (params.q == 0) break;
      colors = linial_step(view, colors, params);
      palette = static_cast<std::uint64_t>(params.q) * params.q;
      traj += (traj.empty() ? "" : " -> ") + std::to_string(palette);
      ++rounds;
    }
    t.row({c.name, fmt(d), fmt(init.palette), traj, fmt(palette),
           fmt(static_cast<double>(palette) / (static_cast<double>(d) * d), 2),
           fmt(rounds)});
  }
  t.print();
}

void print_rounds_vs_idspace() {
  std::printf("Iterations vs id-space (the log* dependence):\n\n");
  Table t({"id space", "initial palette (X+1)^2", "iterations to fixpoint"});
  for (const std::uint64_t space : {256ull, 1ull << 12, 1ull << 20, 1ull << 28}) {
    const Graph g = make_random_regular(128, 8, 5).with_scrambled_ids(
        std::max<std::uint64_t>(space, 128), 6);
    const LineGraphConflict view(g, EdgeSubset::all(g));
    const InitialColoring init = initial_edge_coloring_from_ids(g);
    RoundLedger ledger;
    const LinialResult res =
        linial_reduce(view, init.colors, init.palette, g.max_edge_degree(), ledger);
    t.row({fmt(space), fmt(init.palette), fmt(res.rounds)});
  }
  t.print();
  std::printf("Reading: multiplying the id space by 2^16 adds ~1 iteration — the\n"
              "iterated-logarithm behavior of [Lin87].\n\n");
}

/// One step at the first reduction of a random d-regular graph's line graph.
/// Args: d, node count, id-space bits; the last leg is the e2e stressor's
/// shape (16-regular, edge degree 30, ids scrambled into 2^31).
void bm_linial_step(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const std::uint64_t id_space = std::max<std::uint64_t>(
      1ull << state.range(2), static_cast<std::uint64_t>(n));
  const Graph g = make_random_regular(n, d, 3).with_scrambled_ids(id_space, 9);
  const LineGraphConflict view(g, EdgeSubset::all(g));
  const InitialColoring init = initial_edge_coloring_from_ids(g);
  const LinialParams params = choose_linial_params(init.palette, g.max_edge_degree());
  for (auto _ : state) {
    benchmark::DoNotOptimize(linial_step(view, init.colors, params));
  }
  state.counters["q"] = params.q;
  state.counters["k"] = params.k;
}
BENCHMARK(bm_linial_step)
    ->Args({8, 256, 16})
    ->Args({32, 256, 16})
    ->Args({16, 4096, 31})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_trajectory();
  print_rounds_vs_idspace();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
