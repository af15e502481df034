// EXP-ABL — ablations over three design choices:
//   (a) beta (the slack target of Lemma 4.2): class count vs defect quality;
//   (b) the base-case degree threshold: recursion depth vs sweep cost;
//   (c) paper-p vs max-feasible-p in the space reduction.
// These quantify how the paper's constants play out at simulatable Delta.
#include <benchmark/benchmark.h>

#include "bench/support.hpp"
#include "src/coloring/validate.hpp"
#include "src/core/solver.hpp"
#include "src/graph/generators.hpp"

namespace {

using namespace qplec;
using namespace qplec::bench;

void ablate_beta() {
  banner("EXP-ABL(a): beta ablation (Lemma 4.2 slack target)",
         "beta trades class count (3*4b(4b+1)/2 sequential slots) against "
         "defect (deg/(2b)) of the relaxed instances");
  Table t({"beta", "classes/level", "rounds", "defective calls", "valid"});
  const Graph g = make_random_regular(256, 16, 5).with_scrambled_ids(65536, 6);
  const auto inst = make_two_delta_instance(g);
  for (const int beta : {50, 100, 200}) {
    Policy pol = Policy::practical();
    pol.beta_fixed = beta;
    pol.base_degree_threshold = 8;
    const auto res = Solver(pol).solve(inst);
    t.row({fmt(beta), fmt(static_cast<std::int64_t>(3LL * (4 * beta) * (4 * beta + 1) / 2)),
           fmt(res.rounds),
           fmt(res.stats.defective_calls),
           is_valid_list_coloring(inst, res.colors) ? "yes" : "NO"});
  }
  t.print();
  std::printf("Reading: rounds scale with beta^2 via the class schedule — the\n"
              "direct cost of the paper's beta = alpha log^{4c} Delta choice.\n\n");
}

void ablate_threshold() {
  banner("EXP-ABL(b): base-case threshold ablation",
         "the 'Delta-bar = O(1)' cutoff trades recursion depth against the "
         "O(d^2) class-sweep cost of the base case");
  Table t({"threshold", "rounds", "basecases", "defective calls", "max depth"});
  const Graph g = make_random_regular(256, 16, 5).with_scrambled_ids(65536, 6);
  const auto inst = make_two_delta_instance(g);
  for (const int threshold : {1, 4, 8, 16, 32, 64}) {
    Policy pol = Policy::practical();
    pol.base_degree_threshold = threshold;
    const auto res = Solver(pol).solve(inst);
    t.row({fmt(threshold), fmt(res.rounds), fmt(res.stats.basecase_calls),
           fmt(res.stats.defective_calls), fmt(res.stats.max_depth)});
  }
  t.print();
  std::printf("Reading: a threshold above Delta-bar turns the whole solve into one\n"
              "Linial+sweep base case (the greedy-by-class baseline); below it, the\n"
              "defective schedule dominates.  The asymptotic regime needs Delta far\n"
              "above the threshold AND beta — see EXP-T2.\n\n");
}

void ablate_p_choice() {
  banner("EXP-ABL(c): p-selection ablation (Lemma 4.3)",
         "paper's p = sqrt(Delta) vs the largest slack-affordable p");
  Table t({"policy", "p chosen at S=1100, C=2^14, dbar=256", "space cost", "S' after"});
  for (const bool paper : {false, true}) {
    Policy pol = Policy::practical();
    pol.paper_p = paper;
    const int p = pol.choose_p(1100.0, 1 << 14, 256);
    t.row({paper ? "paper sqrt(dbar)" : "max feasible", fmt(p),
           p >= 2 ? fmt(Policy::space_cost(p), 1) : "-",
           p >= 2 ? fmt(1100.0 / Policy::space_cost(p), 2) : "-"});
  }
  t.print();
  std::printf("Reading: max-feasible p burns the whole slack budget on one step\n"
              "(palette / p per step, fewer steps); the paper's sqrt(Delta) keeps\n"
              "k = log_p C steps balanced — the choice behind Lemma 4.5.\n\n");
}

void bm_policy_sweep(benchmark::State& state) {
  const int threshold = static_cast<int>(state.range(0));
  const Graph g = make_random_regular(128, 12, 5).with_scrambled_ids(16384, 6);
  const auto inst = make_two_delta_instance(g);
  Policy pol = Policy::practical();
  pol.base_degree_threshold = threshold;
  const Solver solver(pol);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(inst).rounds);
  }
}
BENCHMARK(bm_policy_sweep)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  ablate_beta();
  ablate_threshold();
  ablate_p_choice();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
