// End-to-end tests of Theorem 4.1's solver across graph families, list
// flavors, and parameter policies.
#include "src/core/solver.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "src/coloring/greedy.hpp"
#include "src/coloring/validate.hpp"
#include "src/graph/builder.hpp"
#include "src/graph/generators.hpp"
#include "src/runtime/scenarios.hpp"

namespace qplec {

// gtest prints a parameter into the ctest name's "# GetParam() =" suffix;
// without this it dumps Scenario's raw bytes, tail padding included, so the
// name would change from build to build.
void PrintTo(const Scenario& scenario, std::ostream* os) {
  *os << scenario.name();
}

namespace {

// The family x size x flavor enumeration lives in src/runtime/scenarios.hpp
// (shared with the batch runtime and the benches); this suite sweeps the
// same default manifest the batch_solve CLI runs.

class SolverFamilyTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(SolverFamilyTest, ProducesValidListColoring) {
  const auto instance = build_instance(GetParam());
  if (instance.graph.num_edges() == 0) return;
  const Solver solver(make_policy(GetParam().policy));
  const SolveResult res = solver.solve(instance);
  EXPECT_TRUE(is_valid_list_coloring(instance, res.colors));
  EXPECT_GE(res.rounds, 1);
  EXPECT_LE(res.rounds, res.raw_rounds);
}

// The large manifest members are covered by test_batch_solver and the
// benches; this suite sweeps the small ones only to keep per-case latency low.
INSTANTIATE_TEST_SUITE_P(Families, SolverFamilyTest,
                         ::testing::ValuesIn(small_default_manifest()),
                         [](const ::testing::TestParamInfo<Scenario>& info) {
                           std::string name = info.param.name();
                           for (char& c : name) {
                             if (c == '/') c = '_';
                           }
                           return name;
                         });

TEST(Solver, EmptyAndTinyGraphs) {
  const Solver solver;
  // Empty graph.
  ListEdgeColoringInstance empty;
  empty.graph = Graph();
  EXPECT_TRUE(solver.solve(empty).colors.empty());
  // Single edge.
  const auto single = make_two_delta_instance(make_path(2));
  const auto res = solver.solve(single);
  EXPECT_TRUE(is_valid_list_coloring(single, res.colors));
}

TEST(Solver, DeterministicAcrossRuns) {
  const auto inst = make_random_list_instance(
      make_gnp(50, 0.15, 5).with_scrambled_ids(2500, 6), 200, 7);
  const Solver solver;
  const auto a = solver.solve(inst);
  const auto b = solver.solve(inst);
  EXPECT_EQ(a.colors, b.colors);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(Solver, PaperPolicyOnSmallGraphs) {
  // Paper-formula beta/p on instances small enough to simulate.
  Policy paper = Policy::paper(/*alpha=*/1.0, /*c=*/1);
  paper.beta_cap = 64;  // keep the class count simulatable
  const Solver solver(paper);
  for (int k : {8, 10, 12}) {
    const auto inst =
        make_two_delta_instance(make_complete(k).with_scrambled_ids(k * k, 3));
    const auto res = solver.solve(inst);
    EXPECT_TRUE(is_valid_list_coloring(inst, res.colors));
  }
}

TEST(Solver, SpaceReductionEngagesThroughRelaxedEntry) {
  // The paper's P(dbar, S, C) entry point: with slack >= 50 and degree above
  // the base threshold, the full pipeline runs color-space reduction and
  // recurses on the palette halves.
  Policy pol = Policy::practical();
  pol.base_degree_threshold = 4;
  const Solver solver(pol);
  const Graph g = make_random_regular(48, 8, 7).with_scrambled_ids(48 * 48, 9);
  const auto inst = make_slack_instance(g, 60.0, 4096, 11);
  const auto res = solver.solve_relaxed(inst, 60.0);
  EXPECT_TRUE(is_valid_list_coloring(inst, res.colors));
  EXPECT_GE(res.stats.space_reductions, 1)
      << "expected the space-reduction path to trigger";
  EXPECT_LE(res.stats.max_eq2_ratio, 1.0 + 1e-9);
}

TEST(Solver, FullPipelineWithTinyBaseThreshold) {
  // Forces the defective/relaxed machinery to run instead of one big base
  // case; at this scale defective classes are near-proper, so the relaxed
  // instances resolve by trivial picks and small base cases.
  Policy pol = Policy::practical();
  pol.base_degree_threshold = 1;
  const Solver solver(pol);
  const auto inst = make_two_delta_instance(
      make_complete(40).with_scrambled_ids(40 * 40, 9));
  const auto res = solver.solve(inst);
  EXPECT_TRUE(is_valid_list_coloring(inst, res.colors));
  EXPECT_GE(res.stats.defective_calls, 1);
  EXPECT_GE(res.stats.trivial_picks + res.stats.basecase_calls, 1);
  EXPECT_LE(res.stats.max_defect_ratio, 1.0 + 1e-9);
}

TEST(Solver, RelaxedEntryRejectsInsufficientSlack) {
  const auto inst = make_two_delta_instance(make_complete(8));
  EXPECT_THROW(Solver().solve_relaxed(inst, 3.0), std::invalid_argument);
}

TEST(Solver, StatsAreCoherent) {
  const auto inst = make_two_delta_instance(
      make_random_regular(60, 12, 4).with_scrambled_ids(3600, 5));
  const auto res = Solver().solve(inst);
  EXPECT_GE(res.stats.basecase_calls, 1);
  EXPECT_GE(res.stats.classes_total, res.stats.classes_nonempty);
  EXPECT_GE(res.initial_rounds, 1);
  EXPECT_LT(res.initial_rounds, res.rounds);
  EXPECT_FALSE(res.round_report.empty());
  EXPECT_GT(res.phi_palette, 0u);
}

TEST(Solver, HandlesDisconnectedGraphs) {
  GraphBuilder b(12);
  // Two triangles and an isolated edge; 4 isolated nodes.
  b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2);
  b.add_edge(3, 4).add_edge(4, 5).add_edge(3, 5);
  b.add_edge(6, 7);
  const auto inst = make_two_delta_instance(b.build().with_scrambled_ids(144, 4));
  const auto res = Solver().solve(inst);
  EXPECT_TRUE(is_valid_list_coloring(inst, res.colors));
}

TEST(Solver, UsesNoMoreColorsThanPalette) {
  const auto inst = make_two_delta_instance(
      make_gnp(70, 0.12, 8).with_scrambled_ids(4900, 9));
  const auto res = Solver().solve(inst);
  for (const Color c : res.colors) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, inst.palette_size);
  }
}

TEST(Solver, RejectsMalformedInstance) {
  auto inst = make_two_delta_instance(make_cycle(5));
  inst.lists[2] = ColorList({0});
  EXPECT_THROW(Solver().solve(inst), std::invalid_argument);
}

TEST(Solver, ListColoringStrictlyGeneralizesEdgeColoring) {
  // Same graph, one run with identical lists (edge coloring) and one with
  // heterogeneous (deg+1)-lists; both must be solved.
  Graph g = make_random_regular(36, 6, 11).with_scrambled_ids(1296, 12);
  const auto uniform = make_two_delta_instance(g);
  const auto lists = make_random_list_instance(g, 2 * g.max_edge_degree() + 2, 13);
  EXPECT_TRUE(is_valid_list_coloring(uniform, Solver().solve(uniform).colors));
  EXPECT_TRUE(is_valid_list_coloring(lists, Solver().solve(lists).colors));
}

}  // namespace
}  // namespace qplec
