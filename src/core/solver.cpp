#include "src/core/solver.hpp"

#include "src/coloring/conflict.hpp"
#include "src/coloring/initial.hpp"
#include "src/coloring/linial.hpp"
#include "src/coloring/validate.hpp"
#include "src/graph/subset.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace qplec {

namespace {

/// The solve pipeline (phase 0 initial coloring + Linial reduction, the
/// Section 4 recursion, final validation, ledger totals): everything
/// Solver::run does after building the executor.  `instance` must be
/// non-empty and pre-validated; slack > 1.0 takes the relaxed path.
SolveResult solve_pipeline(const ListEdgeColoringInstance& instance, const Policy& policy,
                           double slack, const ExecBackend& exec, const ExecConfig& config,
                           const SolveControl* control) {
  const Graph& g = instance.graph;
  SolveResult res;

  RoundLedger ledger;
  const auto checkpoint = [&] {
    solve_checkpoint(control, [&] { return RoundProgress{ledger.total(), ledger.raw_total()}; });
  };
  checkpoint();

  // Phase 0: maintained helper coloring phi — O(log* n) rounds.
  const InitialColoring init = initial_edge_coloring_from_ids(g);
  const EdgeSubset all = EdgeSubset::all(g);
  const LineGraphConflict view(g, all);
  LinialResult lin;
  {
    auto scope = ledger.sequential("initial-coloring");
    const trace::Span span("initial-coloring", "solver");
    lin = linial_reduce(view, init.colors, init.palette, g.max_edge_degree(), ledger, &exec);
  }
  res.initial_rounds = ledger.total();
  res.phi_palette = lin.palette;
  checkpoint();  // between the O(log* n) phi phase and the recursion proper

  // Phases 1+: the Section 4 recursion.
  SolverEngine engine(g, instance.lists, instance.palette_size, std::move(lin.colors),
                      lin.palette, policy, ledger, res.stats, 0, &exec, config, control);
  {
    auto scope = ledger.sequential("list-edge-coloring");
    const trace::Span span("list-edge-coloring", "solver");
    res.colors = slack > 1.0 ? engine.solve_relaxed_instance(slack) : engine.solve();
  }

  expect_valid_solution(instance, res.colors);
  res.rounds = ledger.total();
  res.raw_rounds = ledger.raw_total();
  res.round_report = ledger.report(3);

  // Ledger telemetry: LOCAL rounds per solve, as a continuously readable
  // series (the paper's quasi-polylog-in-Delta claim made observable).
  auto& reg = obs::MetricsRegistry::global();
  static obs::Counter& solves = reg.counter("qplec_solves_total");
  static obs::Counter& rounds_total = reg.counter("qplec_solve_rounds_total");
  static obs::Gauge& rounds_last = reg.gauge("qplec_solve_rounds_last");
  solves.inc();
  rounds_total.inc(static_cast<std::uint64_t>(res.rounds));
  rounds_last.set(res.rounds);
  return res;
}

}  // namespace

SolveResult Solver::solve(const ListEdgeColoringInstance& instance,
                          const SolveControl* control) const {
  validate_instance(instance);
  return run(instance, 1.0, control);
}

SolveResult Solver::solve_relaxed(const ListEdgeColoringInstance& instance, double slack,
                                  const SolveControl* control) const {
  QPLEC_REQUIRE(slack >= 1.0);
  const Graph& g = instance.graph;
  QPLEC_REQUIRE(static_cast<int>(instance.lists.size()) == g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    QPLEC_REQUIRE_MSG(
        static_cast<double>(instance.lists[static_cast<std::size_t>(e)].size()) >
            slack * g.edge_degree(e),
        "edge " << e << " violates |L| > " << slack << " * deg(e)");
  }
  return run(instance, slack, control);
}

SolveResult Solver::run(const ListEdgeColoringInstance& instance, double slack,
                        const SolveControl* control) const {
  const Graph& g = instance.graph;

  if (g.num_edges() == 0) {
    SolveResult res;
    res.colors.clear();
    return res;
  }

  // Large instances fan out over edge shards (src/dist); the rest run on
  // one inline lane.
  const ExecBackend exec(g, config_);
  return solve_pipeline(instance, policy_, slack, exec, config_, control);
}

}  // namespace qplec
