#include "src/core/recolor.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/coloring/conflict.hpp"
#include "src/coloring/greedy.hpp"
#include "src/coloring/validate.hpp"
#include "src/common/assert.hpp"
#include "src/dist/backend.hpp"
#include "src/dist/neighbor_cache.hpp"
#include "src/graph/builder.hpp"
#include "src/graph/subset.hpp"
#include "src/local/ledger.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace qplec {

namespace {

EdgeEndpoints canonical(NodeId u, NodeId v) {
  return u < v ? EdgeEndpoints{u, v} : EdgeEndpoints{v, u};
}

void reject(const std::string& what) { throw std::invalid_argument("churn batch: " + what); }

/// Pads `list` to `needed` colors with the smallest palette colors it lacks.
/// The padded list is a superset of the original, so a carried color stays
/// list-valid after padding.
ColorList pad_list(const ColorList& list, int needed, Color palette) {
  const std::vector<Color>& cur = list.colors();
  const int missing = needed - static_cast<int>(cur.size());
  std::vector<Color> add;
  add.reserve(static_cast<std::size_t>(missing));
  for (Color c = 0; c < palette && static_cast<int>(add.size()) < missing; ++c) {
    if (!std::binary_search(cur.begin(), cur.end(), c)) add.push_back(c);
  }
  QPLEC_REQUIRE_MSG(static_cast<int>(add.size()) == missing,
                    "palette " << palette << " too small to pad a list to " << needed);
  std::vector<Color> merged(cur.size() + add.size());
  std::merge(cur.begin(), cur.end(), add.begin(), add.end(), merged.begin());
  return ColorList(std::move(merged));
}

}  // namespace

void validate_deltas(const Graph& base, const std::vector<EdgeDelta>& ops) {
  std::vector<EdgeEndpoints> seen;
  seen.reserve(ops.size());
  for (const EdgeDelta& op : ops) {
    if (op.u < 0 || op.u >= base.num_nodes() || op.v < 0 || op.v >= base.num_nodes()) {
      reject("endpoint out of range in {" + std::to_string(op.u) + ", " + std::to_string(op.v) +
             "}");
    }
    if (op.u == op.v) reject("self-loop at node " + std::to_string(op.u));
    const EdgeEndpoints pair = canonical(op.u, op.v);
    if (std::find(seen.begin(), seen.end(), pair) != seen.end()) {
      reject("duplicate op on edge {" + std::to_string(pair.u) + ", " + std::to_string(pair.v) +
             "}");
    }
    seen.push_back(pair);
    const EdgeId existing = base.find_edge(pair.u, pair.v);
    if (op.insert && existing != kInvalidEdge) {
      reject("insert of existing edge {" + std::to_string(pair.u) + ", " +
             std::to_string(pair.v) + "}");
    }
    if (!op.insert && existing == kInvalidEdge) {
      reject("remove of missing edge {" + std::to_string(pair.u) + ", " +
             std::to_string(pair.v) + "}");
    }
  }
}

RecolorPlan plan_recolor(const ListEdgeColoringInstance& base, const EdgeColoring& base_colors,
                         const std::vector<EdgeDelta>& ops) {
  const Graph& g = base.graph;
  QPLEC_REQUIRE(static_cast<int>(base_colors.size()) == g.num_edges());
  validate_deltas(g, ops);

  RecolorPlan plan;
  std::vector<char> removed(static_cast<std::size_t>(g.num_edges()), 0);
  GraphBuilder builder(g.num_nodes());
  builder.carry_local_ids(g);
  for (const EdgeDelta& op : ops) {
    if (op.insert) {
      builder.add_edge(op.u, op.v);
      ++plan.inserts;
    } else {
      const EdgeEndpoints pair = canonical(op.u, op.v);
      removed[static_cast<std::size_t>(g.find_edge(pair.u, pair.v))] = 1;
      ++plan.removes;
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (removed[static_cast<std::size_t>(e)]) continue;
    const EdgeEndpoints& ep = g.endpoints(e);
    builder.add_edge(ep.u, ep.v);
  }
  Graph g2 = builder.build();

  const Color palette =
      std::max<Color>(base.palette_size, static_cast<Color>(g2.max_edge_degree()) + 1);
  const int m2 = g2.num_edges();
  plan.mutated.lists.resize(static_cast<std::size_t>(m2));
  plan.mutated.palette_size = palette;
  plan.carried.assign(static_cast<std::size_t>(m2), kUncolored);
  for (EdgeId e2 = 0; e2 < m2; ++e2) {
    const EdgeEndpoints& ep = g2.endpoints(e2);
    const EdgeId old = g.find_edge(ep.u, ep.v);
    if (old != kInvalidEdge && !removed[static_cast<std::size_t>(old)]) {
      // Survivor: list carried by endpoint pair, padded when the endpoints'
      // degree growth left it under the deg(e)+1 greedy feasibility floor.
      const ColorList& list = base.lists[static_cast<std::size_t>(old)];
      const int needed = g2.edge_degree(e2) + 1;
      plan.mutated.lists[static_cast<std::size_t>(e2)] =
          list.size() >= needed ? list : pad_list(list, needed, palette);
      plan.carried[static_cast<std::size_t>(e2)] = base_colors[static_cast<std::size_t>(old)];
    } else {
      // Inserted: full palette (a new link may take any licensed color), and
      // membership in the repair region.
      plan.mutated.lists[static_cast<std::size_t>(e2)] = ColorList::range(0, palette);
      plan.region.push_back(e2);
      plan.region_payload += g2.edge_degree(e2);
    }
  }
  plan.mutated.graph = std::move(g2);
  return plan;
}

RecolorOutcome repair_recolor(const RecolorPlan& plan, const Policy& policy,
                              const ExecConfig& config, const SolveControl* control) {
  RecolorOutcome out;
  const Graph& g2 = plan.mutated.graph;
  const int m2 = g2.num_edges();

  // Pure-removal batch: constraints only disappeared, the carried coloring
  // is already a complete valid solution — zero rounds, no budget involved.
  if (plan.region.empty()) {
    out.result.colors = plan.carried;
    expect_valid_solution(plan.mutated, out.result.colors);
    return out;
  }

  const auto fall_back = [&] {
    out.result = Solver(policy, config).solve(plan.mutated, control);
    out.fallback = true;
    out.region_edges = 0;
    return out;
  };
  if (config.recolor_budget <= 0 || plan.region_payload > config.recolor_budget) {
    return fall_back();
  }

  // Local repair.  The executor is built as in Solver::run; every stage
  // below is bit-identical for any lane count, so repaired colors are too.
  const ExecBackend exec(g2, config);

  RoundLedger ledger;
  const auto checkpoint = [&] {
    solve_checkpoint(control, [&] { return RoundProgress{ledger.total(), ledger.raw_total()}; });
  };
  checkpoint();
  ValidationGate gate = config.make_validation_gate();

  EdgeSubset region(m2);
  for (const EdgeId e : plan.region) region.insert(e);

  // Demoted invariant walk (tiered like every other one): the carried colors
  // must be conflict-free among themselves — removals cannot introduce a
  // conflict and inserts change no existing color, so a violation here is a
  // derivation bug, not a data condition.
  if (gate.due()) {
    EdgeSubset survivors(m2);
    for (EdgeId e = 0; e < m2; ++e) {
      if (plan.carried[static_cast<std::size_t>(e)] != kUncolored) survivors.insert(e);
    }
    std::string why;
    QPLEC_REQUIRE_MSG(is_proper_partial(g2, survivors, plan.carried, &why),
                      "carried churn colors conflict: " << why);
  }

  // Effective lists: L'_e minus the colors of carried (finalized) neighbors.
  // The NeighborColorCache's churn row build materializes live rows ONLY for
  // the region — the delta-application path, not the full O(sum deg^2)
  // rebuild — and one consume per region edge removes exactly the carried
  // neighbor colors.  One gather round, fanned out over the executor.
  const trace::Span span("churn-repair", "solver");
  auto scope = ledger.sequential("churn-repair");
  NeighborColorCache rows(g2, plan.carried, exec, &region);
  std::vector<ColorList> effective(static_cast<std::size_t>(m2));
  exec.for_members(region, [&](int lane, EdgeId e) {
    ColorList& list = effective[static_cast<std::size_t>(e)];
    list = plan.mutated.lists[static_cast<std::size_t>(e)];
    rows.consume(lane, e, list);
  });
  ledger.charge(1, "churn-gather");
  checkpoint();

  // Feasibility: |L'_e| >= deg'(e)+1 and each carried neighbor removes at
  // most one distinct color, so |effective| >= region-degree+1 always holds;
  // the check is defensive (a violation would make greedy throw mid-sweep).
  for (const EdgeId e : plan.region) {
    if (effective[static_cast<std::size_t>(e)].size() <
        region.induced_edge_degree(g2, e) + 1) {
      return fall_back();
    }
  }

  // The region is a conflict view; edge ids are a proper coloring of it, so
  // the standard base case (Linial-reduce + class sweep) colors it from the
  // effective lists without touching any carried color.
  const LineGraphConflict view(g2, region);
  std::vector<std::uint64_t> phi(static_cast<std::size_t>(m2));
  for (EdgeId e = 0; e < m2; ++e) phi[static_cast<std::size_t>(e)] = static_cast<std::uint64_t>(e);
  std::vector<Color> repaired(static_cast<std::size_t>(m2), kUncolored);
  const ConflictSolveResult sweep =
      solve_conflict_list(view, effective, phi, static_cast<std::uint64_t>(m2),
                          region.max_induced_edge_degree(g2), repaired, ledger, &exec, control,
                          &gate);

  out.result.colors = plan.carried;
  for (const EdgeId e : plan.region) {
    out.result.colors[static_cast<std::size_t>(e)] = repaired[static_cast<std::size_t>(e)];
  }
  expect_valid_solution(plan.mutated, out.result.colors);
  out.region_edges = static_cast<int>(plan.region.size());
  out.result.rounds = ledger.total();
  out.result.raw_rounds = ledger.raw_total();
  out.result.initial_rounds = sweep.linial_rounds;
  out.result.phi_palette = sweep.sweep_palette;
  out.result.round_report = ledger.report(3);

  auto& reg = obs::MetricsRegistry::global();
  static obs::Counter& repairs = reg.counter("qplec_recolor_repairs_total");
  static obs::Counter& repaired_edges = reg.counter("qplec_recolor_region_edges_total");
  repairs.inc();
  repaired_edges.inc(static_cast<std::uint64_t>(out.region_edges));
  return out;
}

}  // namespace qplec
