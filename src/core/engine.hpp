// SolverEngine — the recursive machinery of Section 4.
//
// One engine instance owns one list-edge-coloring instance (a graph, working
// lists, a maintained proper "helper" coloring phi used to seed every
// O(log* X) primitive) and colors all of its edges via the paper's mutual
// recursion:
//
//   solve_no_slack  (Lemma 4.2)   T(dbar, 1, C):
//     defective split -> per class: mark active edges -> solve_relaxed with
//     slack beta -> recurse on the uncolored half-degree subgraph.
//   solve_relaxed   (Lemma 4.5)   T(dbar, S, C):
//     color-space reduction (Lemma 4.3) into q parallel instances with
//     palette C/p, or base case / no-slack fallback when S cannot pay for a
//     reduction step.
//   assign_subspaces (Lemma 4.3/4.4):
//     levels, low-level argmax assignment, phased assignment on virtual
//     graphs (each phase a recursive (deg+1)-list instance with palette
//     q <= 2p, solved by a child SolverEngine — the paper's T(2p-1,1,2p)),
//     and the E(2) residual instance.
//
// Every lemma-level guarantee (defect bound, Lemma 4.4 witness, |Je| size,
// Equation (2), degree halving) is asserted at runtime; SolverStats records
// the measured extremes so benchmarks can report how tight the bounds are.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/coloring/palette.hpp"
#include "src/coloring/problem.hpp"
#include "src/common/control.hpp"
#include "src/common/exec_config.hpp"
#include "src/core/pass_timer.hpp"
#include "src/core/policy.hpp"
#include "src/dist/backend.hpp"
#include "src/dist/neighbor_cache.hpp"
#include "src/graph/graph.hpp"
#include "src/graph/subset.hpp"
#include "src/local/ledger.hpp"

namespace qplec {

/// How the engine actually scheduled its round loop: supersteps,
/// validation-tier decisions and where the wall time between round barriers
/// went.  The counters are deterministic for a fixed ExecConfig (they follow
/// the serial control flow, not the lane layout); the *_ms splits are wall
/// time — real but non-deterministic, never part of a fingerprint.
struct RoundProfile {
  /// Round-head sweeps executed (refresh + degree measurement + due
  /// validation sharing one backend pass / one round barrier).
  std::int64_t supersteps = 0;
  /// Demoted invariant walks that ran / that the validation tier skipped.
  std::int64_t validation_walks_run = 0;
  std::int64_t validation_walks_skipped = 0;
  /// SolveControl polls (0 when no control is attached).
  std::int64_t checkpoints = 0;
  /// Round-head supersteps.
  double pass_ms = 0.0;
  /// Standalone demoted validation walks that ran (the round-head
  /// validation is inside pass_ms).
  double validate_ms = 0.0;
  /// Progress-snapshot cost inside checkpoints — the ledger-total reads the
  /// incremental ledger made O(1)/O(depth).
  double ledger_ms = 0.0;
};

struct SolverStats {
  std::int64_t basecase_calls = 0;
  std::int64_t defective_calls = 0;
  std::int64_t space_reductions = 0;
  std::int64_t noslack_fallbacks = 0;
  std::int64_t virtual_instances = 0;
  std::int64_t e2_instances = 0;
  std::int64_t trivial_picks = 0;
  std::int64_t classes_total = 0;
  std::int64_t classes_nonempty = 0;
  std::int64_t phases_executed = 0;
  int max_depth = 0;
  /// Measured Lemma 4.3 Equation (2) tightness: max over edges of
  /// deg'(e) / (24*H_q*log2(p) * (|L'_e|/|L_e|) * deg(e)); must stay <= 1.
  double max_eq2_ratio = 0.0;
  /// Measured defect tightness: max of defect(e) / (deg(e)/(2*beta)).
  double max_defect_ratio = 0.0;

  // NeighborColorCache telemetry (0 on the uncached path).  Deterministic
  // for a given instance and shard count-invariant: one delta per finalized
  // edge, one removed pair per (edge, finalized neighbor), summed over the
  // engine and its children.
  std::int64_t cache_flushes = 0;
  std::int64_t cache_deltas = 0;
  std::int64_t cache_colors_removed = 0;

  // Wall time accumulated in the refresh/mark-active passes and in the
  // Lemma 4.3 restriction passes (engine + children).  NOT deterministic —
  // never compare across runs; BENCH_cache.json reports the cached vs
  // uncached ratio of exactly these.
  double refresh_ms = 0.0;
  double restrict_ms = 0.0;

  /// Round-loop schedule profile (engine + children share one).
  RoundProfile profile;

  void merge_max(const SolverStats&) = delete;  // single object shared by reference
};

class SolverEngine {
 public:
  /// lists: working lists (consumed); palette: colors lie in [0, palette);
  /// phi/phi_palette: proper edge coloring of g seeding the primitives.
  /// exec: the executor of the per-round edge steps AND the base-case
  /// primitive passes (Linial reduction, defective split, conflict solves —
  /// src/coloring routes through it); null = one inline lane; with more
  /// lanes it must be built over this g.  Children created by the recursion
  /// run on one inline lane: their virtual graphs are orders of magnitude
  /// smaller.
  /// config: the round-loop knobs of the unified ExecConfig —
  /// use_neighbor_cache (maintain a NeighborColorCache so the refresh /
  /// mark-active / Lemma 4.3 restriction passes consume per-round deltas
  /// instead of rescanning full neighborhoods) and the validation tier
  /// (cadence of the demoted invariant walks).  Children
  /// inherit the config; every combination is bit-identical (the
  /// differential suite in tests/test_roundloop.cpp pins it).  The engine
  /// ignores the sharding fields — the caller already resolved them into
  /// `exec`.
  /// control: optional cancellation/deadline/progress hook, polled at the
  /// serial points between rounds only (children inherit the pointer); a
  /// cancelled solve unwinds with SolveInterrupted, a completed solve is
  /// bit-identical with or without a control attached.
  SolverEngine(const Graph& g, std::vector<ColorList> lists, Color palette,
               std::vector<std::uint64_t> phi, std::uint64_t phi_palette,
               const Policy& policy, RoundLedger& ledger, SolverStats& stats, int depth,
               const ExecBackend* exec = nullptr, const ExecConfig& config = {},
               const SolveControl* control = nullptr);

  /// Colors every edge; the result is proper (asserted) and each edge's
  /// color comes from the list the engine was given.
  EdgeColoring solve();

  /// Colors every edge via the relaxed path P(dbar, slack, C) of Lemma 4.5.
  /// The caller guarantees |L_e| > slack * deg(e) (Solver::solve_relaxed
  /// checks it).
  EdgeColoring solve_relaxed_instance(double slack);

  /// Lemma 4.3, exposed for analysis benches/tests: assigns a part of the
  /// uniform partition of [lo, hi) into p pieces to every edge of A and
  /// restricts the working lists to the assigned part.  Returns the part
  /// index per edge (-1 outside A).  Asserts Equation (2) on every edge.
  std::vector<int> assign_subspaces(const EdgeSubset& A, Color lo, Color hi, int p,
                                    int depth);

  /// Working list of an edge (after whatever restriction has happened).
  const ColorList& work_list(EdgeId e) const {
    return work_[static_cast<std::size_t>(e)];
  }

 private:
  // Shared epilogue of the public solve entry points: validates the output
  // and folds the cache telemetry into the stats.
  EdgeColoring finish_solve();

  // Lemma 4.2: colors all edges of H (lists currently satisfy
  // |L_e| >= deg_H(e)+1 after refresh).
  void solve_no_slack(EdgeSubset H, int depth);

  // Lemma 4.5: colors all edges of A; lists satisfy |L_e| > slack*deg_A(e);
  // all list colors lie in [lo, hi).
  void solve_relaxed(EdgeSubset A, double slack, Color lo, Color hi, int depth);

  // Base case: O(d^2 + log* X) conflict solve on H's induced line graph.
  void solve_basecase(const EdgeSubset& H);

  // Deletes the final colors of e's finalized neighbors from e's working
  // list: consumes the cache's deltas, or rescans the neighborhood on the
  // uncached path (same resulting list).  Writes only e-owned state.
  void prune_list(int lane, EdgeId e);

  // The round head shared by solve_no_slack and solve_basecase, one backend
  // pass: one synchronous round in which every edge of H prunes its list
  // (prune_list), plus the max induced degree measurement and (when the
  // validation gate fires) the (deg+1) feasibility walk.  Charges the one
  // refresh round; returns the measured degree.  `invariant` labels the
  // feasibility assert's message.
  int round_head(const EdgeSubset& H, const char* invariant);

  // The solve_relaxed entry head, one pass: measure max induced degree over
  // A and (when the gate fires) walk the P(dbar, S, C) entry invariant.
  // Charges nothing (neither is a communication round).
  int relaxed_head(const EdgeSubset& A, double slack, Color lo, Color hi);

  // Draws the validation gate for one demoted walk site and records the
  // decision in the profile.
  bool validation_due();

  // max_induced_edge_degree(s) computed through the execution backend (a
  // shard-parallel max reduction on the sharded path).  Valid only for
  // subsets of unfinalized edges — every subset the round loop builds — so
  // the cached path may count over live neighbors.
  int max_induced_degree(const EdgeSubset& s) const;

  // Induced degree of one edge within such a subset (cache-aware; `lane` is
  // the backend lane of the calling pass — the cache's counters and row
  // sweeps are lane-indexed).
  int induced_degree(int lane, EdgeId e, const EdgeSubset& s) const;

  void note_depth(int depth);

  // Polls the attached SolveControl (cancel flag, deadline, progress
  // callback).  Called only from the serial sections between rounds — never
  // inside a backend pass — so throwing here unwinds cleanly at a round
  // barrier with no parallel work in flight.  The progress snapshot reads
  // the ledger's incremental totals: O(1) for the raw sum, O(open depth)
  // for the effective total — no ledger-tree walk.
  void checkpoint() const {
    if (control_ == nullptr) return;
    ++stats_.profile.checkpoints;
    trace::instant("checkpoint", "engine");
    const PassTimer timer(stats_.profile.ledger_ms);
    solve_checkpoint(control_, [&] {
      return RoundProgress{ledger_.total(), ledger_.raw_total()};
    });
  }

  const Graph& g_;
  std::vector<ColorList> work_;
  Color palette_;
  std::vector<std::uint64_t> phi_;
  std::uint64_t phi_palette_;
  const Policy& policy_;
  RoundLedger& ledger_;
  SolverStats& stats_;
  int base_depth_;
  const ExecBackend* exec_;  ///< never null; the 1-lane executor by default
  ExecConfig config_;        ///< round-loop knobs; children inherit the config
  ValidationGate gate_;      ///< per-engine cadence of the demoted walks
  const SolveControl* control_;  ///< null when uncontrolled; children inherit
  EdgeColoring final_;
  std::unique_ptr<NeighborColorCache> cache_;  ///< null on the uncached path
};

}  // namespace qplec
