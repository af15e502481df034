// Greedy color-class sweeps — the workhorse "solve anything given a proper
// coloring" primitive, and the base case of every recursion in the paper.
//
// Given a proper phi-coloring of a conflict graph with palette m, the color
// classes are independent sets; sweeping them in order (class t picks greedily
// in round t) solves any list coloring problem whose lists satisfy
// |L_i| >= deg(i) + 1, in m rounds.  Combined with Linial reduction this is
// the classic "T(O(1), S, C) = O(log* X)" base case: for conflict degree
// d = O(1) the palette after reduction is O(d^2) = O(1), so the sweep costs
// O(1) rounds after O(log* X) reduction rounds.
#pragma once

#include <cstdint>
#include <vector>

#include "src/coloring/conflict.hpp"
#include "src/coloring/palette.hpp"
#include "src/coloring/problem.hpp"
#include "src/common/control.hpp"
#include "src/common/exec_config.hpp"
#include "src/dist/backend.hpp"
#include "src/local/ledger.hpp"

namespace qplec {

/// Sweeps the classes of `phi` (a proper coloring of the view's active items
/// with values in [0, palette)) in increasing order; in class t's round, each
/// item of class t takes the smallest color of its list not used by an
/// already-colored conflict neighbor.  Writes into out[item] (out must be
/// sized num_items; active items must be kUncolored at entry — every
/// caller's out starts fresh; inactive items are untouched).  Charges
/// `palette` rounds.
///
/// Requires |lists[i]| >= degree(i) + 1 for every active item (the greedy
/// feasibility condition); violations throw.
///
/// The items of one class are pairwise non-conflicting (phi is proper), so
/// each class round is an item-owned parallel step: with a non-null `exec`
/// the round fans out over the backend's lanes, and the result is
/// bit-identical to the serial sweep.  Forbidden-color sets are built
/// incrementally — a newly colored item's color is scattered once to each
/// uncolored neighbor's accumulator between rounds — and consecutive small
/// classes batch into one region when independent: classes whose combined
/// item count stays within a fixed quantum (128) run as one parallel region
/// (after an intra-batch independence check), so a base case with a big
/// palette of tiny classes does not pay one round barrier per class.  Output
/// is identical to the per-class schedule; batching is simulation
/// throughput only.
///
/// `control` (optional) is polled between class rounds: the sweep is the
/// charge-dominant stretch of every base case, so cancellation latency is
/// bounded by one class region, not the whole O(d^2)-round sweep.
///
/// `gate` (optional) tiers the demotable validation work — the entry
/// properness walk of phi and the O(deg)-per-item feasibility re-derivation
/// in the gather pass; null keeps the seed's always-validate behavior.
/// Gated checks feed nothing the sweep computes, so the output is identical
/// at any tier.
void greedy_by_classes(const ConflictView& view, const std::vector<ColorList>& lists,
                       const std::vector<std::uint64_t>& phi, std::uint64_t palette,
                       std::vector<Color>& out, RoundLedger& ledger,
                       const ExecBackend* exec = nullptr, const SolveControl* control = nullptr,
                       ValidationGate* gate = nullptr);

struct ConflictSolveResult {
  int linial_rounds = 0;
  std::uint64_t sweep_palette = 0;  ///< classes swept (== rounds charged for the sweep)
};

/// Full base-case list coloring on a conflict view: Linial-reduce the given
/// initial proper coloring (phi0, palette0) to an O(d^2) palette, then sweep.
/// Writes into out[item] for active items.  Both stages run their per-item
/// passes on `exec` (null = one inline lane) with bit-identical results.
/// `gate` tiers both stages' demoted validation walks.
ConflictSolveResult solve_conflict_list(
    const ConflictView& view, const std::vector<ColorList>& lists,
    const std::vector<std::uint64_t>& phi0, std::uint64_t palette0, int degree_bound,
    std::vector<Color>& out, RoundLedger& ledger, const ExecBackend* exec = nullptr,
    const SolveControl* control = nullptr, ValidationGate* gate = nullptr);

/// Centralized sequential greedy (not a distributed algorithm): colors edges
/// in id order with the smallest available list color.  Ground truth that a
/// valid solution exists; 0 rounds by definition.
EdgeColoring greedy_centralized(const ListEdgeColoringInstance& instance);

}  // namespace qplec
