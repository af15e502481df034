// Validators — every guarantee the paper proves is checked by one of these.
//
// The validators are used both by the test suite and by the solvers
// themselves (the solver validates its own output before returning; a theory
// reproduction must never return an invalid coloring silently).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/coloring/conflict.hpp"
#include "src/coloring/problem.hpp"
#include "src/dist/backend.hpp"
#include "src/graph/graph.hpp"
#include "src/graph/subset.hpp"

namespace qplec {

/// True iff no two adjacent edges share a color and every edge is colored.
/// On failure, fills *why (if non-null) with a description.
bool is_proper_edge_coloring(const Graph& g, const EdgeColoring& colors,
                             std::string* why = nullptr);

/// True iff the coloring is proper AND every edge uses a color from its list.
bool is_valid_list_coloring(const ListEdgeColoringInstance& instance,
                            const EdgeColoring& colors, std::string* why = nullptr);

/// Throws InvariantViolation unless is_valid_list_coloring holds.
void expect_valid_solution(const ListEdgeColoringInstance& instance,
                           const EdgeColoring& colors);

/// True iff the (possibly partial) coloring has no conflict among colored
/// edges inside the subset.
bool is_proper_partial(const Graph& g, const EdgeSubset& subset, const EdgeColoring& colors,
                       std::string* why = nullptr);

/// Defect of edge e under the class assignment `cls` within subset H: the
/// number of H-neighbors of e in the same class.
int edge_defect(const Graph& g, const EdgeSubset& H, const std::vector<int>& cls, EdgeId e);

/// Max defect over H.
int max_defect(const Graph& g, const EdgeSubset& H, const std::vector<int>& cls);

/// True iff `colors` (any integral type) is proper on the conflict view:
/// active items have colors distinct from all their conflict neighbors.
template <typename ColorT>
bool is_proper_on_conflict(const ConflictView& view, const std::vector<ColorT>& colors,
                           std::string* why = nullptr) {
  for (int i = 0; i < view.num_items(); ++i) {
    if (!view.active(i)) continue;
    bool ok = true;
    view.for_each_neighbor(i, [&](int f) {
      if (colors[static_cast<std::size_t>(i)] == colors[static_cast<std::size_t>(f)]) ok = false;
    });
    if (!ok) {
      if (why != nullptr) {
        *why = "conflict-graph color clash at item " + std::to_string(i);
      }
      return false;
    }
  }
  return true;
}

/// Backend-parallel variant of the properness check: the item scan fans out
/// over the backend's lanes and the per-lane verdicts fold with an
/// order-invariant `all`.  Used by the hot asserts inside the base-case
/// primitives so a sharded solve does not serialize on its own validators.
template <typename ColorT>
bool is_proper_on_conflict(const ConflictView& view, const std::vector<ColorT>& colors,
                           const ExecBackend& exec) {
  LaneScratch<char> ok(exec.lanes(), 1);
  exec.for_indices(view.num_items(), [&](int lane, int i) {
    if (!view.active(i) || ok.lane(lane) == 0) return;
    bool good = true;
    view.for_each_neighbor(i, [&](int f) {
      if (colors[static_cast<std::size_t>(i)] == colors[static_cast<std::size_t>(f)]) {
        good = false;
      }
    });
    if (!good) ok.lane(lane) = 0;
  });
  return ok.all();
}

}  // namespace qplec
