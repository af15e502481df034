// The paper's defective edge coloring (Section 4.1):
// a deg(e)/(2*beta)-defective edge coloring with O(beta^2) colors in
// O(log* X) rounds, given an initial proper X-edge-coloring.
//
// Construction (verbatim from the paper):
//   1. Every node partitions its incident (subset) edges into groups of size
//      at most 4*beta and numbers the edges inside each group 1..4beta.
//   2. Each edge learns the numbers (i, j) its two endpoints assigned to it
//      (one round) and takes the sorted pair as its temporary color.
//   3. Within one node-group, at most two edges share a temporary color, so
//      the conflict graph "same temporary color + same group" is a disjoint
//      union of paths and cycles; 3-color it in O(log* X) rounds.
//   4. Final color = (temporary pair, path/cycle color): at most
//      3 * 4beta*(4beta+1)/2 = O(beta^2) colors.
// Defect bound: ceil(deg(u)/4beta)-1 + ceil(deg(v)/4beta)-1 <= deg(e)/(2beta).
// The implementation asserts this bound on every edge before returning.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/exec_config.hpp"
#include "src/dist/backend.hpp"
#include "src/graph/graph.hpp"
#include "src/graph/subset.hpp"
#include "src/local/ledger.hpp"

namespace qplec {

struct DefectiveColoring {
  std::vector<int> cls;  ///< class of each edge in H; -1 outside H
  int num_classes = 0;   ///< classes are in [0, num_classes)
  int rounds = 0;        ///< LOCAL rounds charged
};

/// Computes the deg(e)/(2*beta)-defective edge coloring of the subset H.
/// phi/phi_palette: a proper edge coloring of (at least) the edges of H used
/// to seed the path/cycle 3-coloring.  The per-node passes (grouping /
/// numbering, same-group conflict detection) and per-edge passes run on
/// `exec` (null = one inline lane; with more lanes g must be the executor's
/// graph) with bit-identical results for any lane count.
/// `gate` (optional) tiers the standalone assert sweeps (paths/cycles degree
/// bound, final defect bound) — the output never depends on them; null
/// keeps the seed's always-validate behavior.
DefectiveColoring defective_edge_coloring(const Graph& g, const EdgeSubset& H, int beta,
                                          const std::vector<std::uint64_t>& phi,
                                          std::uint64_t phi_palette, RoundLedger& ledger,
                                          const ExecBackend* exec = nullptr,
                                          ValidationGate* gate = nullptr);

}  // namespace qplec
