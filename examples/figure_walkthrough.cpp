// Executable reproduction of the paper's illustrative figures.
//
//   Figures 1–4: one pass of the Lemma 4.2 slack reduction — defective
//                coloring, per-class active marking, coloring, recursion on
//                the leftovers — traced on a small instance.
//   Figure 5:    the list-partition example with C = 20, p = 4 and the list
//                {1,2,5,6,7,12,17} (0-based here: {0,1,4,5,6,11,16}),
//                reproducing I = {1, 2} — i.e. k = 2 parts with
//                |L ∩ C_j| >= |L| / (2 * H_4).
//   Figure 6:    virtual-node splitting: a node's phase edges divided into
//                groups that behave as independent smaller nodes.
//
//   $ ./figure_walkthrough
#include <cstdio>

#include "src/coloring/defective.hpp"
#include "src/coloring/initial.hpp"
#include "src/coloring/validate.hpp"
#include "src/core/lemma44.hpp"
#include "src/core/solver.hpp"
#include "src/graph/generators.hpp"

namespace {

using namespace qplec;

void figures_1_to_4() {
  std::printf("--- Figures 1-4: one Lemma 4.2 pass -------------------------\n\n");
  const Graph g = make_random_regular(24, 6, /*seed=*/3).with_scrambled_ids(576, 5);
  const auto inst = make_two_delta_instance(g);
  std::printf("instance: %d edges, Delta-bar = %d, palette = %d (Fig. 1's lists)\n",
              g.num_edges(), g.max_edge_degree(), inst.palette_size);

  // Step 1 (Fig. 1): the defective edge coloring g(e).
  const int beta = 2;
  const EdgeSubset all = EdgeSubset::all(g);
  const InitialColoring init = initial_edge_coloring_from_ids(g);
  RoundLedger ledger;
  const DefectiveColoring dc =
      defective_edge_coloring(g, all, beta, init.colors, init.palette, ledger);
  std::printf("defective coloring: beta=%d -> %d classes, max defect %d "
              "(bound deg/(2b) = %.1f)\n",
              beta, dc.num_classes, max_defect(g, all, dc.cls),
              g.max_edge_degree() / (2.0 * beta));

  // Steps 2-3 (Figs. 2-3): iterate classes; actives are edges with
  // |remaining list| > deg/2.
  int nonempty = 0, actives_total = 0;
  for (int cls = 0; cls < dc.num_classes; ++cls) {
    int members = 0, actives = 0;
    all.for_each([&](EdgeId e) {
      if (dc.cls[static_cast<std::size_t>(e)] != cls) return;
      ++members;
      // Fresh instance: nothing colored yet, so every list is full and every
      // member is active — exactly Figure 2's first class.
      if (2 * inst.lists[static_cast<std::size_t>(e)].size() > g.edge_degree(e)) {
        ++actives;
      }
    });
    if (members > 0) {
      ++nonempty;
      actives_total += actives;
      if (nonempty <= 3) {
        std::printf("  class %3d: %d edges, %d active (slack-beta subinstance)\n", cls,
                    members, actives);
      }
    }
  }
  std::printf("  ... %d non-empty classes, %d active edges in total\n", nonempty,
              actives_total);

  // Step 4 (Fig. 4): the full solver runs the loop to completion.
  const auto res = Solver(Policy::practical()).solve(inst);
  std::printf("full run: valid coloring in %lld LOCAL rounds "
              "(defective levels: %lld, trivial picks: %lld, base cases: %lld)\n\n",
              static_cast<long long>(res.rounds),
              static_cast<long long>(res.stats.defective_calls),
              static_cast<long long>(res.stats.trivial_picks),
              static_cast<long long>(res.stats.basecase_calls));
}

void figure_5() {
  std::printf("--- Figure 5: list partition, C = 20, p = 4 ------------------\n\n");
  // The paper's list {1,2,5,6,7,12,17} in 1-based colors = {0,1,4,5,6,11,16}
  // 0-based; parts C_1..C_4 = [0,5), [5,10), [10,15), [15,20).
  const ColorList list({0, 1, 4, 5, 6, 11, 16});
  const PalettePartition part = PalettePartition::uniform(20, 4);
  const auto sizes = intersection_sizes(list, 0, part);
  std::printf("|L| = %d; intersections:", list.size());
  for (int i = 0; i < part.num_parts(); ++i) {
    std::printf("  |L ∩ C%d| = %d", i + 1, sizes[static_cast<std::size_t>(i)]);
  }
  const LevelResult r = compute_level(sizes, list.size());
  std::printf("\nLemma 4.4 witness: k = %d (level %d), threshold |L|/(k*H_4) = %.3f\n",
              r.k, r.level, list.size() / (r.k * 2.0833333));
  std::printf("=> I = {C1, C2}: both have intersection >= 2 >= 7/(2*H_4) — the\n"
              "   paper's Figure 5 conclusion.\n\n");
}

void figure_6() {
  std::printf("--- Figure 6: virtual-node splitting -------------------------\n\n");
  // A star center with 8 phase edges and group size 2^(l-2) = 4 splits into
  // 2 virtual copies; conflicts only remain within a copy.
  const int cap = 4;
  std::printf("node with 8 phase edges, group capacity %d:\n", cap);
  for (int i = 0; i < 8; ++i) {
    std::printf("  edge %d -> virtual copy %d\n", i, i / cap);
  }
  std::printf("virtual line-graph degree drops from 7 to %d, so the candidate\n"
              "sets J_e (size >= 2^(l-1)) always suffice for a (deg+1)-list\n"
              "coloring of the virtual graph — the instance the recursion\n"
              "T(2p-1, 1, 2p) solves.\n\n",
              2 * (cap - 1));
}

}  // namespace

int main() {
  figures_1_to_4();
  figure_5();
  figure_6();
  std::printf("Every quantitative statement above is also enforced as a runtime\n"
              "assertion inside the library (see tests/).\n");
  return 0;
}
