#include "src/coloring/three_color.hpp"

#include "src/coloring/greedy.hpp"
#include "src/coloring/validate.hpp"

namespace qplec {

ThreeColorResult three_color_paths_cycles(const ConflictView& view,
                                          const std::vector<std::uint64_t>& phi,
                                          std::uint64_t palette, RoundLedger& ledger,
                                          const ExecBackend* exec, ValidationGate* gate) {
  const ExecBackend& ex = exec_or_inline(exec);
  // Demoted precondition sweep: the internal caller (defective_edge_coloring)
  // enforces the degree bound structurally and just re-derived it under the
  // same gate; standalone callers (gate == nullptr) keep the full check.
  if (gate == nullptr || gate->due()) {
    QPLEC_REQUIRE_MSG(max_conflict_degree(view, &ex) <= 2,
                      "three_color_paths_cycles requires a degree-<=2 conflict graph");
  }
  ThreeColorResult out;
  out.colors.assign(static_cast<std::size_t>(view.num_items()), kUncolored);
  const std::vector<ColorList> lists(static_cast<std::size_t>(view.num_items()),
                                     ColorList::range(0, 3));
  const auto sub = solve_conflict_list(view, lists, phi, palette, 2, out.colors, ledger, &ex,
                                       /*control=*/nullptr, gate);
  out.rounds = sub.linial_rounds + static_cast<int>(sub.sweep_palette);
  if (gate == nullptr || gate->due()) {
    QPLEC_ASSERT(is_proper_on_conflict(view, out.colors, ex));
  }
  return out;
}

}  // namespace qplec
