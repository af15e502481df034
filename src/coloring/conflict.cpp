#include "src/coloring/conflict.hpp"

#include <algorithm>

namespace qplec {

int max_conflict_degree(const ConflictView& view, const ExecBackend* exec) {
  const ExecBackend& ex = exec_or_inline(exec);
  LaneScratch<int> best(ex.lanes(), 0);
  ex.for_indices(view.num_items(), [&](int lane, int i) {
    if (view.active(i)) best.lane(lane) = std::max(best.lane(lane), view.degree(i));
  });
  return best.max();
}

ExplicitConflict::ExplicitConflict(int universe, const std::vector<int>& active_items,
                                   const std::vector<std::pair<int, int>>& conflicts)
    : universe_(universe),
      active_(static_cast<std::size_t>(universe), 0),
      adj_(static_cast<std::size_t>(universe)) {
  QPLEC_REQUIRE(universe >= 0);
  for (int item : active_items) {
    QPLEC_REQUIRE(item >= 0 && item < universe);
    if (!active_[static_cast<std::size_t>(item)]) {
      active_[static_cast<std::size_t>(item)] = 1;
      ++num_active_;
    }
  }
  for (const auto& [a, b] : conflicts) {
    QPLEC_REQUIRE(a >= 0 && a < universe && b >= 0 && b < universe);
    QPLEC_REQUIRE_MSG(a != b, "self-conflict on item " << a);
    QPLEC_REQUIRE_MSG(active_[static_cast<std::size_t>(a)] && active_[static_cast<std::size_t>(b)],
                      "conflict between inactive items");
    adj_[static_cast<std::size_t>(a)].push_back(b);
    adj_[static_cast<std::size_t>(b)].push_back(a);
  }
  for (auto& lst : adj_) {
    std::sort(lst.begin(), lst.end());
    lst.erase(std::unique(lst.begin(), lst.end()), lst.end());
  }
}

}  // namespace qplec
