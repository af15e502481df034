#include "src/coloring/greedy.hpp"

#include <algorithm>

#include "src/coloring/linial.hpp"
#include "src/coloring/validate.hpp"

namespace qplec {

namespace {

/// Fan-out quantum of the small-class batching: consecutive classes join one
/// region until their combined item count reaches this.
constexpr std::size_t kBatchQuantum = 128;

}  // namespace

void greedy_by_classes(const ConflictView& view, const std::vector<ColorList>& lists,
                       const std::vector<std::uint64_t>& phi, std::uint64_t palette,
                       std::vector<Color>& out, RoundLedger& ledger, const ExecBackend* exec,
                       const SolveControl* control, ValidationGate* gate) {
  const ExecBackend& ex = exec_or_inline(exec);
  QPLEC_REQUIRE(out.size() == static_cast<std::size_t>(view.num_items()));
  QPLEC_REQUIRE(lists.size() == static_cast<std::size_t>(view.num_items()));
  // Gate draws happen here on the coordinating thread — never inside a
  // backend pass — so for a fixed tier the same checks run regardless of
  // the lane layout.
  if (gate == nullptr || gate->due()) {
    QPLEC_ASSERT_MSG(is_proper_on_conflict(view, phi, ex),
                     "greedy sweep needs a proper phi");
  }
  const bool check_feasibility = gate == nullptr || gate->due();

  // Bucket active items by class; iterate classes in increasing order.  Only
  // non-empty classes cost simulation work; the LOCAL round cost of the sweep
  // is the full palette (the synchronous schedule has one slot per class) and
  // is charged as such.  The gather runs per lane (the gated feasibility
  // re-derivation included — view.degree(i) is an O(deg) walk the sweep
  // itself never needs); lanes concatenated in lane order visit items in
  // ascending id order, and the sort canonicalizes the class order either
  // way.
  LaneScratch<std::vector<std::pair<std::uint64_t, int>>> gather(ex.lanes());
  ex.for_indices(view.num_items(), [&](int lane, int i) {
    if (!view.active(i)) return;
    if (check_feasibility) {
      QPLEC_REQUIRE_MSG(lists[static_cast<std::size_t>(i)].size() >= view.degree(i) + 1,
                        "greedy feasibility violated at item "
                            << i << ": list " << lists[static_cast<std::size_t>(i)].size()
                            << " < deg+1 = " << view.degree(i) + 1);
    }
    QPLEC_REQUIRE_MSG(out[static_cast<std::size_t>(i)] == kUncolored,
                      "greedy sweep requires active items uncolored at entry (item " << i
                                                                                    << ")");
    QPLEC_REQUIRE(phi[static_cast<std::size_t>(i)] < palette);
    gather.lane(lane).emplace_back(phi[static_cast<std::size_t>(i)], i);
  });
  std::vector<std::pair<std::uint64_t, int>> by_class;
  for (int lane = 0; lane < gather.num_lanes(); ++lane) {
    by_class.insert(by_class.end(), gather.lane(lane).begin(), gather.lane(lane).end());
  }
  std::sort(by_class.begin(), by_class.end());
  ledger.charge(static_cast<std::int64_t>(palette), "greedy-sweep");

  // Incremental forbidden-color builds: when an item is colored, its color is
  // scattered (on the coordinating thread, between rounds) into the
  // accumulator of every still-uncolored conflict neighbor, so a round never
  // re-walks neighborhoods against `out` — each item's forbidden set is
  // complete in its own accumulator by the time its class is swept.  Every
  // (colored item, neighbor) pair is visited exactly once over the whole
  // sweep, the same total work one full neighborhood rescan costs.
  // Accumulators are indexed by the item's by_class SLOT, so the per-call
  // working set scales with the active items, not the item universe (a base
  // case on a few edges of a huge graph must not churn O(m) vectors); only
  // the slot lookup table spans the universe.
  std::vector<std::int32_t> slot_of(static_cast<std::size_t>(view.num_items()), -1);
  for (std::size_t t = 0; t < by_class.size(); ++t) {
    slot_of[static_cast<std::size_t>(by_class[t].second)] = static_cast<std::int32_t>(t);
  }
  std::vector<std::vector<Color>> acc(by_class.size());
  std::vector<std::uint8_t> in_batch(by_class.size(), 0);  // indexed by slot

  // Small-class batching: consecutive classes whose combined size stays
  // below one fan-out quantum run as ONE parallel region when no item of a
  // joining class conflicts with an item already in the batch.  Batched items
  // then have complete accumulators and pairwise-independent picks, so the
  // result is exactly the per-class schedule's — with one round barrier
  // instead of one per tiny class.  The ledger still charges the synchronous
  // schedule (one slot per palette class); batching is simulation speed, not
  // a round-complexity claim.
  std::vector<std::size_t> batch;  // by_class slots of the current region
  std::size_t pos = 0;
  while (pos < by_class.size()) {
    // Between class rounds (the scatter below has fully landed): the one
    // spot where a long O(d^2)-round sweep can be cancelled mid-flight.
    solve_checkpoint(control,
                     [&] { return RoundProgress{ledger.total(), ledger.raw_total()}; });
    batch.clear();
    auto class_end = [&](std::size_t from) {
      std::size_t end = from;
      const std::uint64_t cls = by_class[from].first;
      while (end < by_class.size() && by_class[end].first == cls) ++end;
      return end;
    };
    auto take = [&](std::size_t from, std::size_t to) {
      for (std::size_t t = from; t < to; ++t) {
        batch.push_back(t);
        in_batch[t] = 1;
      }
    };
    // The first class joins unconditionally (it must run either way, even if
    // it alone exceeds the quantum).
    std::size_t end = class_end(pos);
    take(pos, end);
    pos = end;
    // Greedily append whole classes while the quantum holds and the joining
    // class is independent of everything already batched (a conflicting pair
    // inside one region would miss the earlier item's color).
    while (pos < by_class.size() && batch.size() < kBatchQuantum) {
      end = class_end(pos);
      if (batch.size() + (end - pos) > kBatchQuantum) break;
      bool independent = true;
      for (std::size_t t = pos; t < end && independent; ++t) {
        view.for_each_neighbor(by_class[t].second, [&](int f) {
          if (in_batch[static_cast<std::size_t>(slot_of[static_cast<std::size_t>(f)])]) {
            independent = false;
          }
        });
      }
      if (!independent) break;
      take(pos, end);
      pos = end;
    }
    // One region colors the whole batch: each item sorts its own accumulator
    // and picks — item-owned state only, no reads of `out` at all.
    ex.for_indices(static_cast<int>(batch.size()), [&](int, int t) {
      const std::size_t slot = batch[static_cast<std::size_t>(t)];
      const int i = by_class[slot].second;
      std::vector<Color>& forbidden = acc[slot];
      std::sort(forbidden.begin(), forbidden.end());
      const Color c = lists[static_cast<std::size_t>(i)].min_excluding(forbidden);
      QPLEC_ASSERT_MSG(c != kUncolored, "greedy sweep ran out of colors at item " << i);
      out[static_cast<std::size_t>(i)] = c;
    });
    // Delta scatter, ascending (class, id) order — deterministic for any
    // lane layout; colored neighbors no longer need their accumulators.
    for (const std::size_t slot : batch) {
      in_batch[slot] = 0;
      const int i = by_class[slot].second;
      view.for_each_neighbor(i, [&](int f) {
        if (out[static_cast<std::size_t>(f)] == kUncolored) {
          acc[static_cast<std::size_t>(slot_of[static_cast<std::size_t>(f)])].push_back(
              out[static_cast<std::size_t>(i)]);
        }
      });
    }
  }
}

ConflictSolveResult solve_conflict_list(const ConflictView& view,
                                        const std::vector<ColorList>& lists,
                                        const std::vector<std::uint64_t>& phi0,
                                        std::uint64_t palette0, int degree_bound,
                                        std::vector<Color>& out, RoundLedger& ledger,
                                        const ExecBackend* exec, const SolveControl* control,
                                        ValidationGate* gate) {
  ConflictSolveResult res;
  LinialResult lin = linial_reduce(view, phi0, palette0, degree_bound, ledger, exec, gate);
  res.linial_rounds = lin.rounds;
  res.sweep_palette = lin.palette;
  greedy_by_classes(view, lists, lin.colors, lin.palette, out, ledger, exec, control, gate);
  return res;
}

EdgeColoring greedy_centralized(const ListEdgeColoringInstance& instance) {
  const Graph& g = instance.graph;
  EdgeColoring colors(static_cast<std::size_t>(g.num_edges()), kUncolored);
  std::vector<Color> forbidden;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    forbidden.clear();
    g.for_each_edge_neighbor(e, [&](EdgeId f) {
      if (colors[static_cast<std::size_t>(f)] != kUncolored) {
        forbidden.push_back(colors[static_cast<std::size_t>(f)]);
      }
    });
    std::sort(forbidden.begin(), forbidden.end());
    const Color c = instance.lists[static_cast<std::size_t>(e)].min_excluding(forbidden);
    QPLEC_ASSERT_MSG(c != kUncolored, "centralized greedy stuck at edge "
                                          << e << " — instance is not (deg+1)-feasible");
    colors[static_cast<std::size_t>(e)] = c;
  }
  return colors;
}

}  // namespace qplec
