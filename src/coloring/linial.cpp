#include "src/coloring/linial.hpp"

#include <algorithm>
#include <span>

#include "src/common/assert.hpp"
#include "src/common/field.hpp"
#include "src/common/math.hpp"
#include "src/coloring/validate.hpp"
#include "src/obs/trace.hpp"

namespace qplec {

namespace {

/// Per-reduce memo of everything linial_reduce's iterations recompute
/// identically: the active items, one polynomial-table slot each in
/// increasing id order, and each slot's neighbor row as slot indices.  The
/// up-to-64 steps of one reduce run over a FIXED active set in a fixed
/// enumeration order, so the for_each_neighbor walks — a virtual scan over
/// the FULL incident lists, filtering by subset membership — are paid once
/// here and replayed as flat CSR rows by every step.
struct LinialMemo {
  std::vector<int> items;                 ///< slot -> item id
  std::vector<std::int64_t> offsets;      ///< slot -> row bounds in nbr_slots
  std::vector<std::uint32_t> nbr_slots;   ///< neighbor slots, enumeration order
};

LinialMemo build_linial_memo(const ConflictView& view, const ExecBackend& ex) {
  const trace::Span span("linial-memo", "engine");
  LinialMemo memo;
  const int n = view.num_items();
  std::vector<int> slot_of(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    if (!view.active(i)) continue;
    slot_of[static_cast<std::size_t>(i)] = static_cast<int>(memo.items.size());
    memo.items.push_back(i);
  }
  const int slots = static_cast<int>(memo.items.size());
  // Degree pass, serial prefix sum, fill pass: each slot writes only its own
  // count/row, so the rows are identical for any backend and lane count.
  memo.offsets.assign(static_cast<std::size_t>(slots) + 1, 0);
  ex.for_indices(slots, [&](int, int s) {
    std::int64_t d = 0;
    view.for_each_neighbor(memo.items[static_cast<std::size_t>(s)], [&](int) { ++d; });
    memo.offsets[static_cast<std::size_t>(s) + 1] = d;
  });
  for (int s = 0; s < slots; ++s) {
    memo.offsets[static_cast<std::size_t>(s) + 1] += memo.offsets[static_cast<std::size_t>(s)];
  }
  memo.nbr_slots.resize(static_cast<std::size_t>(memo.offsets[static_cast<std::size_t>(slots)]));
  ex.for_indices(slots, [&](int, int s) {
    std::int64_t pos = memo.offsets[static_cast<std::size_t>(s)];
    view.for_each_neighbor(memo.items[static_cast<std::size_t>(s)], [&](int f) {
      memo.nbr_slots[static_cast<std::size_t>(pos++)] =
          static_cast<std::uint32_t>(slot_of[static_cast<std::size_t>(f)]);
    });
  });
  return memo;
}

/// One reduction step over the memo's active set.
std::vector<std::uint64_t> linial_step_impl(const LinialMemo& memo,
                                            const std::vector<std::uint64_t>& colors,
                                            LinialParams params, const ExecBackend& ex) {
  // Every active item's polynomial, one table row per slot (the build is
  // O(active * k) and stays serial; the point scan below is the hot part).
  const int slots = static_cast<int>(memo.items.size());
  PolyTable table(params.q, params.k, memo.items.size());
  for (std::size_t s = 0; s < memo.items.size(); ++s) {
    table.set_value(s, colors[static_cast<std::size_t>(memo.items[s])]);
  }

  // Inactive items keep their previous colors untouched.  Each active item
  // reads the committed previous-round rows of its neighbors and writes only
  // next[i], so the scan fans out over the backend's lanes.
  std::vector<std::uint64_t> next = colors;
  ex.for_indices(slots, [&](int, int s) {
    const auto i = static_cast<std::size_t>(memo.items[static_cast<std::size_t>(s)]);
    const std::span<const std::uint32_t> nbrs(
        memo.nbr_slots.data() + memo.offsets[static_cast<std::size_t>(s)],
        memo.nbr_slots.data() + memo.offsets[static_cast<std::size_t>(s) + 1]);
    // Rows are the colors' base-q digits, so equal rows mean equal colors;
    // comparing rows touches only memory the point scan reads anyway.
    const std::span<const std::uint32_t> mine = table.row(static_cast<std::size_t>(s));
    for (const std::uint32_t f : nbrs) {
      QPLEC_ASSERT_MSG(!std::ranges::equal(table.row(f), mine),
                       "linial_step requires a proper input coloring");
    }
    const std::uint64_t c = table.first_good_point(static_cast<std::size_t>(s), nbrs);
    QPLEC_ASSERT_MSG(c != PolyTable::kNoGoodPoint,
                     "no good evaluation point — degree bound violated? (q="
                         << params.q << ", k=" << params.k << ", deg=" << nbrs.size() << ")");
    next[i] = c;
  });
  return next;
}

}  // namespace

LinialParams choose_linial_params(std::uint64_t palette, int degree_bound) {
  QPLEC_REQUIRE(palette >= 1);
  QPLEC_REQUIRE(degree_bound >= 0);
  const int d = std::max(1, degree_bound);
  LinialParams best{0, 0};
  std::uint64_t best_out = palette;  // must strictly improve on the input
  for (int k = 1; k <= 63; ++k) {
    // Smallest q for this k: q^(k+1) >= palette and q >= d*k + 1.
    const std::uint64_t dk = static_cast<std::uint64_t>(d) * static_cast<std::uint64_t>(k) + 1;
    const std::uint64_t lo = std::max(dk, nth_root_ceil(palette, k + 1));
    const std::uint64_t q = next_prime(std::max<std::uint64_t>(2, lo));
    if (q >= (1ull << 31)) continue;  // PolyTable's q < 2^31; larger k shrinks q
    const std::uint64_t out = q * q;
    if (out < best_out) {
      best_out = out;
      best = LinialParams{static_cast<std::uint32_t>(q), k};
    }
    // Once d*k+1 alone exceeds the best output's square root, no larger k
    // can help.
    if (dk * dk >= best_out) break;
  }
  return best;
}

std::vector<std::uint64_t> linial_step(const ConflictView& view,
                                       const std::vector<std::uint64_t>& colors,
                                       LinialParams params, const ExecBackend* exec) {
  const ExecBackend& ex = exec_or_inline(exec);
  return linial_step_impl(build_linial_memo(view, ex), colors, params, ex);
}

LinialResult linial_reduce(const ConflictView& view, std::vector<std::uint64_t> colors,
                           std::uint64_t palette, int degree_bound, RoundLedger& ledger,
                           const ExecBackend* exec, ValidationGate* gate) {
  const ExecBackend& ex = exec_or_inline(exec);
  QPLEC_REQUIRE(colors.size() == static_cast<std::size_t>(view.num_items()));
  LinialResult out;
  out.colors = std::move(colors);
  out.palette = palette;
  // The reduction collapses super-exponentially; 64 iterations is far beyond
  // log* of anything representable.
  // The iterations share one memo (built lazily at the first step): the
  // active set never changes inside a reduce, so every step after the first
  // replays the flat neighbor rows instead of re-walking incident lists.
  LinialMemo memo;
  bool have_memo = false;
  for (int iter = 0; iter < 64; ++iter) {
    const LinialParams params = choose_linial_params(out.palette, degree_bound);
    if (params.q == 0) break;  // fixpoint
    const std::uint64_t new_palette =
        static_cast<std::uint64_t>(params.q) * static_cast<std::uint64_t>(params.q);
    if (!have_memo) {
      memo = build_linial_memo(view, ex);
      have_memo = true;
    }
    {
      const trace::Span span("linial-step", "engine");
      out.colors = linial_step_impl(memo, out.colors, params, ex);
    }
    out.palette = new_palette;
    ++out.rounds;
    ledger.charge(1, "linial");
  }
  // Demoted exit walk: each linial_step already asserts proper inputs
  // neighbor-by-neighbor inside the pass, so the standalone re-walk of the
  // final coloring is tierable.
  if (gate == nullptr || gate->due()) {
    QPLEC_ASSERT(is_proper_on_conflict(view, out.colors, ex));
  }
  return out;
}

}  // namespace qplec
