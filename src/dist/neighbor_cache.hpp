// NeighborColorCache — incremental neighbor-color state for the round loop.
//
// The recursion of Section 4 repeatedly restricts an edge's working list to
// L_e \ {colors of finalized neighbors} (refresh-lists, the mark-active
// pruning of Lemma 4.2, the Equation (2) restriction of Lemma 4.3).  The
// uncached implementation re-walks every edge's full line-graph neighborhood
// against the global final-color array every round; but between two rounds
// only the NEWLY finalized neighbors matter — the observation the round
// complexity of the GKMU / BBKO edge-coloring algorithms is built on.  The
// cache makes the passes incremental with edge-owned state:
//
//   * a flat-CSR LIVE ROW per edge — the neighbors not yet finalized.  A
//     consuming pass sweeps only the row, removing the colors of the
//     entries that finalized since the edge's previous sweep and compacting
//     them out, so the rows shrink monotonically — late rounds walk a
//     fraction of the full neighborhood, and an untouched row (epoch-gated)
//     skips its walk entirely.  All row maintenance is owner-driven (an
//     edge mutates only its own row), so it is legal inside any backend
//     pass that owns the edge;
//   * a PENDING finalized-neighbor color multiset per edge: passes that
//     iterate live neighbors without consuming (the Lemma 4.3 candidate /
//     restriction passes, induced-degree scans) defer the colors they
//     compact out into the owner's pending slot, and the next consume
//     drains them — removal is idempotent and commutative, so cached and
//     uncached solves are bit-identical;
//   * a per-lane DELTA QUEUE of newly finalized edge ids (lane queues
//     concatenate in lane order, i.e. ascending id order for any shard
//     count).  flush() drains it once per refresh round as the round's
//     finalize log: every drained id is consistency-checked against the
//     final array, the wave advances the row epoch, and the drain feeds the
//     telemetry the differential tests and BENCH_cache.json pin.
//
// Cross-shard note: all row/pending maintenance is edge-owned, so no lock or
// message is needed at shard boundaries — boundary information travels
// through the shared final-color array, which is frozen during every pass
// (the rows themselves are built over ExecBackend::for_edge_ranges, the
// unique-writer partition).
//
// One cache serves one SolverEngine (the final-color array it watches); the
// engines the recursion spawns for virtual graphs build their own.
#pragma once

#include <cstdint>
#include <vector>

#include "src/coloring/problem.hpp"
#include "src/dist/backend.hpp"
#include "src/graph/graph.hpp"
#include "src/graph/subset.hpp"

namespace qplec {

class NeighborColorCache {
 public:
  /// Materialization budget: the live rows store the full line-graph
  /// adjacency (sum over edges of edge_degree — Theta(sum of deg^2) on
  /// hub-heavy graphs, vs the O(m) on-the-fly walks of the uncached path),
  /// so a cache is only built when the payload stays within an absolute cap
  /// OR within a modest factor of the edge count.  A star K_{1,100000}
  /// would otherwise allocate ~10^10 row entries in the engine constructor.
  static constexpr std::int64_t kMaxPayloadEntries = std::int64_t{1} << 26;  // 256 MiB
  static constexpr std::int64_t kMaxAvgEdgeDegree = 64;

  /// Whether the live rows of g fit the budget above.  Engines skip the
  /// cache (and run the bit-identical full-rescan path) when this is false.
  static bool fits(const Graph& g) {
    std::int64_t payload = 0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) payload += g.edge_degree(e);
    return payload <= kMaxPayloadEntries ||
           payload <= kMaxAvgEdgeDegree * static_cast<std::int64_t>(g.num_edges());
  }

  /// `final` is the engine's final-color array (one slot per edge of g,
  /// kUncolored until finalized); both g and final must outlive the cache.
  /// `exec` supplies the lanes the delta queues and drop counters are
  /// indexed by; the row fill runs over its unique-writer edge ranges.
  ///
  /// `rows` (optional) restricts which edges get a materialized live row —
  /// the churn-delta build: an incremental recolor (src/core/recolor) only
  /// ever sweeps the repair region, so it materializes rows for those edges
  /// alone instead of paying the full Theta(sum of deg^2) rebuild.  Edges
  /// outside `rows` get an empty row (their consume/iterate calls are
  /// no-ops); nullptr keeps the full build for every edge.
  explicit NeighborColorCache(const Graph& g, const EdgeColoring& final, const ExecBackend& exec,
                              const EdgeSubset* rows = nullptr);

  int num_lanes() const { return queues_.num_lanes(); }

  /// Records edge e as newly finalized, from inside a backend pass running
  /// on `lane`.  final[e] must already hold its color by the next flush().
  void note_finalized(int lane, EdgeId e) {
    QPLEC_REQUIRE(e >= 0 && e < num_edges_);
    queues_.lane(lane).push_back(e);
  }

  /// Drains the delta queues (lane order — ascending edge ids): the round's
  /// finalize log, every id checked to actually be finalized; a non-empty
  /// wave advances the row epoch.  Coordinating thread only; called once
  /// per refresh round.
  void flush();

  /// The consuming sweep: drains e's pending colors, then walks e's live
  /// row, removing the final color of every newly finalized entry from
  /// `list` and compacting the entry out.  Together with the pending drain
  /// this removes exactly the colors of the neighbors finalized since e's
  /// previous consume — the colors the uncached full rescan would remove.
  /// Epoch-gated: if no finalize wave was flushed since e's last sweep, the
  /// row provably holds no finalized entries and the walk is skipped.
  void consume(int lane, EdgeId e, ColorList& list) {
    auto& pending = pending_[static_cast<std::size_t>(e)];
    if (!pending.empty()) {
      for (const Color c : pending) list.remove(c);
      pending.clear();
    }
    if (row_epoch_[static_cast<std::size_t>(e)] == epoch_) return;
    const std::size_t begin = offsets_[static_cast<std::size_t>(e)];
    std::size_t w = begin;
    const std::size_t end =
        begin + static_cast<std::size_t>(live_count_[static_cast<std::size_t>(e)]);
    std::int64_t dropped = 0;
    for (std::size_t r = begin; r < end; ++r) {
      const EdgeId f = nbrs_[r];
      const Color cf = (*final_)[static_cast<std::size_t>(f)];
      if (cf == kUncolored) {
        nbrs_[w++] = f;
      } else {
        list.remove(cf);
        ++dropped;
      }
    }
    live_count_[static_cast<std::size_t>(e)] = static_cast<std::int32_t>(w - begin);
    row_epoch_[static_cast<std::size_t>(e)] = epoch_;
    drops_.lane(lane) += dropped;
  }

  /// Applies fn(EdgeId f) to every live (unfinalized) neighbor of e, in
  /// first-seen adjacency order.  Entries that finalized since the last
  /// sweep are compacted out and their colors DEFERRED into e's pending
  /// slot (this is not a consuming pass — the next consume drains them, so
  /// no removal is ever lost).  Mutates only e-owned state: legal inside
  /// any backend pass that owns e.  On a clean epoch the row is iterated
  /// without finalization checks (nothing can have finalized).
  ///
  /// NOTE: between a finalizing pass and the next flush() the epoch is
  /// stale, so a row may briefly be iterated with finalized entries still
  /// in it.  Every caller filters by membership in an unfinalized-only
  /// subset, so those entries are transparent — the check here exists for
  /// compaction, never for correctness of the enumeration.
  template <typename Fn>
  void for_each_live_neighbor(int lane, EdgeId e, Fn&& fn) {
    const std::size_t begin = offsets_[static_cast<std::size_t>(e)];
    const std::size_t end =
        begin + static_cast<std::size_t>(live_count_[static_cast<std::size_t>(e)]);
    if (row_epoch_[static_cast<std::size_t>(e)] == epoch_) {
      for (std::size_t r = begin; r < end; ++r) fn(nbrs_[r]);
      return;
    }
    std::size_t w = begin;
    std::int64_t dropped = 0;
    for (std::size_t r = begin; r < end; ++r) {
      const EdgeId f = nbrs_[r];
      const Color cf = (*final_)[static_cast<std::size_t>(f)];
      if (cf == kUncolored) {
        nbrs_[w++] = f;
        fn(f);
      } else {
        pending_[static_cast<std::size_t>(e)].push_back(cf);
        ++dropped;
      }
    }
    live_count_[static_cast<std::size_t>(e)] = static_cast<std::int32_t>(w - begin);
    row_epoch_[static_cast<std::size_t>(e)] = epoch_;
    drops_.lane(lane) += dropped;
  }

  /// |{f adjacent to e : s.contains(f)}| computed over the live row.  Equal
  /// to s.induced_edge_degree(g, e) whenever s holds only unfinalized edges
  /// — which every subset of the round loop does.
  int induced_degree(int lane, EdgeId e, const EdgeSubset& s) {
    int d = 0;
    for_each_live_neighbor(lane, e, [&](EdgeId f) { d += s.contains(f) ? 1 : 0; });
    return d;
  }

  /// Number of neighbors of e still unfinalized as of the last sweep (an
  /// upper bound between sweeps).
  int live_degree_bound(EdgeId e) const {
    return static_cast<int>(live_count_[static_cast<std::size_t>(e)]);
  }

  /// Colors deferred for e by non-consuming sweeps, not yet drained (test
  /// hook).
  const std::vector<Color>& pending(EdgeId e) const {
    return pending_[static_cast<std::size_t>(e)];
  }

  // Telemetry — deterministic for a given instance and identical for any
  // shard count (the pass structure, rows and final states are).
  std::int64_t flushes() const { return flushes_; }
  std::int64_t deltas_flushed() const { return deltas_flushed_; }

  /// Every finalized edge noted so far, flushed or still queued (a solve
  /// that ends on a base case leaves its last batch queued — nothing is
  /// left that would drain it).  Coordinating thread only.
  std::int64_t deltas_noted() const {
    std::int64_t queued = 0;
    for (int lane = 0; lane < queues_.num_lanes(); ++lane) {
      queued += static_cast<std::int64_t>(queues_.lane(lane).size());
    }
    return deltas_flushed_ + queued;
  }

  /// Total (edge, finalized neighbor) pairs handled incrementally: each
  /// pair is dropped from a live row exactly once — either removed directly
  /// by a consume or deferred through pending.  Coordinating thread only.
  std::int64_t colors_removed() const { return drops_.sum(); }

 private:
  const Graph* g_;
  const EdgeColoring* final_;
  int num_edges_;

  LaneScratch<std::vector<EdgeId>> queues_;
  std::vector<EdgeId> delta_buf_;  ///< drained batch, reused across flushes

  std::vector<std::vector<Color>> pending_;  ///< deferred, undrained colors

  // Flat-CSR live rows: edge e's live neighbors are
  // nbrs_[offsets_[e] .. offsets_[e] + live_count_[e]).
  std::vector<std::size_t> offsets_;
  std::vector<EdgeId> nbrs_;
  std::vector<std::int32_t> live_count_;

  // Finalize-wave epoch (bumped by flush() when a round's log is non-empty)
  // and each row's last-swept epoch: equal means the row provably holds no
  // finalized entries, so sweeps take the check-free fast path.
  std::uint64_t epoch_ = 1;
  std::vector<std::uint64_t> row_epoch_;

  LaneScratch<std::int64_t> drops_;  ///< per-lane dropped-pair counters

  std::int64_t flushes_ = 0;
  std::int64_t deltas_flushed_ = 0;
};

}  // namespace qplec
