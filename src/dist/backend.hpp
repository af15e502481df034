// ExecBackend — the one executor of edge-local rounds.
//
// The solver's rounds are all of one shape: "every edge of a subset updates
// its own state from committed neighbor state".  That step is embarrassingly
// parallel within the round, so the SolverEngine routes it through this
// executor instead of iterating inline.  The executor has L lanes.  With one
// lane (the default, and every solve below ExecConfig::min_sharded_edges)
// each pass runs inline on the calling thread; with L > 1 the pass fans out
// over L contiguous degree-balanced edge shards on a ThreadPool, one task
// per lane, and joins at the round barrier.  The base-case primitives
// (Linial reduction, the defective split, greedy class sweeps behind
// ConflictView) run their per-node and per-item passes through the same
// executor, so a sharded solve parallelizes all the way down, not just the
// outer recursion.  The passes are member templates, so the step function
// is called directly, with no dynamic dispatch or type erasure per item.
//
// Contract for step functions fn(lane, e):
//   * fn may mutate only state owned by edge e (its working list, its final
//     color, per-edge scratch slots) plus slots indexed by `lane` (see
//     LaneScratch);
//   * fn must not charge the ledger (the caller charges the round once,
//     outside the parallel region) and must not recurse into the engine.
// Lanes cover contiguous ascending id ranges, so per-lane partial results
// concatenated in lane order are in global id order regardless of the lane
// count — together with order-invariant folds this makes a solve on any
// lane count bit-identical to the 1-lane solve.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/exec_config.hpp"
#include "src/dist/partition.hpp"
#include "src/graph/subset.hpp"
#include "src/runtime/thread_pool.hpp"

namespace qplec {

class ExecBackend {
 public:
  /// The 1-lane executor: every pass runs inline on the calling thread.
  ExecBackend() = default;

  /// `shards` lanes over g's degree-balanced edge shards (clamped to the
  /// edge count), run on `pool`, which must outlive the executor.  A single
  /// lane runs inline: no partition is built and the pool is never used.
  ExecBackend(const Graph& g, int shards, ThreadPool& pool);

  /// The executor a solve over g runs on: 1 lane unless
  /// config.wants_sharding(g.num_edges()), else config.shards lanes on the
  /// leased config.shared_pool or, without a lease, on an owned pool of
  /// config.pool_threads() workers (joined by the destructor).
  ExecBackend(const Graph& g, const ExecConfig& config);

  ExecBackend(const ExecBackend&) = delete;
  ExecBackend& operator=(const ExecBackend&) = delete;

  /// Number of lanes step functions may index (1 when inline).
  int lanes() const { return edges_ ? edges_->num_shards() : 1; }

  /// Runs fn(lane, e) for every member of s, each exactly once; blocks until
  /// all steps finished (the round barrier).  Exceptions from fn propagate.
  template <typename Fn>
  void for_members(const EdgeSubset& s, Fn&& fn) const {
    if (!edges_) {
      s.for_each([&](EdgeId e) { fn(0, e); });
      return;
    }
    QPLEC_REQUIRE_MSG(s.universe_size() == g_->num_edges(),
                      "subset universe does not match the sharded graph");
    run_lanes(edges_->num_shards(), [&](int lane) {
      const EdgeShard& es = edges_->shard(lane);
      for (EdgeId e = es.edge_begin; e < es.edge_end; ++e) {
        if (s.contains(e)) fn(lane, e);
      }
    });
  }

  /// Runs fn(lane, i) for every i in [0, count); lanes cover contiguous
  /// ascending index blocks.
  template <typename Fn>
  void for_indices(int count, Fn&& fn) const {
    QPLEC_REQUIRE(count >= 0);
    if (!edges_) {
      for (int i = 0; i < count; ++i) fn(0, i);
      return;
    }
    if (count == g_->num_edges()) {
      // An index space the size of the edge universe is (in every current
      // caller, and harmlessly otherwise) edge-indexed: reuse the
      // degree-balanced edge shards instead of an even count split, so hub
      // edges don't pile into one lane.  Any contiguous ascending lane split
      // is equivalent for determinism.
      run_lanes(edges_->num_shards(), [&](int lane) {
        const EdgeShard& es = edges_->shard(lane);
        for (EdgeId e = es.edge_begin; e < es.edge_end; ++e) fn(lane, static_cast<int>(e));
      });
      return;
    }
    const int n = std::min(lanes(), count);
    run_lanes(n, [&](int lane) {
      const int begin = static_cast<int>(static_cast<std::int64_t>(count) * lane / n);
      const int end = static_cast<int>(static_cast<std::int64_t>(count) * (lane + 1) / n);
      for (int i = begin; i < end; ++i) fn(lane, i);
    });
  }

  /// Runs fn(lane, v) for every node v of g; lanes cover contiguous
  /// ascending degree-balanced node ranges.  The per-node passes of the
  /// base-case primitives (defective numbering, same-group conflict
  /// detection) run through this: a node may mutate only state owned by its
  /// own incident (node, port) slots plus lane-indexed slots.  With more
  /// than one lane g must be the graph the executor was built over.
  template <typename Fn>
  void for_nodes(const Graph& g, Fn&& fn) const {
    if (!edges_) {
      for (NodeId v = 0; v < g.num_nodes(); ++v) fn(0, v);
      return;
    }
    QPLEC_REQUIRE_MSG(&g == g_, "for_nodes graph does not match the sharded graph");
    run_lanes(nodes_->num_shards(), [&](int lane) {
      const NodeShard& ns = nodes_->shard(lane);
      for (NodeId v = ns.node_begin; v < ns.node_end; ++v) fn(lane, v);
    });
  }

  /// Runs fn(lane, begin, end) once per lane with that lane's owned
  /// contiguous edge-id range; the ranges are disjoint, ascending in lane
  /// order, and cover [0, universe) exactly.  The unique-writer partition
  /// primitive: within its call, a lane may write per-edge state of ANY
  /// edge id inside its own range (not just state of edges a step function
  /// was handed) — the NeighborColorCache fills its per-edge live rows
  /// through this.  With more than one lane `universe` must equal the
  /// executor's graph's edge count (the ranges are its edge shards).
  template <typename Fn>
  void for_edge_ranges(int universe, Fn&& fn) const {
    QPLEC_REQUIRE(universe >= 0);
    if (universe == 0) return;
    if (!edges_) {
      fn(0, EdgeId{0}, static_cast<EdgeId>(universe));
      return;
    }
    QPLEC_REQUIRE_MSG(universe == g_->num_edges(),
                      "for_edge_ranges universe does not match the sharded graph");
    run_lanes(edges_->num_shards(), [&](int lane) {
      const EdgeShard& es = edges_->shard(lane);
      fn(lane, es.edge_begin, es.edge_end);
    });
  }

 private:
  void shard(const Graph& g, int shards, ThreadPool& pool);

  /// One pool task per lane.
  template <typename Task>
  void run_lanes(int n, const Task& task) const {
    pool_->run_indexed(n, [&](int, int lane) { task(lane); });
  }

  // All null / empty on the 1-lane executor.
  const Graph* g_ = nullptr;
  std::optional<EdgePartition> edges_;
  std::optional<NodePartition> nodes_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;
};

/// `exec`, or the process-wide 1-lane executor when it is null: the one
/// place the optional executor argument of the primitives is resolved.
const ExecBackend& exec_or_inline(const ExecBackend* exec);

/// One cache-line-padded slot per lane of a parallel pass (padding keeps
/// per-lane writes from false-sharing).  A slot holds either transient
/// working memory that stays resident in its lane across the steps it runs
/// (neighbor-color buffers, conflict-pair sinks), or a private accumulator
/// that the calling thread folds in lane order after the pass.  Parallel
/// loops never fold into one shared accumulator, whose result would depend
/// on interleaving; the sum/max/min/all folds are also invariant to where
/// the lane boundaries fall, so 1 lane and 7 lanes agree bit for bit.
template <typename T>
class LaneScratch {
 public:
  /// Every slot starts at `init`, which is also the seed of every fold.
  explicit LaneScratch(int lanes, T init = T{}) : init_(init) {
    QPLEC_REQUIRE(lanes >= 1);
    slots_.resize(static_cast<std::size_t>(lanes), Slot{init});
  }

  int num_lanes() const { return static_cast<int>(slots_.size()); }

  /// The slot of one lane; each parallel worker touches only the lane it
  /// was handed by the executor.
  T& lane(int l) {
    QPLEC_REQUIRE(l >= 0 && l < num_lanes());
    return slots_[static_cast<std::size_t>(l)].value;
  }

  const T& lane(int l) const {
    QPLEC_REQUIRE(l >= 0 && l < num_lanes());
    return slots_[static_cast<std::size_t>(l)].value;
  }

  T sum() const {
    return fold([](const T& a, const T& b) { return a + b; });
  }
  T max() const {
    return fold([](const T& a, const T& b) { return std::max(a, b); });
  }
  T min() const {
    return fold([](const T& a, const T& b) { return std::min(a, b); });
  }

  /// True iff every lane holds a truthy value (per-lane "all good" flags).
  bool all() const {
    return fold([](const T& a, const T& b) { return a && b; });
  }

 private:
  struct alignas(64) Slot {
    T value;
  };

  template <typename Fold>
  T fold(const Fold& f) const {
    T acc = init_;
    for (const Slot& s : slots_) acc = f(acc, s.value);
    return acc;
  }

  T init_;
  std::vector<Slot> slots_;
};

}  // namespace qplec
