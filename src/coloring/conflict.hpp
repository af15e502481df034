// ConflictView — the unifying abstraction for every coloring subproblem.
//
// Each subroutine of the paper colors "items" subject to pairwise conflicts:
//   * the main problem colors edges conflicting when they share a node
//     (the line graph, restricted to the currently relevant edge subset);
//   * the defective-coloring step 3-colors edges conflicting when they have
//     the same temporary color and share a group (a disjoint union of paths
//     and cycles);
//   * the color-space reduction (Lemma 4.3) assigns subspaces to edges
//     conflicting when they belong to the same *virtual* node group.
// All of these are list coloring problems on sparse conflict graphs whose
// conflicting pairs are within O(1) hops of each other in the communication
// graph, so one conflict-graph round costs O(1) LOCAL rounds.  Implementing
// Linial color reduction and greedy-by-class once against this interface
// gives every subroutine the primitives it needs.
//
// Thread-safety contract: every ConflictView implementation is immutable
// after construction, so active()/for_each_neighbor()/degree() may be called
// concurrently from the lanes of a sharded ExecBackend — the property the
// executor-routed primitives (src/coloring/{linial,greedy,defective}) rely
// on.
//
// Callback contract: for_each_neighbor borrows its callback (a NeighborFn,
// which refers to the caller's callable without copying it) only for the
// duration of the call; implementations must not store it.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/assert.hpp"
#include "src/dist/backend.hpp"
#include "src/graph/graph.hpp"
#include "src/graph/subset.hpp"

namespace qplec {

/// Non-owning reference to a callable taking an item id: one object pointer
/// plus one trampoline, so passing a capturing lambda never allocates (a
/// std::function heap-allocates captures beyond its small buffer).  It is
/// valid only while the referenced callable lives; as a parameter, a
/// temporary lambda outlives the call it is passed to.
class NeighborFn {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, NeighborFn> &&
             std::is_invocable_v<F&, int>)
  NeighborFn(F&& fn) noexcept  // implicit: call sites pass lambdas directly
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(fn)))),
        call_([](void* obj, int item) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(item);
        }) {}

  void operator()(int item) const { call_(obj_, item); }

 private:
  void* obj_;
  void (*call_)(void*, int);
};

class ConflictView {
 public:
  virtual ~ConflictView() = default;

  /// Size of the dense item universe; items are ints in [0, num_items()).
  virtual int num_items() const = 0;

  /// Whether the item participates in this subproblem.
  virtual bool active(int item) const = 0;

  /// Enumerates the active conflicting items of `item` (item must be active).
  /// `fn` is borrowed for the duration of the call only.
  virtual void for_each_neighbor(int item, NeighborFn fn) const = 0;

  /// Number of active items.
  virtual int num_active() const = 0;

  /// Conflict degree of an active item.
  int degree(int item) const {
    int d = 0;
    for_each_neighbor(item, [&](int) { ++d; });
    return d;
  }

  /// Maximum conflict degree over active items (0 if none).
  int max_degree() const {
    int best = 0;
    for (int i = 0; i < num_items(); ++i) {
      if (active(i)) best = std::max(best, degree(i));
    }
    return best;
  }
};

/// The line graph of g restricted to an edge subset: items are edge ids,
/// conflicts are shared endpoints within the subset.  The subset is stored
/// by value (it is a cheap bitvector) so temporaries are safe to pass.
class LineGraphConflict final : public ConflictView {
 public:
  LineGraphConflict(const Graph& g, EdgeSubset subset) : g_(g), subset_(std::move(subset)) {
    QPLEC_REQUIRE(subset_.universe_size() == g.num_edges());
  }

  int num_items() const override { return g_.num_edges(); }
  bool active(int item) const override { return subset_.contains(static_cast<EdgeId>(item)); }
  int num_active() const override { return subset_.size(); }

  void for_each_neighbor(int item, NeighborFn fn) const override {
    g_.for_each_edge_neighbor(static_cast<EdgeId>(item), [&](EdgeId f) {
      if (subset_.contains(f)) fn(static_cast<int>(f));
    });
  }

 private:
  const Graph& g_;
  EdgeSubset subset_;
};

/// An explicitly materialized sparse conflict graph over a dense item
/// universe (used for path/cycle systems and virtual graphs).  Only items
/// mentioned at construction are active.
class ExplicitConflict final : public ConflictView {
 public:
  /// active_items: the participating items; conflicts: symmetric pairs
  /// between active items (duplicates allowed, deduplicated here).
  ExplicitConflict(int universe, const std::vector<int>& active_items,
                   const std::vector<std::pair<int, int>>& conflicts);

  int num_items() const override { return universe_; }
  bool active(int item) const override {
    QPLEC_REQUIRE(item >= 0 && item < universe_);
    return active_[static_cast<std::size_t>(item)];
  }
  int num_active() const override { return num_active_; }

  void for_each_neighbor(int item, NeighborFn fn) const override {
    QPLEC_REQUIRE(active(item));
    for (int f : adj_[static_cast<std::size_t>(item)]) fn(f);
  }

 private:
  int universe_;
  int num_active_ = 0;
  std::vector<char> active_;
  std::vector<std::vector<int>> adj_;
};

/// ConflictView::max_degree computed through the executor: the item scan
/// fans out over its lanes and folds with a per-lane max (order-invariant,
/// so the result is bit-identical for any lane layout).  Null exec runs on
/// one inline lane.
int max_conflict_degree(const ConflictView& view, const ExecBackend* exec);

}  // namespace qplec
