// Mutable construction front-end for Graph.
//
// Accepts edges in any order, rejects self-loops, deduplicates parallel
// edges, and produces the immutable CSR Graph.  Edge ids are assigned in the
// (u, v)-lexicographic order of the canonicalized endpoint pairs so that a
// graph's edge ids are independent of insertion order (important for
// reproducibility of experiments).
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/graph.hpp"

namespace qplec {

class GraphBuilder {
 public:
  /// Creates a builder for a graph with num_nodes isolated nodes.
  explicit GraphBuilder(int num_nodes);

  int num_nodes() const { return num_nodes_; }

  /// Adds the undirected edge {u, v}.  Self-loops are rejected; duplicates
  /// are deduplicated at build time.  Returns *this for chaining.
  GraphBuilder& add_edge(NodeId u, NodeId v);

  /// Number of edges added so far (before deduplication).
  std::size_t num_pending_edges() const { return pending_.size(); }

  /// Carries the LOCAL ids of `from` (which must have the same node count)
  /// into the built graph instead of the default v+1 assignment.  Edge-churn
  /// rebuilds use this: the mutated graph is the same network under the same
  /// identifiers, so the paper's id-driven symmetry breaking (and the graph
  /// fingerprint) keeps seeing the ids the base solve saw.
  GraphBuilder& carry_local_ids(const Graph& from);

  /// Builds the immutable graph.  The builder may be reused afterwards.
  Graph build() const;

 private:
  int num_nodes_;
  std::vector<EdgeEndpoints> pending_;
  std::vector<std::uint64_t> local_ids_;  ///< empty: default v+1 assignment
  std::uint64_t max_local_id_ = 0;
};

}  // namespace qplec
