// Partitioner — contiguous shard decompositions of one CSR graph.
//
// The sharded executor (src/dist/backend.hpp) needs a decomposition of one
// instance into S pieces such that (a) every piece is a contiguous id range,
// so per-shard results concatenated in shard order are in global id order
// for any S — the keystone of the determinism guarantee — and (b) the pieces
// carry comparable amounts of round work, which for both node steps and
// edge-local steps is proportional to the incident adjacency, not the raw
// element count (a power-law hub costs hundreds of cycles per round, a leaf
// costs two).
//
// NodePartition shards the node set for the backend's per-node passes
// (for_nodes); EdgePartition shards the edge-id universe by line-graph degree
// for the solver's edge-local rounds.
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/graph.hpp"

namespace qplec {

/// One node shard: the contiguous range [node_begin, node_end) plus its
/// round-work weight (sum of member degrees).
struct NodeShard {
  NodeId node_begin = 0;
  NodeId node_end = 0;
  std::int64_t adjacency = 0;
};

class NodePartition {
 public:
  /// Splits g's nodes into at most `shards` contiguous ranges balanced by
  /// degree sum.  shards is clamped to [1, max(1, num_nodes)].
  NodePartition(const Graph& g, int shards);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const NodeShard& shard(int s) const {
    QPLEC_REQUIRE(s >= 0 && s < num_shards());
    return shards_[static_cast<std::size_t>(s)];
  }

 private:
  std::vector<NodeShard> shards_;
};

/// One edge shard: the contiguous id range [edge_begin, edge_end) weighted by
/// the sum of member line-graph degrees (the cost of one edge-local step).
struct EdgeShard {
  EdgeId edge_begin = 0;
  EdgeId edge_end = 0;
  std::int64_t weight = 0;
};

class EdgePartition {
 public:
  /// Splits g's edge ids into at most `shards` contiguous ranges balanced by
  /// line-graph degree sum.  shards is clamped to [1, max(1, num_edges)].
  EdgePartition(const Graph& g, int shards);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const EdgeShard& shard(int s) const {
    QPLEC_REQUIRE(s >= 0 && s < num_shards());
    return shards_[static_cast<std::size_t>(s)];
  }

 private:
  std::vector<EdgeShard> shards_;
};

}  // namespace qplec
