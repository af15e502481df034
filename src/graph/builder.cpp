#include "src/graph/builder.hpp"

#include <algorithm>

namespace qplec {

GraphBuilder::GraphBuilder(int num_nodes) : num_nodes_(num_nodes) {
  QPLEC_REQUIRE(num_nodes >= 0);
}

GraphBuilder& GraphBuilder::add_edge(NodeId u, NodeId v) {
  QPLEC_REQUIRE_MSG(u >= 0 && u < num_nodes_, "endpoint " << u << " out of range");
  QPLEC_REQUIRE_MSG(v >= 0 && v < num_nodes_, "endpoint " << v << " out of range");
  QPLEC_REQUIRE_MSG(u != v, "self-loop at node " << u);
  pending_.push_back(u < v ? EdgeEndpoints{u, v} : EdgeEndpoints{v, u});
  return *this;
}

GraphBuilder& GraphBuilder::carry_local_ids(const Graph& from) {
  QPLEC_REQUIRE_MSG(from.num_nodes() == num_nodes_,
                    "carry_local_ids: node count mismatch (" << from.num_nodes() << " vs "
                                                             << num_nodes_ << ")");
  local_ids_.resize(static_cast<std::size_t>(num_nodes_));
  for (NodeId v = 0; v < num_nodes_; ++v) {
    local_ids_[static_cast<std::size_t>(v)] = from.local_id(v);
  }
  max_local_id_ = from.max_local_id();
  return *this;
}

Graph GraphBuilder::build() const {
  std::vector<EdgeEndpoints> edges = pending_;
  std::sort(edges.begin(), edges.end(), [](const EdgeEndpoints& a, const EdgeEndpoints& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  Graph g;
  g.edges_ = edges;
  g.offsets_.assign(static_cast<std::size_t>(num_nodes_) + 1, 0);
  for (const auto& e : edges) {
    ++g.offsets_[static_cast<std::size_t>(e.u) + 1];
    ++g.offsets_[static_cast<std::size_t>(e.v) + 1];
  }
  for (std::size_t i = 1; i < g.offsets_.size(); ++i) g.offsets_[i] += g.offsets_[i - 1];

  g.adj_.resize(g.offsets_.back());
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (std::size_t id = 0; id < edges.size(); ++id) {
    const auto& e = edges[id];
    const auto eid = static_cast<EdgeId>(id);
    g.adj_[cursor[static_cast<std::size_t>(e.u)]++] = Incidence{e.v, eid};
    g.adj_[cursor[static_cast<std::size_t>(e.v)]++] = Incidence{e.u, eid};
  }
  // Within each node the incidences are produced in increasing edge-id order,
  // which for a fixed node u is increasing (u, v) order only for the u-side;
  // sort each adjacency list by neighbor so find_edge can binary search.
  for (int v = 0; v < num_nodes_; ++v) {
    auto begin =
        g.adj_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[static_cast<std::size_t>(v)]);
    auto end =
        g.adj_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[static_cast<std::size_t>(v) + 1]);
    std::sort(begin, end,
              [](const Incidence& a, const Incidence& b) { return a.neighbor < b.neighbor; });
  }

  if (!local_ids_.empty()) {
    g.local_ids_ = local_ids_;
    g.max_local_id_ = max_local_id_;
  } else {
    g.local_ids_.resize(static_cast<std::size_t>(num_nodes_));
    for (int v = 0; v < num_nodes_; ++v) {
      g.local_ids_[static_cast<std::size_t>(v)] = static_cast<std::uint64_t>(v) + 1;
    }
    g.max_local_id_ = static_cast<std::uint64_t>(num_nodes_);
  }

  g.max_degree_ = 0;
  for (int v = 0; v < num_nodes_; ++v) g.max_degree_ = std::max(g.max_degree_, g.degree(v));
  g.max_edge_degree_ = 0;
  for (int e = 0; e < g.num_edges(); ++e) {
    g.max_edge_degree_ = std::max(g.max_edge_degree_, g.edge_degree(e));
  }
  return g;
}

}  // namespace qplec
