#include "src/coloring/conflict.hpp"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <vector>

#include "src/graph/generators.hpp"

namespace qplec {
namespace {

TEST(LineGraphConflict, MatchesGraphNeighborhoods) {
  const Graph g = make_gnp(25, 0.2, 44);
  const EdgeSubset all = EdgeSubset::all(g);
  const LineGraphConflict view(g, all);
  EXPECT_EQ(view.num_items(), g.num_edges());
  EXPECT_EQ(view.num_active(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_TRUE(view.active(e));
    EXPECT_EQ(view.degree(e), g.edge_degree(e));
    std::set<int> got;
    view.for_each_neighbor(e, [&](int f) { got.insert(f); });
    const auto expect_vec = g.edge_neighbors(e);
    const std::set<int> expected(expect_vec.begin(), expect_vec.end());
    EXPECT_EQ(got, expected);
  }
  EXPECT_EQ(view.max_degree(), g.max_edge_degree());
}

TEST(LineGraphConflict, SubsetRestrictsNeighbors) {
  const Graph g = make_star(5);  // all 5 edges mutually conflict
  EdgeSubset sub(g.num_edges());
  sub.insert(0);
  sub.insert(2);
  sub.insert(4);
  const LineGraphConflict view(g, sub);
  EXPECT_EQ(view.num_active(), 3);
  EXPECT_FALSE(view.active(1));
  EXPECT_EQ(view.degree(0), 2);
  EXPECT_EQ(view.max_degree(), 2);
}

TEST(ConflictView, NeighborCallbackKeepsEnumerationOrder) {
  // for_each_neighbor visits the incident lists of e's endpoints in graph
  // order, filtered by the subset, whether the callable is a temporary, a
  // mutable lvalue or a const lvalue with captures wider than
  // std::function's small buffer.
  const Graph g = make_gnp(25, 0.3, 45);
  EdgeSubset sub(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); e += 2) sub.insert(e);
  const LineGraphConflict view(g, sub);
  for (EdgeId e = 0; e < g.num_edges(); e += 2) {
    std::vector<int> expected;
    for (const EdgeId f : g.edge_neighbors(e)) {
      if (sub.contains(f)) expected.push_back(f);
    }
    std::vector<int> temp;
    view.for_each_neighbor(e, [&](int f) { temp.push_back(f); });
    std::vector<int> lvalue;
    auto collect = [&lvalue](int f) { lvalue.push_back(f); };
    view.for_each_neighbor(e, collect);
    std::vector<int> wide;
    const std::array<int, 8> offsets{0, 0, 0, 0, 0, 0, 0, 0};
    const auto collect_wide = [&wide, offsets, e](int f) { wide.push_back(f + offsets[e % 8]); };
    view.for_each_neighbor(e, collect_wide);
    EXPECT_EQ(temp, expected) << e;
    EXPECT_EQ(lvalue, expected) << e;
    EXPECT_EQ(wide, expected) << e;
  }
  // ExplicitConflict enumerates its deduplicated, sorted adjacency.
  const ExplicitConflict expl(6, {0, 2, 3, 5}, {{3, 5}, {3, 0}, {2, 3}, {3, 0}});
  std::vector<int> got;
  expl.for_each_neighbor(3, [&](int f) { got.push_back(f); });
  EXPECT_EQ(got, (std::vector<int>{0, 2, 5}));
}

TEST(ExplicitConflict, BasicShape) {
  const ExplicitConflict view(6, {1, 3, 5}, {{1, 3}, {3, 5}, {1, 3}});  // dup pair
  EXPECT_EQ(view.num_items(), 6);
  EXPECT_EQ(view.num_active(), 3);
  EXPECT_FALSE(view.active(0));
  EXPECT_EQ(view.degree(1), 1);  // dedup
  EXPECT_EQ(view.degree(3), 2);
  EXPECT_EQ(view.max_degree(), 2);
}

TEST(ExplicitConflict, RejectsBadInput) {
  EXPECT_THROW(ExplicitConflict(3, {0}, {{0, 0}}), std::invalid_argument);  // self
  EXPECT_THROW(ExplicitConflict(3, {0}, {{0, 1}}), std::invalid_argument);  // inactive
  EXPECT_THROW(ExplicitConflict(3, {0, 5}, {}), std::invalid_argument);     // range
}

TEST(ExplicitConflict, IsolatedActiveItems) {
  const ExplicitConflict view(4, {0, 1, 2, 3}, {});
  EXPECT_EQ(view.max_degree(), 0);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(view.degree(i), 0);
}

}  // namespace
}  // namespace qplec
