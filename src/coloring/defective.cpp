#include "src/coloring/defective.hpp"

#include <algorithm>
#include <array>

#include "src/coloring/conflict.hpp"
#include "src/coloring/three_color.hpp"
#include "src/coloring/validate.hpp"
#include "src/common/math.hpp"

namespace qplec {

DefectiveColoring defective_edge_coloring(const Graph& g, const EdgeSubset& H, int beta,
                                          const std::vector<std::uint64_t>& phi,
                                          std::uint64_t phi_palette, RoundLedger& ledger,
                                          const ExecBackend* exec, ValidationGate* gate) {
  const ExecBackend& ex = exec_or_inline(exec);
  QPLEC_REQUIRE(beta >= 1);
  QPLEC_REQUIRE(H.universe_size() == g.num_edges());
  const int group_cap = 4 * beta;

  DefectiveColoring out;
  out.cls.assign(static_cast<std::size_t>(g.num_edges()), -1);

  // Step 1+2: group assignment and edge numbering, one exchange round.
  // number_from[e][side]: the 1-based number assigned by the endpoint; group
  // index per side identifies the group for conflict detection.  A node-
  // local pass: node v writes only the v-side slot of its incident edges,
  // so the node shards never collide.
  struct SideInfo {
    int number = 0;  // 1..4beta
    int group = 0;   // group index at that endpoint
  };
  std::vector<SideInfo> from_u(static_cast<std::size_t>(g.num_edges()));
  std::vector<SideInfo> from_v(static_cast<std::size_t>(g.num_edges()));
  ex.for_nodes(g, [&](int, NodeId v) {
    int idx = 0;
    for (const Incidence& inc : g.incident(v)) {
      if (!H.contains(inc.edge)) continue;
      SideInfo info{idx % group_cap + 1, idx / group_cap};
      const auto& ep = g.endpoints(inc.edge);
      (ep.u == v ? from_u : from_v)[static_cast<std::size_t>(inc.edge)] = info;
      ++idx;
    }
  });
  ledger.charge(1, "defective-numbering");

  // Temporary color: the sorted pair (i, j).
  auto pair_index = [group_cap](int i, int j) {
    // 1 <= i <= j <= 4beta -> dense triangular index.
    QPLEC_ASSERT(1 <= i && i <= j && j <= group_cap);
    return (j - 1) * j / 2 + (i - 1);
  };
  const int num_pairs = group_cap * (group_cap + 1) / 2;

  std::vector<int> temp(static_cast<std::size_t>(g.num_edges()), -1);
  ex.for_members(H, [&](int, EdgeId e) {
    const int a = from_u[static_cast<std::size_t>(e)].number;
    const int b = from_v[static_cast<std::size_t>(e)].number;
    temp[static_cast<std::size_t>(e)] = pair_index(std::min(a, b), std::max(a, b));
  });

  // Step 3: conflicts = same temporary color within the same (node, group).
  // Conflict detection is node-local — both edges of a conflicting pair are
  // incident to the node that detects them — so each node shard scans its
  // own nodes and emits pairs into per-lane sinks, concatenated in lane
  // order below.  (ExplicitConflict sorts and dedups adjacency, so the
  // emission order never reaches the view; the lane concat merely keeps the
  // vector itself deterministic.)  Each (group, temp) bucket has at most 2
  // edges, asserted in the scan.
  LaneScratch<std::vector<std::pair<int, int>>> conflict_sink(ex.lanes());
  LaneScratch<std::vector<std::array<int, 3>>> triple_scratch(ex.lanes());
  ex.for_nodes(g, [&](int lane, NodeId v) {
    std::vector<std::array<int, 3>>& triples = triple_scratch.lane(lane);
    triples.clear();
    for (const Incidence& inc : g.incident(v)) {
      if (!H.contains(inc.edge)) continue;
      const auto& ep = g.endpoints(inc.edge);
      const SideInfo& side =
          (ep.u == v ? from_u : from_v)[static_cast<std::size_t>(inc.edge)];
      triples.push_back({side.group, temp[static_cast<std::size_t>(inc.edge)],
                         static_cast<int>(inc.edge)});
    }
    std::sort(triples.begin(), triples.end());
    for (std::size_t a = 0; a < triples.size();) {
      std::size_t b = a;
      while (b < triples.size() && triples[b][0] == triples[a][0] &&
             triples[b][1] == triples[a][1]) {
        ++b;
      }
      QPLEC_ASSERT_MSG(b - a <= 2,
                       "more than two edges share a temporary color within one group");
      if (b - a == 2) {
        conflict_sink.lane(lane).emplace_back(triples[a][2], triples[a + 1][2]);
      }
      a = b;
    }
  });
  std::vector<std::pair<int, int>> conflicts;
  for (int lane = 0; lane < conflict_sink.num_lanes(); ++lane) {
    conflicts.insert(conflicts.end(), conflict_sink.lane(lane).begin(),
                     conflict_sink.lane(lane).end());
  }

  ExplicitConflict view(g.num_edges(), H.to_vector(), conflicts);
  // Demoted walk: the <=2 bound is enforced structurally by the per-bucket
  // assert in the scan above; the standalone degree sweep re-derives it.
  if (gate == nullptr || gate->due()) {
    QPLEC_ASSERT_MSG(max_conflict_degree(view, &ex) <= 2,
                     "same-temp-color conflict graph must be paths/cycles");
  }

  // 3-color the path/cycle system.
  const ThreeColorResult tc =
      three_color_paths_cycles(view, phi, phi_palette, ledger, &ex, gate);
  const std::vector<Color>& three = tc.colors;
  out.rounds = 1 + tc.rounds;

  out.num_classes = 3 * num_pairs;
  ex.for_members(H, [&](int, EdgeId e) {
    out.cls[static_cast<std::size_t>(e)] =
        temp[static_cast<std::size_t>(e)] * 3 + three[static_cast<std::size_t>(e)];
  });

  // The paper's defect bound, asserted on every edge.  Demoted: the walk
  // costs two full neighborhood scans per edge and feeds nothing downstream
  // (the engine's deg0 pass re-measures what the recursion needs).
  if (gate == nullptr || gate->due()) {
    ex.for_members(H, [&](int, EdgeId e) {
      const int defect = edge_defect(g, H, out.cls, e);
      const int deg_h = H.induced_edge_degree(g, e);
      QPLEC_ASSERT_MSG(2 * beta * defect <= deg_h,
                       "defective coloring bound violated at edge "
                           << e << ": defect " << defect << " > deg/(2beta) = " << deg_h
                           << "/" << 2 * beta);
    });
  }
  return out;
}

}  // namespace qplec
