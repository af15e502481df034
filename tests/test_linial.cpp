#include "src/coloring/linial.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "src/coloring/initial.hpp"
#include "src/coloring/validate.hpp"
#include "src/common/field.hpp"
#include "src/common/math.hpp"
#include "src/dist/backend.hpp"
#include "src/graph/generators.hpp"
#include "src/local/ledger.hpp"
#include "src/runtime/thread_pool.hpp"

namespace qplec {
namespace {

TEST(InitialColoring, ProperAndWithinPalette) {
  const Graph g = make_gnp(40, 0.2, 7).with_scrambled_ids(40 * 40, 3);
  const InitialColoring init = initial_edge_coloring_from_ids(g);
  ASSERT_EQ(init.colors.size(), static_cast<std::size_t>(g.num_edges()));
  const LineGraphConflict view(g, EdgeSubset::all(g));
  EXPECT_TRUE(is_proper_on_conflict(view, init.colors));
  for (const auto c : init.colors) EXPECT_LT(c, init.palette);
  EXPECT_EQ(init.palette, (g.max_local_id() + 1) * (g.max_local_id() + 1));
}

TEST(ChooseLinialParams, RespectsConstraints) {
  for (const std::uint64_t palette : {100ull, 10000ull, 1ull << 30, 1ull << 50}) {
    for (const int d : {1, 2, 5, 20, 126}) {
      const LinialParams p = choose_linial_params(palette, d);
      if (p.q == 0) continue;  // fixpoint
      EXPECT_TRUE(is_prime(p.q));
      EXPECT_GE(p.q, static_cast<std::uint32_t>(d * p.k + 1));
      EXPECT_GE(saturating_pow(p.q, static_cast<unsigned>(p.k + 1)), palette);
      EXPECT_LT(static_cast<std::uint64_t>(p.q) * p.q, palette);  // strict progress
    }
  }
}

TEST(ChooseLinialParams, FixpointReturnsZero) {
  // Palette already ~ d^2: no further shrink possible.
  const LinialParams p = choose_linial_params(9, 2);
  EXPECT_EQ(p.q, 0u);
}

TEST(LinialStep, PreservesProperness) {
  const Graph g = make_gnp(30, 0.25, 15).with_scrambled_ids(900, 2);
  const LineGraphConflict view(g, EdgeSubset::all(g));
  const InitialColoring init = initial_edge_coloring_from_ids(g);
  const LinialParams params = choose_linial_params(init.palette, g.max_edge_degree());
  ASSERT_GT(params.q, 0u);
  const auto next = linial_step(view, init.colors, params);
  EXPECT_TRUE(is_proper_on_conflict(view, next));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_LT(next[static_cast<std::size_t>(e)],
              static_cast<std::uint64_t>(params.q) * params.q);
  }
}

TEST(LinialStep, RejectsImproperInput) {
  const Graph g = make_path(3);  // two adjacent edges
  const LineGraphConflict view(g, EdgeSubset::all(g));
  std::vector<std::uint64_t> same{5, 5};
  EXPECT_THROW(linial_step(view, same, LinialParams{11, 1}), InvariantViolation);
}

struct ReduceCase {
  int n;
  double p;
  std::uint64_t seed;
};

// gtest prints a parameter into the ctest name; without this it dumps the
// struct's raw bytes, padding included.
void PrintTo(const ReduceCase& c, std::ostream* os) {
  *os << "n" << c.n << "/p" << c.p << "/s" << c.seed;
}

class LinialReduceTest : public ::testing::TestWithParam<ReduceCase> {};

TEST_P(LinialReduceTest, ReachesQuadraticPaletteInLogStarRounds) {
  const ReduceCase& c = GetParam();
  const Graph g = make_gnp(c.n, c.p, c.seed).with_scrambled_ids(
      static_cast<std::uint64_t>(c.n) * c.n, c.seed + 1);
  if (g.num_edges() == 0) return;
  const LineGraphConflict view(g, EdgeSubset::all(g));
  const InitialColoring init = initial_edge_coloring_from_ids(g);
  RoundLedger ledger;
  const int d = g.max_edge_degree();
  const LinialResult res =
      linial_reduce(view, init.colors, init.palette, d, ledger);
  EXPECT_TRUE(is_proper_on_conflict(view, res.colors));
  for (const auto c : res.colors) EXPECT_LT(c, res.palette);
  // Fixpoint palette is O(d^2): empirically < 7*(d+2)^2 for all tested d.
  EXPECT_LE(res.palette, 7ull * (d + 2) * (d + 2)) << "d=" << d;
  // O(log*): the chain collapses in a handful of iterations.
  EXPECT_LE(res.rounds, 8);
  EXPECT_EQ(ledger.total(), res.rounds);
}

INSTANTIATE_TEST_SUITE_P(Families, LinialReduceTest,
                         ::testing::Values(ReduceCase{20, 0.15, 1}, ReduceCase{40, 0.1, 2},
                                           ReduceCase{40, 0.3, 3}, ReduceCase{80, 0.05, 4},
                                           ReduceCase{80, 0.2, 5}, ReduceCase{25, 0.6, 6},
                                           ReduceCase{120, 0.03, 7}));

TEST(LinialReduce, PathGetsConstantPalette) {
  const Graph g = make_path(200).with_scrambled_ids(200 * 200, 11);
  const LineGraphConflict view(g, EdgeSubset::all(g));
  const InitialColoring init = initial_edge_coloring_from_ids(g);
  RoundLedger ledger;
  const LinialResult res = linial_reduce(view, init.colors, init.palette, 2, ledger);
  EXPECT_TRUE(is_proper_on_conflict(view, res.colors));
  EXPECT_LE(res.palette, 121u);  // O(1) for degree-2 conflict graphs
}

TEST(LinialReduce, LargeIdsStillLogStar) {
  // Ids near 2^31: initial palette ~2^64 yet rounds stay ~log*.
  const Graph g = make_cycle(64).with_scrambled_ids(1ull << 31, 13);
  const LineGraphConflict view(g, EdgeSubset::all(g));
  const InitialColoring init = initial_edge_coloring_from_ids(g);
  RoundLedger ledger;
  const LinialResult res = linial_reduce(view, init.colors, init.palette, 2, ledger);
  EXPECT_TRUE(is_proper_on_conflict(view, res.colors));
  EXPECT_LE(res.rounds, 8);
  EXPECT_LE(res.palette, 121u);
}

TEST(LinialReduce, RestrictedSubsetOnly) {
  // Reduction on a subset must not touch inactive items' colors.
  const Graph g = make_cycle(12).with_scrambled_ids(144, 17);
  EdgeSubset sub(g.num_edges());
  for (EdgeId e = 0; e < 6; ++e) sub.insert(e);
  const LineGraphConflict view(g, sub);
  const InitialColoring init = initial_edge_coloring_from_ids(g);
  RoundLedger ledger;
  const LinialResult res = linial_reduce(view, init.colors, init.palette, 2, ledger);
  EXPECT_TRUE(is_proper_on_conflict(view, res.colors));
  for (EdgeId e = 6; e < 12; ++e) {
    EXPECT_EQ(res.colors[static_cast<std::size_t>(e)],
              init.colors[static_cast<std::size_t>(e)]);
  }
}

/// The step rule as first written, kept as the exact-output reference: one
/// coefficient vector per item, Horner with a 64-bit %, neighbors gathered
/// as pointers through the view, points scanned from color % q.
std::vector<std::uint64_t> reference_step(const ConflictView& view,
                                          const std::vector<std::uint64_t>& colors,
                                          LinialParams params) {
  const std::uint32_t q = params.q;
  std::vector<std::vector<std::uint32_t>> polys(static_cast<std::size_t>(view.num_items()));
  for (int i = 0; i < view.num_items(); ++i) {
    if (!view.active(i)) continue;
    std::uint64_t value = colors[static_cast<std::size_t>(i)];
    for (int j = 0; j <= params.k; ++j) {
      polys[static_cast<std::size_t>(i)].push_back(static_cast<std::uint32_t>(value % q));
      value /= q;
    }
  }
  const auto eval = [q](const std::vector<std::uint32_t>& coeffs, std::uint32_t x) {
    std::uint64_t acc = 0;
    for (auto it = coeffs.rbegin(); it != coeffs.rend(); ++it) acc = (acc * x + *it) % q;
    return static_cast<std::uint32_t>(acc);
  };
  std::vector<std::uint64_t> next = colors;
  for (int i = 0; i < view.num_items(); ++i) {
    if (!view.active(i)) continue;
    std::vector<const std::vector<std::uint32_t>*> nbrs;
    view.for_each_neighbor(i, [&](int f) { nbrs.push_back(&polys[static_cast<std::size_t>(f)]); });
    const auto start = static_cast<std::uint32_t>(colors[static_cast<std::size_t>(i)] % q);
    for (std::uint32_t t = 0; t < q; ++t) {
      const std::uint32_t a = (start + t) % q;
      const std::uint32_t mv = eval(polys[static_cast<std::size_t>(i)], a);
      bool good = true;
      for (const auto* other : nbrs) good = good && eval(*other, a) != mv;
      if (good) {
        next[static_cast<std::size_t>(i)] = static_cast<std::uint64_t>(a) * q + mv;
        break;
      }
    }
  }
  return next;
}

/// linial_step and linial_reduce against the reference, step by step, on
/// executors of 1, 2, 3, 4 and 7 lanes.  Returns the parameter chain.
std::vector<LinialParams> expect_reference_output(const Graph& g) {
  const LineGraphConflict view(g, EdgeSubset::all(g));
  const InitialColoring init = initial_edge_coloring_from_ids(g);
  const int d = g.max_edge_degree();
  ThreadPool pool(3);
  std::vector<std::unique_ptr<const ExecBackend>> backends;
  for (const int shards : {1, 2, 3, 4, 7}) {
    backends.push_back(std::make_unique<const ExecBackend>(g, shards, pool));
    EXPECT_EQ(backends.back()->lanes(), shards);
  }

  std::vector<LinialParams> chain;
  std::vector<std::uint64_t> colors = init.colors;
  std::uint64_t palette = init.palette;
  for (LinialParams p = choose_linial_params(palette, d); p.q != 0;
       p = choose_linial_params(palette, d)) {
    chain.push_back(p);
    const std::vector<std::uint64_t> expect = reference_step(view, colors, p);
    for (const auto& ex : backends) {
      EXPECT_EQ(linial_step(view, colors, p, ex.get()), expect)
          << "step " << chain.size() << " lanes=" << ex->lanes();
    }
    colors = expect;
    palette = static_cast<std::uint64_t>(p.q) * p.q;
  }
  for (const auto& ex : backends) {
    RoundLedger ledger;
    const LinialResult res =
        linial_reduce(view, init.colors, init.palette, d, ledger, ex.get());
    EXPECT_EQ(res.colors, colors) << "lanes=" << ex->lanes();
    EXPECT_EQ(res.palette, palette);
    EXPECT_EQ(res.rounds, static_cast<int>(chain.size()));
  }
  return chain;
}

TEST(LinialStep, MatchesReferenceOnStressorShape) {
  // 16-regular, edge degree 30, ids scrambled into 2^31: the parameter
  // chain of the e2e stressor, starting (223, 7) -> (61, 2).
  const Graph g = make_random_regular(512, 16, 21).with_scrambled_ids(1ull << 31, 22);
  ASSERT_EQ(g.max_edge_degree(), 30);
  const std::vector<LinialParams> chain = expect_reference_output(g);
  ASSERT_GE(chain.size(), 2u);
  EXPECT_EQ(chain[0].q, 223u);
  EXPECT_EQ(chain[0].k, 7);
  EXPECT_EQ(chain[1].q, 61u);
  EXPECT_EQ(chain[1].k, 2);
}

TEST(LinialStep, MatchesReferenceWithSmallQ) {
  // Edge degree <= 2 and a small id space: q stays in the tens.
  const Graph g = make_cycle(300).with_scrambled_ids(2000, 23);
  const std::vector<LinialParams> chain = expect_reference_output(g);
  ASSERT_FALSE(chain.empty());
  for (const LinialParams& p : chain) EXPECT_LT(p.q, 100u);
}

}  // namespace
}  // namespace qplec
