// The NeighborColorCache contract: the incremental refresh/restrict passes
// are bit-identical to the full-rescan reference path — for every smoke
// scenario, at every shard count, cached and uncached solves produce the
// same coloring, the same round counts, the same ledger report and the same
// deterministic solver statistics — plus unit tests of the delta machinery
// itself (finalize scatter, shard-boundary crossing, consume after
// re-restriction, live-neighbor compaction).
#include "src/dist/neighbor_cache.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/coloring/problem.hpp"
#include "src/core/solver.hpp"
#include "src/graph/builder.hpp"
#include "src/graph/generators.hpp"
#include "src/runtime/batch_solver.hpp"
#include "src/runtime/scenarios.hpp"
#include "src/runtime/thread_pool.hpp"
#include "tests/support/smoke_manifest.hpp"

namespace qplec {
namespace {

using test_support::smoke_scenarios;

const int kShardCounts[] = {1, 2, 7};

void expect_same_solve(const SolveResult& a, const SolveResult& b, const char* what) {
  EXPECT_EQ(a.colors, b.colors) << what;
  EXPECT_EQ(hash_coloring(a.colors), hash_coloring(b.colors)) << what;
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.raw_rounds, b.raw_rounds) << what;
  EXPECT_EQ(a.round_report, b.round_report) << what;
  EXPECT_EQ(a.stats.basecase_calls, b.stats.basecase_calls) << what;
  EXPECT_EQ(a.stats.defective_calls, b.stats.defective_calls) << what;
  EXPECT_EQ(a.stats.space_reductions, b.stats.space_reductions) << what;
  EXPECT_EQ(a.stats.noslack_fallbacks, b.stats.noslack_fallbacks) << what;
  EXPECT_EQ(a.stats.virtual_instances, b.stats.virtual_instances) << what;
  EXPECT_EQ(a.stats.e2_instances, b.stats.e2_instances) << what;
  EXPECT_EQ(a.stats.trivial_picks, b.stats.trivial_picks) << what;
  EXPECT_EQ(a.stats.classes_nonempty, b.stats.classes_nonempty) << what;
  EXPECT_EQ(a.stats.phases_executed, b.stats.phases_executed) << what;
  EXPECT_EQ(a.stats.max_depth, b.stats.max_depth) << what;
}

// The differential gate of the ISSUE: cached and uncached solves are
// bit-identical across the smoke manifest at shards {1, 2, 7}.
TEST(NeighborCache, CachedSolveBitIdenticalToUncachedAcrossSmokeAndShards) {
  ThreadPool pool(3);
  for (const Scenario& scenario : smoke_scenarios()) {
    const ListEdgeColoringInstance instance = build_instance(scenario);

    ExecConfig uncached_serial;
    uncached_serial.use_neighbor_cache = false;
    const SolveResult reference =
        Solver(make_policy(scenario.policy), uncached_serial).solve(instance);

    for (const int shards : kShardCounts) {
      for (const bool cached : {true, false}) {
        ExecConfig exec;
        exec.shards = shards;
        exec.min_sharded_edges = 0;
        exec.shared_pool = shards > 1 ? &pool : nullptr;
        exec.use_neighbor_cache = cached;
        const SolveResult res = Solver(make_policy(scenario.policy), exec).solve(instance);
        expect_same_solve(res, reference,
                          (scenario.name() + " shards=" + std::to_string(shards) +
                           (cached ? " cached" : " uncached"))
                              .c_str());
      }
    }
  }
}

// The cache telemetry is itself deterministic: every shard count reports the
// same delta/scatter counts (one delta per finalized edge).
TEST(NeighborCache, TelemetryIsShardCountInvariant) {
  ThreadPool pool(3);
  for (const Scenario& scenario : smoke_scenarios()) {
    const ListEdgeColoringInstance instance = build_instance(scenario);
    std::int64_t deltas = -1, scattered = -1;
    for (const int shards : kShardCounts) {
      ExecConfig exec;
      exec.shards = shards;
      exec.min_sharded_edges = 0;
      exec.shared_pool = shards > 1 ? &pool : nullptr;
      const SolveResult res = Solver(make_policy(scenario.policy), exec).solve(instance);
      EXPECT_GT(res.stats.cache_deltas, 0) << scenario.name();
      if (deltas < 0) {
        deltas = res.stats.cache_deltas;
        scattered = res.stats.cache_colors_removed;
      } else {
        EXPECT_EQ(res.stats.cache_deltas, deltas)
            << scenario.name() << " shards=" << shards;
        EXPECT_EQ(res.stats.cache_colors_removed, scattered)
            << scenario.name() << " shards=" << shards;
      }
    }
  }
}

// --- Delta-queue / row-sweep unit tests ----------------------------------

// Finalize: a consuming sweep removes a newly finalized neighbor's color
// from the list, compacts the entry out of the live row, and handles the
// pair exactly once; the flushed delta log counts the finalization.
TEST(NeighborCache, ConsumeRemovesFinalizedNeighborColorExactlyOnce) {
  // Path 0-1-2-3-4: edges e0..e3 in id order; e1 neighbors e0 and e2 only.
  const Graph g = make_path(5);
  ASSERT_EQ(g.num_edges(), 4);
  EdgeColoring final(4, kUncolored);
  const ExecBackend one_lane;
  NeighborColorCache cache(g, final, one_lane);
  EXPECT_EQ(cache.live_degree_bound(0), g.edge_degree(0));

  final[1] = 7;
  cache.note_finalized(0, 1);
  cache.flush();
  EXPECT_EQ(cache.deltas_flushed(), 1);

  ColorList list(std::vector<Color>{5, 7, 9});
  cache.consume(0, 0, list);
  EXPECT_EQ(list, ColorList(std::vector<Color>{5, 9}));
  EXPECT_EQ(cache.live_degree_bound(0), g.edge_degree(0) - 1);  // e1 dropped
  EXPECT_EQ(cache.colors_removed(), 1);

  // The pair was handled once: a second consume finds nothing to do.
  ColorList relisted(std::vector<Color>{7, 8});
  cache.consume(0, 0, relisted);
  EXPECT_EQ(relisted, ColorList(std::vector<Color>{7, 8}));
  EXPECT_EQ(cache.colors_removed(), 1);
}

// Boundary crossing: a sharded cache (rows filled over the unique-writer
// edge ranges, deltas noted on different lanes) behaves identically to the
// 1-lane cache when finalized edges sit at shard boundaries — the live rows,
// consume results and telemetry all match.
TEST(NeighborCache, BoundaryFinalizationsMatchSerialAcrossShardCounts) {
  const Graph g = make_cycle(40);
  ThreadPool pool(3);
  const ExecBackend one_lane;
  for (const int shards : {1, 2, 3, 4, 7}) {
    const ExecBackend backend(g, shards, pool);
    EdgeColoring final(static_cast<std::size_t>(g.num_edges()), kUncolored);
    NeighborColorCache sharded_cache(g, final, backend);
    NeighborColorCache serial_cache(g, final, one_lane);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      ASSERT_EQ(sharded_cache.live_degree_bound(e), serial_cache.live_degree_bound(e));
    }

    // Finalize a spread of edges, including both ends of the id space (their
    // cycle neighborhoods wrap across every shard layout), noted on distinct
    // lanes of the sharded cache.
    const std::vector<EdgeId> finalized{0, 1, 19, 39};
    int lane = 0;
    for (const EdgeId e : finalized) {
      final[static_cast<std::size_t>(e)] = 100 + e;
      sharded_cache.note_finalized(lane % sharded_cache.num_lanes(), e);
      serial_cache.note_finalized(0, e);
      ++lane;
    }
    sharded_cache.flush();
    serial_cache.flush();
    EXPECT_EQ(sharded_cache.deltas_flushed(), serial_cache.deltas_flushed());

    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      ColorList a = ColorList::range(100, 100 + 40);
      ColorList b = a;
      sharded_cache.consume(0, e, a);
      serial_cache.consume(0, e, b);
      EXPECT_EQ(a, b) << "edge " << e << " shards=" << shards;
      EXPECT_EQ(sharded_cache.live_degree_bound(e), serial_cache.live_degree_bound(e))
          << "edge " << e << " shards=" << shards;
    }
    EXPECT_EQ(sharded_cache.colors_removed(), serial_cache.colors_removed());
  }
}

// Re-restriction: colors that a restriction already dropped from the list
// consume as no-ops (removal is idempotent), leaving the same list the full
// rescan would.
TEST(NeighborCache, ConsumeAfterRestrictionIsANoOpForDroppedColors) {
  const Graph g = make_path(4);  // edges e0, e1, e2
  EdgeColoring final(3, kUncolored);
  const ExecBackend one_lane;
  NeighborColorCache cache(g, final, one_lane);

  final[1] = 50;
  cache.note_finalized(0, 1);
  cache.flush();

  // e0's list got restricted to [0, 10) before it consumed the finalization:
  // color 50 is already gone, and consuming must not disturb the rest.
  ColorList list = ColorList(std::vector<Color>{2, 5, 50}).restricted_to_range(0, 10);
  cache.consume(0, 0, list);
  EXPECT_EQ(list, ColorList(std::vector<Color>{2, 5}));
  EXPECT_EQ(cache.live_degree_bound(0), g.edge_degree(0) - 1);
}

// Live-neighbor iteration: matches the full neighborhood walk filtered by
// finalization, defers the compacted-out colors into the pending slot (the
// channel that keeps non-consuming passes from losing removals), and
// induced_degree agrees with the subset's own count on unfinalized subsets.
TEST(NeighborCache, LiveNeighborsMatchFilteredFullWalkAndDeferColors) {
  const Graph g = make_gnp(24, 0.3, 9);
  EdgeColoring final(static_cast<std::size_t>(g.num_edges()), kUncolored);
  const ExecBackend one_lane;
  NeighborColorCache cache(g, final, one_lane);

  // Finalize every third edge.
  EdgeSubset uncolored(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (e % 3 == 0) {
      final[static_cast<std::size_t>(e)] = 1000 + e;
    } else {
      uncolored.insert(e);
    }
  }

  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    std::vector<EdgeId> expected;
    std::vector<Color> expected_deferred;
    g.for_each_edge_neighbor(e, [&](EdgeId f) {
      if (final[static_cast<std::size_t>(f)] == kUncolored) {
        expected.push_back(f);
      } else {
        expected_deferred.push_back(final[static_cast<std::size_t>(f)]);
      }
    });
    std::vector<EdgeId> live;
    cache.for_each_live_neighbor(0, e, [&](EdgeId f) { live.push_back(f); });
    EXPECT_EQ(live, expected) << "edge " << e;
    EXPECT_EQ(cache.live_degree_bound(e), static_cast<int>(expected.size()));
    EXPECT_EQ(cache.pending(e), expected_deferred) << "edge " << e;
    // A second walk sees the compacted row, same contents, defers nothing new.
    std::vector<EdgeId> again;
    cache.for_each_live_neighbor(0, e, [&](EdgeId f) { again.push_back(f); });
    EXPECT_EQ(again, expected);
    EXPECT_EQ(cache.pending(e), expected_deferred);
    EXPECT_EQ(cache.induced_degree(0, e, uncolored), uncolored.induced_edge_degree(g, e));
    // The deferred colors drain at the next consume — nothing is lost.
    ColorList list = ColorList::range(1000, 1000 + g.num_edges());
    cache.consume(0, e, list);
    EXPECT_TRUE(cache.pending(e).empty());
    for (const Color c : expected_deferred) EXPECT_FALSE(list.contains(c));
  }
}

// The materialization budget: hub-heavy graphs whose live rows would dwarf
// the graph (Theta(sum of deg^2)) refuse the cache, and an engine asked to
// use it silently falls back to the bit-identical full-rescan path instead
// of allocating the rows.
TEST(NeighborCache, HubHeavyGraphsFailTheMaterializationBudget) {
  // Star payload is leaves*(leaves-1); 10000 leaves -> ~1e8 row entries,
  // over both budget arms (absolute cap and 64x the edge count) — building
  // the rows there would dwarf the O(m) graph, so the engine's guard makes
  // such solves run the bit-identical full-rescan path (cache_ never built;
  // that path is what every uncached differential in this file pins).
  EXPECT_FALSE(NeighborColorCache::fits(make_star(10000)));
  // Bounded-degree and modest-degree graphs stay comfortably inside.
  EXPECT_TRUE(NeighborColorCache::fits(make_cycle(10000)));
  EXPECT_TRUE(NeighborColorCache::fits(make_random_regular(1000, 8, 3)));
  // A dense-but-small graph passes via the absolute cap even though its
  // average edge degree exceeds the factor arm.
  EXPECT_TRUE(NeighborColorCache::fits(make_complete(200)));
}

// The batch runtime honors the toggle: a whole batch solved uncached
// reproduces the cached batch fingerprint.
TEST(NeighborCache, BatchSolverCacheToggleKeepsFingerprints) {
  const auto manifest = smoke_scenarios();
  ExecConfig cached;
  cached.workers = 2;
  const BatchReport with_cache = BatchSolver(cached).run(manifest);

  ExecConfig uncached = cached;
  uncached.use_neighbor_cache = false;
  const BatchReport without_cache = BatchSolver(uncached).run(manifest);

  ASSERT_EQ(with_cache.results.size(), without_cache.results.size());
  for (std::size_t i = 0; i < with_cache.results.size(); ++i) {
    EXPECT_EQ(with_cache.results[i].colors_hash, without_cache.results[i].colors_hash);
    EXPECT_EQ(with_cache.results[i].rounds, without_cache.results[i].rounds);
    EXPECT_EQ(with_cache.results[i].raw_rounds, without_cache.results[i].raw_rounds);
    EXPECT_TRUE(with_cache.results[i].valid);
    EXPECT_TRUE(without_cache.results[i].valid);
  }
}

}  // namespace
}  // namespace qplec
