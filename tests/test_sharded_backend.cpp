// The sharded executor's contract: sharding is invisible.  For any shard
// count the Solver on a sharded executor produces the same colorings, round
// counts and ledger totals as the seed's serial path — bit for bit.
#include "src/dist/backend.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/core/solver.hpp"
#include "src/graph/generators.hpp"
#include "src/runtime/batch_solver.hpp"
#include "src/runtime/scenarios.hpp"
#include "src/runtime/thread_pool.hpp"
#include "tests/support/smoke_manifest.hpp"

namespace qplec {
namespace {

using test_support::smoke_scenarios;

TEST(ShardedBackend, VisitsEveryMemberExactlyOnce) {
  const Graph g = make_random_regular(50, 6, 9);
  ThreadPool pool(4);
  for (const int shards : {1, 2, 3, 4, 7}) {
    const ExecBackend backend(g, shards, pool);
    EXPECT_EQ(backend.lanes(), shards);
    EdgeSubset odd(g.num_edges());
    for (EdgeId e = 1; e < g.num_edges(); e += 2) odd.insert(e);
    std::vector<int> visits(static_cast<std::size_t>(g.num_edges()), 0);
    backend.for_members(odd, [&](int lane, EdgeId e) {
      EXPECT_GE(lane, 0);
      EXPECT_LT(lane, backend.lanes());
      ++visits[static_cast<std::size_t>(e)];
    });
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_EQ(visits[static_cast<std::size_t>(e)], odd.contains(e) ? 1 : 0);
    }
    std::vector<int> index_visits(31, 0);
    backend.for_indices(31, [&](int, int i) { ++index_visits[static_cast<std::size_t>(i)]; });
    for (const int count : index_visits) EXPECT_EQ(count, 1);
  }
}

// The acceptance gate: every smoke-manifest scenario, solved with 1, 2 and 7
// shards, yields identical colorings, round counts and ledger totals.
TEST(ShardedSolver, SmokeManifestBitIdenticalAcrossShardCounts) {
  for (const Scenario& scenario : smoke_scenarios()) {
    const ListEdgeColoringInstance instance = build_instance(scenario);
    const SolveResult serial = Solver(make_policy(scenario.policy)).solve(instance);
    for (const int shards : {1, 2, 7}) {
      ExecConfig exec;
      exec.shards = shards;
      exec.min_sharded_edges = 0;  // force the sharded path on tiny graphs
      const SolveResult res = Solver(make_policy(scenario.policy), exec).solve(instance);
      EXPECT_EQ(res.colors, serial.colors) << scenario.name() << " shards=" << shards;
      EXPECT_EQ(res.rounds, serial.rounds) << scenario.name() << " shards=" << shards;
      EXPECT_EQ(res.raw_rounds, serial.raw_rounds)
          << scenario.name() << " shards=" << shards;
      EXPECT_EQ(res.initial_rounds, serial.initial_rounds)
          << scenario.name() << " shards=" << shards;
      // The full ledger tree — per-scope totals and phase structure — must
      // agree, not just the grand total.
      EXPECT_EQ(res.round_report, serial.round_report)
          << scenario.name() << " shards=" << shards;
    }
  }
}

TEST(ShardedSolver, BatchRoutingPreservesResults) {
  const auto manifest = smoke_scenarios();
  ExecConfig serial_config;
  serial_config.workers = 2;
  const BatchReport serial = BatchSolver(serial_config, /*keep_colors=*/true).run(manifest);

  ExecConfig sharded_config = serial_config;
  sharded_config.shards = 4;
  sharded_config.min_sharded_edges = 0;
  const BatchReport sharded =
      BatchSolver(sharded_config, /*keep_colors=*/true).run(manifest);

  ASSERT_EQ(serial.results.size(), sharded.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(serial.results[i].colors, sharded.results[i].colors);
    EXPECT_EQ(serial.results[i].rounds, sharded.results[i].rounds);
    EXPECT_EQ(serial.results[i].colors_hash, sharded.results[i].colors_hash);
    EXPECT_EQ(serial.results[i].shards, 1);
    EXPECT_EQ(sharded.results[i].shards, 4);
    EXPECT_TRUE(sharded.results[i].valid);
  }
}

}  // namespace
}  // namespace qplec
