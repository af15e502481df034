// The executor-routed base-case pipeline's contract: every primitive that
// runs through an ExecBackend — Linial reduction, the defective split, the
// greedy conflict solve — produces results bit-identical to the 1-lane
// executor for any shard count, and the leased-shared-pool execution model
// (one ThreadPool serving many sharded solves, concurrently) changes
// nothing about any solver output.
#include "src/dist/backend.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/coloring/conflict.hpp"
#include "src/coloring/defective.hpp"
#include "src/coloring/greedy.hpp"
#include "src/coloring/initial.hpp"
#include "src/coloring/linial.hpp"
#include "src/core/solver.hpp"
#include "src/graph/generators.hpp"
#include "src/runtime/batch_solver.hpp"
#include "src/runtime/scenarios.hpp"
#include "src/runtime/thread_pool.hpp"
#include "tests/support/smoke_manifest.hpp"

namespace qplec {
namespace {

using test_support::smoke_scenarios;

const int kShardCounts[] = {1, 2, 3, 4, 7};

TEST(ExecBackend, ForNodesVisitsEveryNodeOnceInAscendingLaneOrder) {
  const Graph g = make_power_law(60, 2.5, 12.0, 7);
  ThreadPool pool(4);
  for (const int shards : kShardCounts) {
    const ExecBackend backend(g, shards, pool);
    EXPECT_EQ(backend.lanes(), shards);
    std::vector<int> visits(static_cast<std::size_t>(g.num_nodes()), 0);
    std::vector<int> lane_of(static_cast<std::size_t>(g.num_nodes()), -1);
    backend.for_nodes(g, [&](int lane, NodeId v) {
      EXPECT_GE(lane, 0);
      EXPECT_LT(lane, backend.lanes());
      ++visits[static_cast<std::size_t>(v)];
      lane_of[static_cast<std::size_t>(v)] = lane;
    });
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(visits[static_cast<std::size_t>(v)], 1) << "node " << v;
      if (v > 0) {
        // Lanes cover contiguous ascending node ranges.
        EXPECT_LE(lane_of[static_cast<std::size_t>(v) - 1],
                  lane_of[static_cast<std::size_t>(v)]);
      }
    }
  }
}

// One lane means inline: however the executor is built, all four passes run
// on the calling thread, in ascending id order, and no pool is involved.
TEST(ExecBackend, OneLaneRunsEveryPassOnTheCallingThread) {
  const Graph g = make_cycle(9);
  ThreadPool pool(2);
  ExecConfig below_threshold;
  below_threshold.shards = 4;  // min_sharded_edges keeps a 9-edge graph on 1 lane
  const ExecBackend default_built;
  const ExecBackend pool_built(g, 1, pool);
  const ExecBackend config_built(g, below_threshold);
  const std::thread::id caller = std::this_thread::get_id();
  for (const ExecBackend* ex : {&default_built, &pool_built, &config_built}) {
    ASSERT_EQ(ex->lanes(), 1);
    std::vector<int> order;
    const auto visit = [&](int lane, int id) {
      EXPECT_EQ(lane, 0);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(id);
    };
    std::vector<int> ascending(static_cast<std::size_t>(g.num_edges()));
    for (int i = 0; i < g.num_edges(); ++i) ascending[static_cast<std::size_t>(i)] = i;

    ex->for_members(EdgeSubset::all(g), visit);
    EXPECT_EQ(order, ascending);
    order.clear();
    ex->for_indices(g.num_edges(), visit);
    EXPECT_EQ(order, ascending);
    order.clear();
    ex->for_nodes(g, visit);
    EXPECT_EQ(static_cast<int>(order.size()), g.num_nodes());
    int ranges = 0;
    ex->for_edge_ranges(g.num_edges(), [&](int lane, EdgeId begin, EdgeId end) {
      EXPECT_EQ(lane, 0);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      EXPECT_EQ(begin, 0);
      EXPECT_EQ(end, g.num_edges());
      ++ranges;
    });
    EXPECT_EQ(ranges, 1);
  }
}

TEST(ExecBackend, LaneScratchSlotsAreIndependent) {
  LaneScratch<std::vector<int>> scratch(3);
  EXPECT_EQ(scratch.num_lanes(), 3);
  scratch.lane(0).push_back(1);
  scratch.lane(2).push_back(7);
  EXPECT_EQ(scratch.lane(0).size(), 1u);
  EXPECT_TRUE(scratch.lane(1).empty());
  EXPECT_EQ(scratch.lane(2).front(), 7);

  // The folds start from the init value every slot was seeded with.
  LaneScratch<int> acc(3, 2);
  acc.lane(0) = 5;
  acc.lane(2) = -1;
  EXPECT_EQ(acc.sum(), 2 + 5 + 2 - 1);
  EXPECT_EQ(acc.max(), 5);
  EXPECT_EQ(acc.min(), -1);
  LaneScratch<char> flags(2, 1);
  EXPECT_TRUE(flags.all());
  flags.lane(1) = 0;
  EXPECT_FALSE(flags.all());
}

TEST(ExecBackend, MaxConflictDegreeMatchesSerialScan) {
  for (const Scenario& scenario : smoke_scenarios()) {
    const ListEdgeColoringInstance instance = build_instance(scenario);
    const Graph& g = instance.graph;
    const LineGraphConflict view(g, EdgeSubset::all(g));
    const int expected = view.max_degree();
    ThreadPool pool(3);
    for (const int shards : kShardCounts) {
      const ExecBackend backend(g, shards, pool);
      EXPECT_EQ(max_conflict_degree(view, &backend), expected)
          << scenario.name() << " shards=" << shards;
    }
    EXPECT_EQ(max_conflict_degree(view, nullptr), expected);
  }
}

// Linial reduction through a sharded executor: identical colors, palette,
// round counts and ledger charges as the 1-lane executor, on every smoke
// scenario and shard count.
TEST(ExecBackend, LinialReduceMatchesSerialAcrossShardCounts) {
  for (const Scenario& scenario : smoke_scenarios()) {
    const ListEdgeColoringInstance instance = build_instance(scenario);
    const Graph& g = instance.graph;
    if (g.num_edges() == 0) continue;
    const LineGraphConflict view(g, EdgeSubset::all(g));
    const InitialColoring init = initial_edge_coloring_from_ids(g);

    const ExecBackend one_lane;
    RoundLedger serial_ledger;
    const LinialResult serial = linial_reduce(view, init.colors, init.palette,
                                              g.max_edge_degree(), serial_ledger, &one_lane);

    ThreadPool pool(3);
    for (const int shards : kShardCounts) {
      const ExecBackend backend(g, shards, pool);
      RoundLedger ledger;
      const LinialResult res = linial_reduce(view, init.colors, init.palette,
                                             g.max_edge_degree(), ledger, &backend);
      EXPECT_EQ(res.colors, serial.colors) << scenario.name() << " shards=" << shards;
      EXPECT_EQ(res.palette, serial.palette) << scenario.name() << " shards=" << shards;
      EXPECT_EQ(res.rounds, serial.rounds) << scenario.name() << " shards=" << shards;
      EXPECT_EQ(ledger.total(), serial_ledger.total())
          << scenario.name() << " shards=" << shards;
    }
  }
}

// The defective split through a sharded executor: identical class
// assignment, class count and rounds on every smoke scenario.
TEST(ExecBackend, DefectiveColoringMatchesSerialAcrossShardCounts) {
  for (const Scenario& scenario : smoke_scenarios()) {
    const ListEdgeColoringInstance instance = build_instance(scenario);
    const Graph& g = instance.graph;
    if (g.num_edges() == 0) continue;
    const EdgeSubset all = EdgeSubset::all(g);
    const InitialColoring init = initial_edge_coloring_from_ids(g);
    const int beta = 2;

    const ExecBackend one_lane;
    RoundLedger serial_ledger;
    const DefectiveColoring serial = defective_edge_coloring(
        g, all, beta, init.colors, init.palette, serial_ledger, &one_lane);

    ThreadPool pool(3);
    for (const int shards : kShardCounts) {
      const ExecBackend backend(g, shards, pool);
      RoundLedger ledger;
      const DefectiveColoring res = defective_edge_coloring(
          g, all, beta, init.colors, init.palette, ledger, &backend);
      EXPECT_EQ(res.cls, serial.cls) << scenario.name() << " shards=" << shards;
      EXPECT_EQ(res.num_classes, serial.num_classes)
          << scenario.name() << " shards=" << shards;
      EXPECT_EQ(res.rounds, serial.rounds) << scenario.name() << " shards=" << shards;
      EXPECT_EQ(ledger.total(), serial_ledger.total())
          << scenario.name() << " shards=" << shards;
    }
  }
}

// The full base-case conflict solve (Linial + greedy class sweep) through a
// sharded executor: identical output colorings.
TEST(ExecBackend, ConflictSolveMatchesSerialAcrossShardCounts) {
  for (const Scenario& scenario : smoke_scenarios()) {
    const ListEdgeColoringInstance instance = build_instance(scenario);
    const Graph& g = instance.graph;
    if (g.num_edges() == 0) continue;
    const LineGraphConflict view(g, EdgeSubset::all(g));
    const InitialColoring init = initial_edge_coloring_from_ids(g);
    const int d = g.max_edge_degree();

    std::vector<Color> serial_out(static_cast<std::size_t>(g.num_edges()), kUncolored);
    const ExecBackend one_lane;
    RoundLedger serial_ledger;
    const ConflictSolveResult serial =
        solve_conflict_list(view, instance.lists, init.colors, init.palette, d, serial_out,
                            serial_ledger, &one_lane);

    ThreadPool pool(3);
    for (const int shards : kShardCounts) {
      const ExecBackend backend(g, shards, pool);
      std::vector<Color> out(static_cast<std::size_t>(g.num_edges()), kUncolored);
      RoundLedger ledger;
      const ConflictSolveResult res =
          solve_conflict_list(view, instance.lists, init.colors, init.palette, d, out,
                              ledger, &backend);
      EXPECT_EQ(out, serial_out) << scenario.name() << " shards=" << shards;
      EXPECT_EQ(res.linial_rounds, serial.linial_rounds)
          << scenario.name() << " shards=" << shards;
      EXPECT_EQ(res.sweep_palette, serial.sweep_palette)
          << scenario.name() << " shards=" << shards;
      EXPECT_EQ(ledger.total(), serial_ledger.total())
          << scenario.name() << " shards=" << shards;
    }
  }
}

// A solve on a leased shared pool is bit-identical to a solve that owns its
// pool, and to the serial path.
TEST(SharedPool, LeasedExecutionBitIdenticalToOwnedAndSerial) {
  ThreadPool pool(3);
  for (const Scenario& scenario : smoke_scenarios()) {
    const ListEdgeColoringInstance instance = build_instance(scenario);
    const SolveResult serial = Solver(make_policy(scenario.policy)).solve(instance);

    ExecConfig owned;
    owned.shards = 4;
    owned.min_sharded_edges = 0;
    const SolveResult with_owned =
        Solver(make_policy(scenario.policy), owned).solve(instance);

    ExecConfig leased = owned;
    leased.shared_pool = &pool;
    const SolveResult with_lease =
        Solver(make_policy(scenario.policy), leased).solve(instance);

    EXPECT_EQ(with_lease.colors, serial.colors) << scenario.name();
    EXPECT_EQ(with_lease.colors, with_owned.colors) << scenario.name();
    EXPECT_EQ(with_lease.rounds, serial.rounds) << scenario.name();
    EXPECT_EQ(with_lease.raw_rounds, serial.raw_rounds) << scenario.name();
    EXPECT_EQ(with_lease.round_report, serial.round_report) << scenario.name();
  }
}

// Two sharded solves holding the same lease concurrently (the BatchSolver
// situation: several batch workers hit large instances at once) must not
// interfere — same results as solo serial solves.  Run under TSan in CI.
TEST(SharedPool, ConcurrentLeasesStayIndependentAndDeterministic) {
  const auto scenarios = smoke_scenarios();
  std::vector<ListEdgeColoringInstance> instances;
  std::vector<SolveResult> serial;
  for (const Scenario& s : scenarios) {
    instances.push_back(build_instance(s));
    serial.push_back(Solver(make_policy(s.policy)).solve(instances.back()));
  }

  ThreadPool pool(3);
  std::vector<SolveResult> results(scenarios.size());
  std::vector<std::thread> threads;
  threads.reserve(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    threads.emplace_back([&, i] {
      ExecConfig exec;
      exec.shards = 3;
      exec.min_sharded_edges = 0;
      exec.shared_pool = &pool;
      results[i] = Solver(make_policy(scenarios[i].policy), exec).solve(instances[i]);
    });
  }
  for (std::thread& t : threads) t.join();

  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(results[i].colors, serial[i].colors) << scenarios[i].name();
    EXPECT_EQ(results[i].rounds, serial[i].rounds) << scenarios[i].name();
    EXPECT_EQ(results[i].round_report, serial[i].round_report) << scenarios[i].name();
  }
}

// The batch runtime's shared pool (created internally when exec.shards > 1)
// and a caller-provided lease both reproduce the serial batch bit for bit.
TEST(SharedPool, BatchSolverLeaseBitIdenticalToSerialBatch) {
  const auto manifest = smoke_scenarios();
  ExecConfig serial_config;
  serial_config.workers = 2;
  const BatchReport serial = BatchSolver(serial_config, /*keep_colors=*/true).run(manifest);

  ExecConfig internal_lease = serial_config;
  internal_lease.shards = 4;
  internal_lease.min_sharded_edges = 0;
  const BatchReport internal =
      BatchSolver(internal_lease, /*keep_colors=*/true).run(manifest);

  ThreadPool pool(4);
  ExecConfig caller_lease = internal_lease;
  caller_lease.shared_pool = &pool;
  const BatchReport caller = BatchSolver(caller_lease, /*keep_colors=*/true).run(manifest);

  ASSERT_EQ(serial.results.size(), internal.results.size());
  ASSERT_EQ(serial.results.size(), caller.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(internal.results[i].colors, serial.results[i].colors);
    EXPECT_EQ(caller.results[i].colors, serial.results[i].colors);
    EXPECT_EQ(internal.results[i].rounds, serial.results[i].rounds);
    EXPECT_EQ(caller.results[i].rounds, serial.results[i].rounds);
    EXPECT_EQ(internal.results[i].shards, 4);
    EXPECT_EQ(caller.results[i].shards, 4);
    EXPECT_TRUE(internal.results[i].valid);
    EXPECT_TRUE(caller.results[i].valid);
  }
}

}  // namespace
}  // namespace qplec
