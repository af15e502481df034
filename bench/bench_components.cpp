// EXP-MICRO — substrate micro-benchmarks: graph construction, line-graph
// iteration, palette operations, subset induced degrees, ledger overhead,
// GF(q) polynomial evaluation, and the message-passing engine's round
// throughput.
#include <benchmark/benchmark.h>

#include "src/common/field.hpp"
#include "src/coloring/palette.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/subset.hpp"
#include "src/local/engine.hpp"
#include "src/local/ledger.hpp"

namespace {

using namespace qplec;

void bm_graph_build_regular(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_random_regular(n, 8, 3).num_edges());
  }
}
BENCHMARK(bm_graph_build_regular)->Arg(256)->Arg(2048)->Unit(benchmark::kMillisecond);

void bm_line_graph_iteration(benchmark::State& state) {
  const Graph g = make_random_regular(512, 16, 5);
  for (auto _ : state) {
    std::int64_t total = 0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      g.for_each_edge_neighbor(e, [&](EdgeId) { ++total; });
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(bm_line_graph_iteration)->Unit(benchmark::kMicrosecond);

void bm_subset_induced_degree(benchmark::State& state) {
  const Graph g = make_random_regular(512, 16, 5);
  EdgeSubset s(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); e += 2) s.insert(e);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.max_induced_edge_degree(g));
  }
}
BENCHMARK(bm_subset_induced_degree)->Unit(benchmark::kMicrosecond);

void bm_colorlist_ops(benchmark::State& state) {
  const ColorList list = ColorList::range(0, 4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(list.count_in_range(1000, 3000));
    benchmark::DoNotOptimize(list.restricted_to_range(1000, 3000).size());
  }
}
BENCHMARK(bm_colorlist_ops);

void bm_min_excluding(benchmark::State& state) {
  const ColorList list = ColorList::range(0, 256);
  std::vector<Color> forbidden;
  for (Color c = 0; c < 255; ++c) forbidden.push_back(c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(list.min_excluding(forbidden));
  }
}
BENCHMARK(bm_min_excluding);

void bm_ledger_charge(benchmark::State& state) {
  RoundLedger ledger;
  for (auto _ : state) {
    ledger.charge(1, "bench");
  }
  benchmark::DoNotOptimize(ledger.total());
}
BENCHMARK(bm_ledger_charge);

void bm_poly_table_eval(benchmark::State& state) {
  PolyTable table(1009, 4, 1);
  table.set_value(0, 123456789ull);
  std::uint32_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.eval(0, x));
    x = (x + 1) % 1009;
  }
}
BENCHMARK(bm_poly_table_eval);

void bm_next_prime(benchmark::State& state) {
  std::uint64_t x = 1000003;
  for (auto _ : state) {
    benchmark::DoNotOptimize(next_prime(x));
    x += 2;
  }
}
BENCHMARK(bm_next_prime);

/// Engine throughput: one broadcast wave per round on a torus.
class Waves final : public NodeProgram {
 public:
  explicit Waves(int rounds) : rounds_(rounds) {}
  void init(NodeContext& ctx) override { ctx.broadcast(Message{{ctx.my_id()}}); }
  void round(NodeContext& ctx) override {
    std::uint64_t acc = 0;
    for (int p = 0; p < ctx.degree(); ++p) {
      if (const Message* m = ctx.received(p)) acc ^= m->words[0];
    }
    if (ctx.round() >= rounds_) {
      ctx.finish();
      return;
    }
    ctx.broadcast(Message{{acc}});
  }

 private:
  int rounds_;
};

void bm_engine_rounds(benchmark::State& state) {
  const Graph g = make_torus(32, 32);
  Engine engine(g);
  for (auto _ : state) {
    const auto stats =
        engine.run([&](NodeId) { return std::make_unique<Waves>(20); }, 1000);
    benchmark::DoNotOptimize(stats.messages);
  }
  state.counters["msgs_per_round"] =
      benchmark::Counter(static_cast<double>(g.num_nodes()) * 4);
}
BENCHMARK(bm_engine_rounds)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
