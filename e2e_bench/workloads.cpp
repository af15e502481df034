#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "src/coloring/conflict.hpp"
#include "src/coloring/initial.hpp"
#include "src/coloring/linial.hpp"
#include "src/coloring/validate.hpp"
#include "src/common/rng.hpp"
#include "src/core/engine.hpp"
#include "src/core/recolor.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/io.hpp"
#include "src/graph/subset.hpp"
#include "src/local/ledger.hpp"
#include "src/runtime/batch_solver.hpp"
#include "tracer.hpp"

namespace qplec::e2e {

namespace {

// Sizes.  Each solve workload cycles through a few distinct inputs of one
// size.  Solve time depends on the random graph and lists, so a run that
// mixes several inputs reads much the same on every seed; fewer inputs would
// put the seed-to-seed difference of single graphs into every figure.
constexpr int kStressInputs = 4;
constexpr int kSlackInputs = 3;
constexpr int kIngestInputs = 4;
constexpr int kStressNodes = 25600;  // the ROADMAP headline: m = 204,800
constexpr int kStressDegree = 16;
constexpr int kSlackNodes = 2000;
constexpr int kSlackDegree = 16;
constexpr Color kSlackPalette = 2048;  // lists of floor(51 * 30) + 1 = 1,531 colors
constexpr int kIngestNodes = 60000;    // below 2^16: larger files fail today
constexpr int kIngestDegree = 3;
constexpr int kChurnNodes = 12800;  // m = 102,400, bench_churn's size
constexpr int kChurnDegree = 16;
constexpr int kChurnInserts = 2;
constexpr int kChurnRemoves = 2;
// Fresh churn batches generated in set-up; a run stops early once they are
// used up.  Every fourth request repeats one of the last kChurnRepeatWindow
// fresh batches, recent enough to still sit in the result cache.
constexpr int kChurnBatches = 768;
constexpr int kChurnRepeatWindow = 8;

std::uint64_t input_seed(std::uint64_t seed, int input) {
  return seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(input) + 1;
}

/// The adversarial id scramble of prebuilt instances: n^2 ids, clamped at
/// 2^31 exactly like build_instance.
Graph scrambled(const Graph& g, std::uint64_t seed) {
  const auto n = static_cast<std::uint64_t>(std::max(1, g.num_nodes()));
  return g.with_scrambled_ids(std::min<std::uint64_t>(n * n, std::uint64_t{1} << 31), seed);
}

/// What the service's file path builds from `path` (run_job's kDimacs case).
Graph read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_edge_list(in);
}

/// The solve pipeline of Solver::solve / solve_relaxed (validation, phase-0
/// initial coloring and Linial reduction, the Section 4 recursion, final
/// validation), one span per layer call.  The ledger scopes and call order
/// match solve_pipeline exactly, so fp's rounds are the service's rounds.
EdgeColoring solve_traced(const ListEdgeColoringInstance& inst, double slack,
                          const ExecConfig& config, Tracer& tracer, ReplayCounts& counts,
                          Fingerprint& fp) {
  const Graph& g = inst.graph;
  RoundLedger ledger;
  {
    const auto span = tracer.span("coloring.validate");
    if (slack > 1.0) {
      // Solver::solve_relaxed's precondition |L_e| > S * deg(e).
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        if (static_cast<double>(inst.lists[static_cast<std::size_t>(e)].size()) <=
            slack * g.edge_degree(e)) {
          throw std::invalid_argument("relaxed instance violates |L| > S * deg(e)");
        }
      }
    } else {
      validate_instance(inst);
    }
  }
  InitialColoring init;
  {
    const auto span = tracer.span("coloring.initial");
    init = initial_edge_coloring_from_ids(g);
  }
  LinialResult lin;
  {
    const auto span = tracer.span("coloring.linial");
    const LineGraphConflict view(g, EdgeSubset::all(g));
    auto scope = ledger.sequential("initial-coloring");
    lin = linial_reduce(view, std::move(init.colors), init.palette, g.max_edge_degree(), ledger,
                        nullptr);
  }
  counts.linial_rounds = lin.rounds;
  const Policy policy = Policy::practical();  // the engine keeps a reference
  SolverStats stats;
  EdgeColoring colors;
  {
    const auto span = tracer.span("core.engine");
    SolverEngine engine(g, inst.lists, inst.palette_size, std::move(lin.colors), lin.palette,
                        policy, ledger, stats, 0, nullptr, config, nullptr);
    auto scope = ledger.sequential("list-edge-coloring");
    colors = slack > 1.0 ? engine.solve_relaxed_instance(slack) : engine.solve();
  }
  counts.space_reductions = stats.space_reductions;
  counts.defective_calls = stats.defective_calls;
  counts.basecase_calls = stats.basecase_calls;
  counts.max_depth = stats.max_depth;
  {
    const auto span = tracer.span("coloring.validate");
    expect_valid_solution(inst, colors);
  }
  fp.rounds = ledger.total();
  fp.raw_rounds = ledger.raw_total();
  return colors;
}

}  // namespace

std::optional<WorkloadKind> parse_workload(std::string_view name) {
  for (const WorkloadKind kind : {WorkloadKind::kStressorRegular, WorkloadKind::kRelaxedSlack,
                                  WorkloadKind::kIngestDimacs, WorkloadKind::kChurnStream}) {
    if (name == workload_name(kind)) return kind;
  }
  return std::nullopt;
}

const char* workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kStressorRegular:
      return "stressor-regular";
    case WorkloadKind::kRelaxedSlack:
      return "relaxed-slack";
    case WorkloadKind::kIngestDimacs:
      return "ingest-dimacs";
    case WorkloadKind::kChurnStream:
      return "churn-stream";
  }
  return "unknown";
}

ExecConfig benchmark_config() {
  ExecConfig config;
  config.workers = 1;
  config.shards = 1;
  return config;
}

std::uint64_t file_id_space(int num_nodes) {
  const auto n = static_cast<std::uint64_t>(std::max(1, num_nodes));
  return n * n;
}

void write_dimacs(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  out << "p edge " << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeEndpoints& ep = g.endpoints(e);
    out << "e " << ep.u + 1 << ' ' << ep.v + 1 << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

Workload::Workload(WorkloadKind kind, std::uint64_t seed, std::string workdir)
    : kind_(kind), seed_(seed), workdir_(std::move(workdir)), config_(benchmark_config()) {
  service_ = std::make_unique<SolveService>(config_);
  switch (kind_) {
    case WorkloadKind::kStressorRegular:
      for (int i = 0; i < kStressInputs; ++i) {
        const std::uint64_t s = input_seed(seed_, i);
        instances_.push_back(make_two_delta_instance(
            scrambled(make_random_regular(kStressNodes, kStressDegree, s), s + 1)));
      }
      break;
    case WorkloadKind::kRelaxedSlack:
      slack_ = Policy::space_cost(2) + 1;
      for (int i = 0; i < kSlackInputs; ++i) {
        const std::uint64_t s = input_seed(seed_, i);
        instances_.push_back(make_slack_instance(
            scrambled(make_random_regular(kSlackNodes, kSlackDegree, s), s + 1), slack_,
            kSlackPalette, s + 2));
      }
      break;
    case WorkloadKind::kIngestDimacs:
      std::filesystem::create_directories(workdir_);
      for (int i = 0; i < kIngestInputs; ++i) {
        const std::string path = workdir_ + "/ingest-" + std::to_string(i) + ".dimacs";
        write_dimacs(make_random_regular(kIngestNodes, kIngestDegree, input_seed(seed_, i)), path);
        files_.push_back(path);
        const Graph g = read_file(path);
        instances_.push_back(
            make_two_delta_instance(g.with_scrambled_ids(file_id_space(g.num_nodes()), seed_)));
      }
      break;
    case WorkloadKind::kChurnStream: {
      const std::uint64_t s = input_seed(seed_, 0);
      base_.instance = make_two_delta_instance(
          scrambled(make_random_regular(kChurnNodes, kChurnDegree, s), s + 1));
      base_.policy = Policy::practical();
      const SolveOutcome base = service_->solve(SolveRequest::from_instance(base_.instance));
      if (!base.ok()) throw std::runtime_error("churn base solve failed: " + base.error);
      base_.colors = base.result.colors;
      base_fingerprint_ = base.fingerprint;
      for (int i = 0; i < kChurnBatches; ++i) {
        batches_.push_back(make_random_churn(base_.instance.graph, kChurnInserts, kChurnRemoves,
                                             input_seed(seed_, i + 1)));
      }
      break;
    }
  }
}

Workload::~Workload() {
  std::error_code ignored;
  for (const std::string& path : files_) std::filesystem::remove(path, ignored);
}

int Workload::max_requests() const {
  static_assert(kChurnBatches % 3 == 0);
  return kind_ == WorkloadKind::kChurnStream ? kChurnBatches / 3 * 4 : 1 << 30;
}

int Workload::cycle() const {
  return kind_ == WorkloadKind::kChurnStream ? 4 : static_cast<int>(instances_.size());
}

RequestSpec Workload::spec(int index) const {
  RequestSpec spec;
  spec.index = index;
  if (kind_ != WorkloadKind::kChurnStream) {
    spec.input = index % static_cast<int>(instances_.size());
    return spec;
  }
  const int fresh_before = index - index / 4;  // fresh batches sent before `index`
  if (index % 4 == 3) {
    spec.repeat = true;
    Rng rng(input_seed(seed_ ^ 0x5EEDull, index));
    spec.input = fresh_before - 1 -
                 static_cast<int>(rng.next_below(
                     static_cast<std::uint64_t>(std::min(kChurnRepeatWindow, fresh_before))));
  } else {
    spec.input = fresh_before;
  }
  return spec;
}

SolveRequest Workload::prepare(const RequestSpec& spec) const {
  const auto input = static_cast<std::size_t>(spec.input);
  SolveRequest request;
  switch (kind_) {
    case WorkloadKind::kStressorRegular:
      request = SolveRequest::from_instance(instances_[input]);
      break;
    case WorkloadKind::kRelaxedSlack:
      request = SolveRequest::from_instance(instances_[input]);
      request.relaxed(slack_);
      break;
    case WorkloadKind::kIngestDimacs:
      request = SolveRequest::from_dimacs(files_[input]);
      request.scramble_ids(seed_);
      break;
    case WorkloadKind::kChurnStream:
      return request;  // updates are sent from the batch, not a request
  }
  request.no_cache();
  return request;
}

SolveTicket Workload::send(const RequestSpec& spec, SolveRequest prepared) {
  if (kind_ == WorkloadKind::kChurnStream) {
    return service_->update(base_fingerprint_, batches_[static_cast<std::size_t>(spec.input)]);
  }
  return service_->submit(std::move(prepared));
}

int Workload::input_edges(const RequestSpec& spec) const {
  if (kind_ == WorkloadKind::kChurnStream) {
    return base_.instance.graph.num_edges() + kChurnInserts - kChurnRemoves;
  }
  return instances_[static_cast<std::size_t>(spec.input)].graph.num_edges();
}

ListEdgeColoringInstance Workload::churn_mutated(const RequestSpec& spec) const {
  return plan_recolor(base_.instance, base_.colors,
                      batches_[static_cast<std::size_t>(spec.input)].ops)
      .mutated;
}

bool Workload::check(const RequestSpec& spec, const SolveOutcome& outcome,
                     std::string* why) const {
  if (!outcome.valid) {
    *why = "the service's own re-validation failed";
    return false;
  }
  if (kind_ == WorkloadKind::kChurnStream) {
    // A repeat must equal its original (compared by the caller); only fresh
    // batches need the mutated instance.
    return spec.repeat || is_valid_list_coloring(churn_mutated(spec), outcome.result.colors, why);
  }
  return is_valid_list_coloring(instances_[static_cast<std::size_t>(spec.input)],
                                outcome.result.colors, why);
}

Fingerprint Workload::replay(const RequestSpec& spec, Tracer& tracer,
                             ReplayCounts& counts) const {
  const auto input = static_cast<std::size_t>(spec.input);
  tracer.set_request(spec.index);
  const auto root = tracer.span("request");
  Fingerprint fp;
  const ListEdgeColoringInstance* checked = nullptr;
  EdgeColoring colors;
  ListEdgeColoringInstance built;
  RecolorPlan plan;
  switch (kind_) {
    case WorkloadKind::kStressorRegular:
    case WorkloadKind::kRelaxedSlack:
      checked = &instances_[input];
      colors = solve_traced(*checked, slack_, config_, tracer, counts, fp);
      break;
    case WorkloadKind::kIngestDimacs: {
      Graph g;
      {
        const auto span = tracer.span("graph.parse");
        g = read_file(files_[input]);
      }
      {
        const auto span = tracer.span("graph.scramble");
        g = g.with_scrambled_ids(file_id_space(g.num_nodes()), seed_);
      }
      {
        const auto span = tracer.span("coloring.instance");
        built = make_two_delta_instance(std::move(g));
      }
      checked = &built;
      colors = solve_traced(built, 1.0, config_, tracer, counts, fp);
      break;
    }
    case WorkloadKind::kChurnStream: {
      {
        const auto span = tracer.span("core.recolor_plan");
        plan = plan_recolor(base_.instance, base_.colors, batches_[input].ops);
      }
      RecolorOutcome rec;
      {
        const auto span = tracer.span("core.recolor_repair");
        rec = repair_recolor(plan, base_.policy, config_);
      }
      counts.region_edges = rec.region_edges;
      counts.fallback = rec.fallback;
      fp.rounds = rec.result.rounds;
      fp.raw_rounds = rec.result.raw_rounds;
      colors = std::move(rec.result.colors);
      checked = &plan.mutated;
      break;
    }
  }
  {
    // The service's own epilogue: fingerprint and independent re-validation.
    const auto span = tracer.span("service.revalidate");
    fp.colors_hash = hash_coloring(colors);
    if (!is_valid_list_coloring(*checked, colors)) {
      throw std::runtime_error("traced replay produced an invalid coloring");
    }
  }
  return fp;
}

}  // namespace qplec::e2e
