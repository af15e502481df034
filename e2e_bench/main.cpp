// qplec_bench — the end-to-end benchmark runner (see README.md beside it).
//
//   qplec_bench --workload W --seed N --seconds T --trace 0|1
//               [--workdir DIR] [--spans FILE]
//
// --trace 0: sets the workload up three times (setup_s is the median), then
// runs the closed loop for the whole cycles that fit in T seconds and
// reports the end-to-end metrics.
// --trace 1: sets up once, runs the same untraced loop for T/2 seconds,
// replays every one of its requests through the layers' public functions
// with a span per call, runs the large-id-space probe, and reports the
// per-layer metrics.
//
// Prints one `  name = value unit` line per metric, one
// `fingerprint <workload> <input> <colors_hash> <rounds> <raw_rounds>` line
// per distinct input, and last a JSON object with correct / attempted /
// failed / metrics.  Exit 0 on success, 3 when any output is wrong (a
// request that is not Ok, an invalid coloring, a repeat or a traced replay
// that differs), 2 on bad arguments, 1 when set-up fails.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/graph/generators.hpp"
#include "stats.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace {

using namespace qplec;
using namespace qplec::e2e;
using Clock = std::chrono::steady_clock;

constexpr int kSetupRepeats = 3;
// The known-defect probe: a scrambled file above 2^16 nodes, whose n^2 id
// space overflows the 64-bit initial palette.
constexpr int kProbeNodes = 70000;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

struct Args {
  WorkloadKind workload = WorkloadKind::kStressorRegular;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/e2e-work";
  std::string spans;
};

struct RequestRecord {
  RequestSpec spec;
  SolveStatus status = SolveStatus::kOk;
  double latency_ms = 0.0;
  double queue_ms = 0.0;
  double build_ms = 0.0;
  double solve_ms = 0.0;
  bool cache_hit = false;
  int edges = 0;
  Fingerprint fp;
};

struct LoopResult {
  std::vector<RequestRecord> records;
  OutcomeTally tally;
  std::map<int, Fingerprint> first;  ///< fingerprint of each input's first Ok outcome
  std::vector<std::string> errors;   ///< correctness failures
};

/// The closed loop: one client, one request in flight, for as many whole
/// cycles (Workload::cycle()) as fit in `seconds` of wall time, at least one.
/// Whole cycles weigh every input alike, so a run's percentiles do not hang
/// on which input the deadline cut.  Only submit -> outcome is timed;
/// preparing the next input and checking the last output happen between
/// requests.  Every request of these workloads must come back Ok, so any
/// other status is a correctness error.
LoopResult run_loop(Workload& wl, double seconds) {
  LoopResult res;
  const auto begin = Clock::now();
  const int cycle = wl.cycle();
  for (int i = 0; i < wl.max_requests(); ++i) {
    if (i > 0 && i % cycle == 0) {
      // Start another cycle only if one of the mean length so far still fits.
      const double elapsed_s = ms_since(begin) / 1000.0;
      if (elapsed_s + elapsed_s / (i / cycle) > seconds) break;
    }
    RequestRecord rec;
    rec.spec = wl.spec(i);
    SolveRequest request = wl.prepare(rec.spec);
    const auto start = Clock::now();
    const SolveOutcome out = wl.send(rec.spec, std::move(request)).take();
    rec.latency_ms = ms_since(start);
    rec.status = out.status;
    rec.queue_ms = out.queue_ms;
    rec.build_ms = out.build_ms;
    rec.solve_ms = out.solve_ms;
    rec.cache_hit = out.cache_hit;
    rec.edges = wl.input_edges(rec.spec);
    res.tally.record(out.status);
    if (out.ok()) {
      rec.fp = {out.colors_hash, out.result.rounds, out.result.raw_rounds};
      std::string why;
      if (!wl.check(rec.spec, out, &why)) {
        res.errors.push_back("request " + std::to_string(i) + ": invalid coloring: " + why);
      }
      const auto [it, fresh] = res.first.emplace(rec.spec.input, rec.fp);
      if (!fresh && !(it->second == rec.fp)) {
        res.errors.push_back("request " + std::to_string(i) + ": input " +
                             std::to_string(rec.spec.input) + " solved differently than before");
      }
    } else {
      res.errors.push_back("request " + std::to_string(i) + " failed: " +
                           status_name(out.status) + ": " + out.error);
    }
    res.records.push_back(rec);
  }
  return res;
}

/// Resets the kernel's resident-set high-water mark; false where refused.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

/// Resident-set high-water mark in MB: since the reset when it was accepted,
/// otherwise over the process lifetime.
double peak_rss_mb(bool since_reset) {
  if (since_reset) {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void print_fingerprints(const Args& args, const LoopResult& loop) {
  for (const auto& [input, fp] : loop.first) {
    std::printf("fingerprint %s %d %llu %lld %lld\n", workload_name(args.workload), input,
                static_cast<unsigned long long>(fp.colors_hash),
                static_cast<long long>(fp.rounds), static_cast<long long>(fp.raw_rounds));
  }
}

void print_summary(const LoopResult& loop) {
  std::vector<double> latencies;
  for (const RequestRecord& r : loop.records) latencies.push_back(r.latency_ms);
  const TailPercentile tail = tail_percentile(latencies);
  std::printf("  requests %lld attempted, %lld ok, %lld failed (failed_frac = %.6g)\n",
              static_cast<long long>(loop.tally.attempted), static_cast<long long>(loop.tally.ok),
              static_cast<long long>(loop.tally.failed), loop.tally.failed_frac());
  if (tail.p > 0) {
    std::printf("  request_ms tail: p%g = %.6g ms over %zu samples\n", tail.p, tail.value,
                tail.samples);
  } else {
    std::printf("  request_ms tail: no percentile has 10 samples beyond it (%zu samples)\n",
                tail.samples);
  }
}

int run_timed(const Args& args) {
  std::unique_ptr<Workload> wl;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    wl.reset();
    malloc_trim(0);
    const auto start = Clock::now();
    wl = std::make_unique<Workload>(args.workload, args.seed, args.workdir);
    setup_s.push_back(ms_since(start) / 1000.0);
  }
  const bool reset = reset_peak_rss();
  const LoopResult loop = run_loop(*wl, args.seconds);
  const double rss = peak_rss_mb(reset);

  std::vector<double> latencies;
  double busy_ms = 0.0;
  double ok_edges = 0.0;
  for (const RequestRecord& r : loop.records) {
    latencies.push_back(r.latency_ms);
    busy_ms += r.latency_ms;
    if (r.status == SolveStatus::kOk) ok_edges += r.edges;
  }
  // Rounds are averaged over distinct inputs, not requests, so the figure
  // does not move with how many times a fast run cycled its inputs.
  double rounds = 0.0;
  for (const auto& [input, fp] : loop.first) rounds += static_cast<double>(fp.rounds);
  const double ok = static_cast<double>(loop.tally.ok);
  MetricReport report;
  report.set("setup_s", "s", median(setup_s));
  report.set("request_ms_p50", "ms", percentile(latencies, 50));
  report.set("request_ms_p90", "ms", percentile(latencies, 90));
  report.set("ops_per_s", "1/s", ok / (busy_ms / 1000.0));
  report.set("edges_per_s", "edges/s", ok_edges / (busy_ms / 1000.0));
  report.set("local_rounds", "rounds",
             loop.first.empty() ? 0.0 : rounds / static_cast<double>(loop.first.size()));
  report.set("peak_rss_mb", "MB", rss);

  std::printf("workload %s seed %llu: timed run\n", workload_name(args.workload),
              static_cast<unsigned long long>(args.seed));
  print_summary(loop);
  print_fingerprints(args, loop);
  report.print();
  for (const std::string& e : loop.errors) std::printf("  INCORRECT: %s\n", e.c_str());
  std::printf("%s\n", report.json(loop.errors.empty(), loop.tally).c_str());
  return loop.errors.empty() ? 0 : 3;
}

/// Submits a scrambled DIMACS file of kProbeNodes nodes through the file
/// path; 1 when the service rejects it for its id space, 0 otherwise.
int large_id_space_rejects(Workload& wl, const Args& args, std::string* note) {
  std::filesystem::create_directories(args.workdir);
  const std::string path = args.workdir + "/probe-large-id-space.dimacs";
  write_dimacs(make_random_regular(kProbeNodes, 3, args.seed), path);
  SolveRequest request = SolveRequest::from_dimacs(path);
  request.scramble_ids(args.seed).no_cache();
  const SolveOutcome out = wl.service().solve(std::move(request));
  std::filesystem::remove(path);
  const bool rejected = out.status == SolveStatus::kInvalidInstance &&
                        out.error.find("id space too large") != std::string::npos;
  *note = "probe: " + std::to_string(kProbeNodes) + "-node scrambled file -> " +
          status_name(out.status) + (out.error.empty() ? "" : ": " + out.error);
  return rejected ? 1 : 0;
}

int run_traced(const Args& args) {
  Workload wl(args.workload, args.seed, args.workdir);
  // Half the run for the loop, about half for replaying it.
  LoopResult loop = run_loop(wl, args.seconds / 2);

  Tracer tracer;
  std::vector<ReplayCounts> counts(loop.records.size());
  for (std::size_t i = 0; i < loop.records.size(); ++i) {
    const RequestRecord& r = loop.records[i];
    const std::string where = "request " + std::to_string(r.spec.index) + ": ";
    try {
      const Fingerprint fp = wl.replay(r.spec, tracer, counts[i]);
      if (r.status == SolveStatus::kOk && !(fp == r.fp)) {
        loop.errors.push_back(where + "traced replay differs from the service");
      }
    } catch (const std::exception& e) {
      loop.errors.push_back(where + "traced replay failed: " + e.what());
    }
  }
  std::string probe_note;
  const int rejects = large_id_space_rejects(wl, args, &probe_note);

  if (!args.spans.empty()) {
    std::filesystem::create_directories(std::filesystem::path(args.spans).parent_path());
    std::ofstream out(args.spans);
    tracer.write_chrome_trace(out);
  }

  // Per request: summed span time per layer name, and the request root's
  // duration and self time.
  const std::vector<double> self_us = tracer.self_times_us();
  std::map<std::string, std::map<int, double>> layer_ms;
  std::vector<double> traced_ms;
  std::vector<double> unattributed_ms;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const SpanRecord& s = tracer.spans()[i];
    const double ms = (s.end_us - s.start_us) / 1000.0;
    if (s.parent < 0) {
      traced_ms.push_back(ms);
      unattributed_ms.push_back(self_us[i] / 1000.0);
    } else {
      layer_ms[s.name][s.request] += ms;
    }
  }
  const auto layer_p50 = [&](const char* name) {
    std::vector<double> v;
    for (const auto& [request, ms] : layer_ms[name]) v.push_back(ms);
    return median(v);
  };
  const auto mean_of = [&](auto field) {
    double sum = 0.0;
    for (const ReplayCounts& c : counts) sum += static_cast<double>(field(c));
    return counts.empty() ? 0.0 : sum / static_cast<double>(counts.size());
  };

  std::vector<double> queue, build, solve, overhead, hit_ms, latencies;
  int repeats = 0;
  int repeat_hits = 0;
  for (const RequestRecord& r : loop.records) {
    latencies.push_back(r.latency_ms);
    if (r.spec.repeat) {
      ++repeats;
      repeat_hits += r.cache_hit ? 1 : 0;
    }
    if (r.cache_hit) {
      hit_ms.push_back(r.latency_ms);
    } else if (r.status == SolveStatus::kOk) {
      queue.push_back(r.queue_ms);
      build.push_back(r.build_ms);
      solve.push_back(r.solve_ms);
      overhead.push_back(r.latency_ms - r.queue_ms - r.build_ms - r.solve_ms);
    }
  }

  MetricReport report;
  report.set("graph.parse_ms", "ms", layer_p50("graph.parse"));
  report.set("graph.scramble_ms", "ms", layer_p50("graph.scramble"));
  report.set("coloring.instance_ms", "ms", layer_p50("coloring.instance"));
  report.set("coloring.initial_ms", "ms", layer_p50("coloring.initial"));
  report.set("coloring.linial_ms", "ms", layer_p50("coloring.linial"));
  report.set("coloring.linial_rounds", "rounds",
             mean_of([](const ReplayCounts& c) { return c.linial_rounds; }));
  report.set("coloring.validate_ms", "ms", layer_p50("coloring.validate"));
  report.set("core.engine_ms", "ms", layer_p50("core.engine"));
  report.set("core.space_reductions", "count",
             mean_of([](const ReplayCounts& c) { return c.space_reductions; }));
  report.set("core.defective_calls", "count",
             mean_of([](const ReplayCounts& c) { return c.defective_calls; }));
  report.set("core.basecase_calls", "count",
             mean_of([](const ReplayCounts& c) { return c.basecase_calls; }));
  report.set("core.max_depth", "count", mean_of([](const ReplayCounts& c) { return c.max_depth; }));
  report.set("core.recolor_plan_ms", "ms", layer_p50("core.recolor_plan"));
  report.set("core.recolor_repair_ms", "ms", layer_p50("core.recolor_repair"));
  report.set("core.recolor_region_edges", "count",
             mean_of([](const ReplayCounts& c) { return c.region_edges; }));
  report.set("core.recolor_fallbacks", "count",
             static_cast<double>(std::count_if(counts.begin(), counts.end(),
                                               [](const ReplayCounts& c) { return c.fallback; })));
  report.set("service.queue_ms_p50", "ms", median(queue));
  report.set("service.build_ms_p50", "ms", median(build));
  report.set("service.solve_ms_p50", "ms", median(solve));
  report.set("service.overhead_ms_p50", "ms", median(overhead));
  report.set("service.cache_hit_ms_p50", "ms", median(hit_ms));
  report.set("service.cache_hit_ratio", "ratio",
             repeats > 0 ? static_cast<double>(repeat_hits) / repeats : 0.0);
  report.set("service.failed_frac", "ratio", loop.tally.failed_frac());
  report.set("graph.large_id_space_rejects", "count", rejects);
  report.set("trace.request_ms_p50", "ms", median(traced_ms));
  report.set("trace.untraced_request_ms_p50", "ms", median(latencies));
  report.set("trace.self_ms_p50", "ms", median(unattributed_ms));
  report.set("trace.requests", "count", static_cast<double>(traced_ms.size()));

  std::printf("workload %s seed %llu: traced run (%zu spans%s%s)\n", workload_name(args.workload),
              static_cast<unsigned long long>(args.seed), tracer.spans().size(),
              args.spans.empty() ? "" : " written to ", args.spans.c_str());
  print_summary(loop);
  std::printf("  %s\n", probe_note.c_str());
  print_fingerprints(args, loop);
  report.print();
  for (const std::string& e : loop.errors) std::printf("  INCORRECT: %s\n", e.c_str());
  std::printf("%s\n", report.json(loop.errors.empty(), loop.tally).c_str());
  return loop.errors.empty() ? 0 : 3;
}

int usage() {
  std::fprintf(stderr,
               "usage: qplec_bench --workload stressor-regular|relaxed-slack|ingest-dimacs|"
               "churn-stream --seed N --seconds T --trace 0|1 [--workdir DIR] [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      const auto kind = parse_workload(value);
      if (!kind) return usage();
      args.workload = *kind;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      args.trace = value == "1";
    } else if (arg == "--workdir") {
      args.workdir = value;
    } else if (arg == "--spans") {
      args.spans = value;
    } else {
      return usage();
    }
  }
  if (args.seconds <= 0) return usage();
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  try {
    return args.trace ? run_traced(args) : run_timed(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qplec_bench: %s\n", e.what());
    return 1;
  }
}
