// EXP-SERVICE: the SolveService front door under load.
//
//   usage: bench_service [--nodes N] [--degree D] [--repeats R]
//                        [--sweep-repeats K] [--shards S]
//                        [--out BENCH_service.json] [--max-cancel-rounds X]
//                        [--max-overhead-pct P] [--overload]
//                        [--min-hit-rate R] [--max-queue-p99-ms X]
//                        [--smoke MANIFEST --smoke-out FILE]
//
// Four experiments, reported into BENCH_service.json:
//   * Submission throughput: the small default manifest, K copies, submitted
//     through one service — jobs/sec end to end, plus the mean/max
//     submission->start wait (queue_ms).  Every repeated copy of a scenario
//     must hash identically (the queue must not perturb results).
//   * Cancellation latency: the shared regular stressor (bench/support.hpp
//     sizes) solved once as the reference, then R more times each cancelled
//     mid-flight (at half the reference round count, observed via the
//     progress callback); the bench measures cancel() -> outcome latency.
//     A cancellation attempt after the reference finished must leave its
//     outcome untouched.  "One round's wall time" is measured, not assumed:
//     the reference run records the LONGEST wall gap between two
//     consecutive round checkpoints (the ledger's effective rounds are
//     LOCAL-model charges — thousands land per simulation pass, so the mean
//     charge-round is meaningless as a latency unit; the longest
//     uncancellable stretch is the real bound cancellation can hit).
//   * Metrics overhead: the same stressor solved with ExecConfig::metrics on
//     and off (best-of-R solve_ms each, after a warmup).  The fingerprints
//     must match bit for bit — the telemetry spine is observers only — and
//     --max-overhead-pct P gates the on/off wall-time delta (exit 1 when
//     metrics-on costs more than P percent; CI uses 3).
//   * Sustained overload (--overload): one worker behind a 16-deep queue.
//     Phase 1 warms the result cache with a handful of small scenarios and
//     then streams 150 repeat submissions at it — every repeat must come
//     back as a cache hit, bit-identical to its warm solve (exit 3
//     otherwise), and --min-hit-rate R gates the observed hit rate.
//     Phase 2 floods 150 unique-seed scenarios (every one a cache miss) at
//     the same service, so admission control MUST shed — zero queue_full
//     outcomes means the backpressure path never fired and the leg exits 1.
//     Queue-latency percentiles are computed locally from the per-ticket
//     queue_ms of the ok outcomes (the process-wide histograms are
//     cumulative across experiments, so the leg cannot read them);
//     --max-queue-p99-ms X gates the p99.
// The submission sweep also snapshots the service's queue/solve latency
// histograms (SolveService::metrics_snapshot) and reports p50/p95/p99 into
// BENCH_service.json.
// --max-cancel-rounds X turns the latency experiment into a gate: exit 1
// unless every cancel returned within X times that longest checkpoint gap
// (the acceptance bar is "within one round"; CI allows modest scheduling
// slack on top).
// Any determinism violation — repeated-copy hash drift, a perturbed
// outcome after a late cancel, a cancelled run that claims Ok — exits 3 and
// must never be retried away.
//
// --smoke MANIFEST runs the CI smoke manifest through explicit
// submit/wait/cancel-after-finish tickets and writes a batch_solve-
// compatible report to --smoke-out, so tools/check_golden.py can pin the
// service path against the SAME golden fingerprints as the batch path.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "bench/support.hpp"
#include "examples/flag_parse.hpp"
#include "src/runtime/reporter.hpp"
#include "src/service/solve_service.hpp"

namespace {

using namespace qplec;

int usage() {
  std::fprintf(stderr,
               "usage: bench_service [--nodes N] [--degree D] [--repeats R] "
               "[--sweep-repeats K] [--shards S] [--out BENCH_service.json] "
               "[--max-cancel-rounds X] [--max-overhead-pct P] [--overload] "
               "[--min-hit-rate R] [--max-queue-p99-ms X] "
               "[--smoke MANIFEST --smoke-out FILE]\n");
  return 2;
}

/// One histogram snapshot as a JSON object fragment (percentiles via
/// HistogramSnapshot::quantile — the registry's cumulative-rank estimate).
std::string histogram_json(const qplec::obs::HistogramSnapshot& h) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"count\": %llu, \"mean\": %.4f, \"p50\": %.4f, "
                "\"p95\": %.4f, \"p99\": %.4f, \"max\": %.4f}",
                static_cast<unsigned long long>(h.count), h.mean(), h.p50(),
                h.p95(), h.p99(), h.max);
  return buf;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Ceil-rank percentile over an unsorted sample (sorts in place).
double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

/// Everything the sustained-overload leg measures (see the file comment).
struct OverloadStats {
  bool ran = false;
  std::size_t warm = 0;     ///< distinct scenarios pre-solved into the cache
  std::size_t repeats = 0;  ///< phase-1 repeat submissions
  std::size_t hits = 0;     ///< ...of which came back cache_hit
  std::size_t flood = 0;    ///< phase-2 unique-seed submissions
  std::size_t shed = 0;     ///< ...rejected queue_full by admission control
  std::size_t solved = 0;   ///< ...admitted and solved Ok
  double hit_rate = 0.0;
  double queue_p50_ms = 0.0;
  double queue_p99_ms = 0.0;
  double queue_max_ms = 0.0;
};

/// Progress-callback instrument.  Always records the longest wall gap
/// between two consecutive checkpoints — the longest uncancellable stretch,
/// i.e. one round's wall time as a cancellation bound.  With trigger > 0 it
/// additionally PARKS the solving thread inside the checkpoint once that
/// many effective rounds are reached, until release(): the measuring thread
/// gets a provably-mid-flight moment to cancel at, with no race against the
/// solve completing first (and no hang if the solve finishes below the
/// trigger — wait_parked() also wakes on completion).  The gap fields are
/// touched only on the solving thread; read them after the ticket resolved.
class ProgressWatch {
 public:
  /// trigger <= 0: gap recording only, never parks.
  explicit ProgressWatch(std::int64_t trigger) : trigger_(trigger) {}

  std::function<void(const RoundProgress&)> callback() {
    return [this](const RoundProgress& p) {
      const auto now = std::chrono::steady_clock::now();
      if (seen_any_) {
        max_gap_ms_ = std::max(
            max_gap_ms_, std::chrono::duration<double, std::milli>(now - last_).count());
      }
      seen_any_ = true;
      last_ = now;
      if (trigger_ <= 0 || p.rounds < trigger_) return;
      std::unique_lock<std::mutex> lock(mu_);
      parked_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    };
  }

  /// True once the solve parked at the trigger; false if the ticket
  /// resolved first (the solve never reached the trigger — no hang).
  bool wait_parked(const SolveTicket& ticket) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (cv_.wait_for(lock, std::chrono::milliseconds(50), [&] { return parked_; })) {
        return true;
      }
      if (ticket.done()) return parked_;
    }
  }

  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  double max_gap_ms() const { return max_gap_ms_; }

 private:
  std::int64_t trigger_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
  // Solving-thread-only state (no lock: one writer, read after completion).
  bool seen_any_ = false;
  std::chrono::steady_clock::time_point last_{};
  double max_gap_ms_ = 0.0;
};

/// --smoke: the golden-gate manifest through explicit service tickets, with
/// a cancel-after-finish attempt on every scenario (must be a no-op), folded
/// into a batch_solve-compatible report for tools/check_golden.py.
int run_smoke(const std::string& manifest_path, const std::string& out_path) {
  std::ifstream in(manifest_path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", manifest_path.c_str());
    return 2;
  }
  const std::vector<Scenario> manifest = parse_manifest(in);

  BatchReport report;
  report.results.resize(manifest.size());
  const auto start = std::chrono::steady_clock::now();
  {
    SolveService service(ExecConfig{.workers = 2});
    report.num_threads = service.workers();
    std::vector<SolveTicket> tickets;
    for (const Scenario& s : manifest) {
      tickets.push_back(service.submit(SolveRequest::from_scenario(s)));
    }
    for (std::size_t i = 0; i < manifest.size(); ++i) {
      // Snapshot the fingerprint BEFORE the cancel attempt (wait() returns a
      // reference into the job, so comparing it to itself would prove
      // nothing).
      const SolveStatus status_before = tickets[i].wait().status;
      const std::uint64_t hash_before = tickets[i].wait().colors_hash;
      tickets[i].cancel();  // after completion: must not perturb anything
      const SolveOutcome& after = tickets[i].wait();
      if (!after.ok() || status_before != SolveStatus::kOk ||
          after.colors_hash != hash_before) {
        std::fprintf(stderr, "DETERMINISM VIOLATION: cancel-after-finish perturbed %s\n",
                     manifest[i].name().c_str());
        return 3;
      }
      ScenarioResult& r = report.results[i];
      r.scenario = manifest[i];
      r.num_nodes = after.num_nodes;
      r.num_edges = after.num_edges;
      r.max_degree = after.max_degree;
      r.max_edge_degree = after.max_edge_degree;
      r.palette_size = after.palette_size;
      r.shards = after.shards;
      r.rounds = after.result.rounds;
      r.raw_rounds = after.result.raw_rounds;
      r.colors_hash = after.colors_hash;
      r.valid = after.ok() && after.valid;
      r.queue_ms = after.queue_ms;
      r.build_ms = after.build_ms;
      r.solve_ms = after.solve_ms;
      r.edges_per_sec =
          r.solve_ms > 0 ? static_cast<double>(r.num_edges) / (r.solve_ms / 1000.0) : 0.0;
      report.total_edges += r.num_edges;
      report.total_solve_ms += r.solve_ms;
    }
  }
  report.wall_ms = ms_since(start);

  BenchReporter reporter;
  reporter.set("bench", "service_smoke").set("algorithm", "bko_podc2020");
  reporter.write_json_file(report, out_path);
  std::printf("[service-smoke] %zu scenarios via submit/wait/cancel tickets -> %s\n",
              report.results.size(), out_path.c_str());
  for (const ScenarioResult& r : report.results) {
    if (!r.valid) {
      std::fprintf(stderr, "INVALID coloring for %s\n", r.scenario.name().c_str());
      return 3;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int nodes = bench::kStressRegularNodes;
  int degree = bench::kStressRegularDegree;
  int repeats = 2;
  int sweep_repeats = 3;
  int shards = 1;
  double max_cancel_rounds = 0.0;  // 0: informational only
  double max_overhead_pct = 0.0;   // 0: informational only
  bool run_overload = false;
  double min_hit_rate = 0.0;       // 0: informational only
  double max_queue_p99_ms = 0.0;   // 0: informational only
  std::string out_path = "BENCH_service.json";
  std::string smoke_manifest;
  std::string smoke_out = "BENCH_smoke_service.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--nodes" && i + 1 < argc) {
      nodes = cli::parse_flag(argv[++i], usage, 2);
    } else if (arg == "--degree" && i + 1 < argc) {
      degree = cli::parse_flag(argv[++i], usage, 1);
    } else if (arg == "--repeats" && i + 1 < argc) {
      repeats = cli::parse_flag(argv[++i], usage, 1);
    } else if (arg == "--sweep-repeats" && i + 1 < argc) {
      sweep_repeats = cli::parse_flag(argv[++i], usage, 1);
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = cli::parse_flag(argv[++i], usage, 1);
    } else if (arg == "--max-cancel-rounds" && i + 1 < argc) {
      max_cancel_rounds = cli::parse_flag(argv[++i], usage, 0.0);
    } else if (arg == "--max-overhead-pct" && i + 1 < argc) {
      max_overhead_pct = cli::parse_flag(argv[++i], usage, 0.0);
    } else if (arg == "--overload") {
      run_overload = true;
    } else if (arg == "--min-hit-rate" && i + 1 < argc) {
      min_hit_rate = cli::parse_flag(argv[++i], usage, 0.0);
    } else if (arg == "--max-queue-p99-ms" && i + 1 < argc) {
      max_queue_p99_ms = cli::parse_flag(argv[++i], usage, 0.0);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--smoke" && i + 1 < argc) {
      smoke_manifest = argv[++i];
    } else if (arg == "--smoke-out" && i + 1 < argc) {
      smoke_out = argv[++i];
    } else {
      return usage();
    }
  }
  if (!smoke_manifest.empty()) return run_smoke(smoke_manifest, smoke_out);

  bench::banner("EXP-SERVICE: submission throughput + cancellation latency",
                "submit/wait adds queue bookkeeping only; cancellation lands "
                "within ~one round's wall time");
  bool deterministic = true;

  // --- Submission throughput: K copies of the small manifest. -------------
  const std::vector<Scenario> base = small_default_manifest();
  double enqueue_ms = 0.0, sweep_wall_ms = 0.0, mean_queue_ms = 0.0, max_queue_ms = 0.0;
  std::size_t jobs = 0;
  ServiceMetricsSnapshot sweep_metrics;
  {
    SolveService service(ExecConfig{});  // hardware workers, serial solves
    std::vector<SolveTicket> tickets;
    const auto sweep_start = std::chrono::steady_clock::now();
    for (int k = 0; k < sweep_repeats; ++k) {
      for (const Scenario& s : base) {
        tickets.push_back(
            service.submit(SolveRequest::from_scenario(s).discard_colors()));
      }
    }
    enqueue_ms = ms_since(sweep_start);
    jobs = tickets.size();
    // Repeated copies of one scenario must agree bit for bit: the queue
    // schedules, it never perturbs.
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const SolveOutcome& out = tickets[i].wait();
      const SolveOutcome& first = tickets[i % base.size()].wait();
      if (!out.ok() || out.colors_hash != first.colors_hash ||
          out.result.rounds != first.result.rounds) {
        std::fprintf(stderr, "DETERMINISM VIOLATION: repeated copy of %s drifted\n",
                     base[i % base.size()].name().c_str());
        deterministic = false;
      }
      mean_queue_ms += out.queue_ms;
      max_queue_ms = std::max(max_queue_ms, out.queue_ms);
    }
    sweep_wall_ms = ms_since(sweep_start);
    mean_queue_ms /= static_cast<double>(jobs);
    sweep_metrics = service.metrics_snapshot();
  }
  const double jobs_per_sec =
      sweep_wall_ms > 0 ? static_cast<double>(jobs) / (sweep_wall_ms / 1000.0) : 0.0;
  bench::Table sweep_table({"jobs", "enqueue ms", "wall ms", "jobs/s", "mean queue ms",
                            "max queue ms"});
  sweep_table.row({bench::fmt(static_cast<std::int64_t>(jobs)), bench::fmt(enqueue_ms),
                   bench::fmt(sweep_wall_ms), bench::fmt(jobs_per_sec, 1),
                   bench::fmt(mean_queue_ms, 3), bench::fmt(max_queue_ms, 3)});
  sweep_table.print();

  // --- Cancellation latency on the regular stressor. ----------------------
  const Scenario stressor{GraphFamily::kRegular, nodes, ListFlavor::kTwoDelta,
                          PolicyKind::kPractical, bench::kStressSeed, degree};
  ExecConfig config;
  config.workers = 1;
  config.shards = shards;
  if (shards > 1) config.min_sharded_edges = 0;

  double reference_wall_ms = 0.0;
  double round_wall_ms = 0.0;  // the longest uncancellable stretch observed
  std::int64_t reference_rounds = 0;
  int edges = 0;
  {
    SolveService service(config);
    // Same callback shape as the cancelled runs, so the checkpoint pacing
    // (ledger walks included) is comparable; trigger 0 = never parks.
    ProgressWatch watch(0);
    const auto t0 = std::chrono::steady_clock::now();
    const SolveTicket ticket = service.submit(SolveRequest::from_scenario(stressor)
                                                  .discard_colors()
                                                  .on_round(watch.callback()));
    const SolveOutcome& out = ticket.wait();
    reference_wall_ms = ms_since(t0);
    if (!out.ok()) {
      std::fprintf(stderr, "reference stressor solve failed: %s\n", out.error.c_str());
      return 3;
    }
    reference_rounds = out.result.rounds;
    edges = out.num_edges;
    round_wall_ms = watch.max_gap_ms();
    const std::uint64_t hash_before = out.colors_hash;
    ticket.cancel();  // after completion: must be a no-op
    if (!ticket.wait().ok() || ticket.wait().colors_hash != hash_before) {
      std::fprintf(stderr, "DETERMINISM VIOLATION: cancel-after-finish perturbed outcome\n");
      deterministic = false;
    }
  }

  double max_latency_ms = 0.0;
  for (int r = 0; r < repeats; ++r) {
    SolveService service(config);
    ProgressWatch watch(std::max<std::int64_t>(1, reference_rounds / 2));
    const SolveTicket ticket = service.submit(SolveRequest::from_scenario(stressor)
                                                  .discard_colors()
                                                  .on_round(watch.callback()));
    if (!watch.wait_parked(ticket)) {
      // The solve finished below the trigger (tiny --nodes): nothing to
      // cancel mid-flight; report rather than hang or cry wolf.
      std::fprintf(stderr, "cancel repeat %d: solve finished before the trigger; skipped\n",
                   r);
      continue;
    }
    // The solve is parked inside a checkpoint — provably mid-flight, no
    // race against completion.  Latency measured here is the cancellation
    // delivery + unwind path; the in-flight stretch a real async cancel
    // additionally waits out is bounded by round_wall_ms by construction.
    const auto cancel_at = std::chrono::steady_clock::now();
    ticket.cancel();
    watch.release();
    const SolveOutcome& out = ticket.wait();
    const double latency = ms_since(cancel_at);
    max_latency_ms = std::max(max_latency_ms, latency);
    if (out.status != SolveStatus::kCancelled) {
      std::fprintf(stderr, "DETERMINISM VIOLATION: mid-flight cancel produced %s\n",
                   status_name(out.status));
      deterministic = false;
    }
    std::printf("cancel repeat %d: latency %.3f ms (%.2f x the longest round stretch)\n", r,
                latency, round_wall_ms > 0 ? latency / round_wall_ms : 0.0);
  }

  // --- Metrics overhead: the stressor with ExecConfig::metrics on vs off. --
  // Observers only: fingerprints must match bit for bit (exit 3 otherwise);
  // the wall-time delta is the cost of armed counters/histograms.
  const int overhead_repeats = std::max(2, repeats);
  std::uint64_t on_hash = 0, off_hash = 0;
  std::int64_t on_rounds = 0, off_rounds = 0;
  double on_best_ms = 0.0, off_best_ms = 0.0;
  bool overhead_ok = true;
  const auto overhead_leg = [&](bool metrics_on, std::uint64_t* hash,
                                std::int64_t* rounds_out) {
    ExecConfig oc = config;
    oc.metrics = metrics_on;
    double best = 0.0;
    for (int r = 0; r <= overhead_repeats; ++r) {  // r == 0 is the warmup
      SolveService service(oc);
      const SolveOutcome out =
          service.solve(SolveRequest::from_scenario(stressor).discard_colors());
      if (!out.ok()) {
        std::fprintf(stderr, "overhead leg solve failed: %s\n", out.error.c_str());
        overhead_ok = false;
        return 0.0;
      }
      *hash = out.colors_hash;
      *rounds_out = out.result.rounds;
      if (r > 0 && (best == 0.0 || out.solve_ms < best)) best = out.solve_ms;
    }
    return best;
  };
  on_best_ms = overhead_leg(true, &on_hash, &on_rounds);
  off_best_ms = overhead_leg(false, &off_hash, &off_rounds);
  if (overhead_ok && (on_hash != off_hash || on_rounds != off_rounds)) {
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: metrics-on fingerprint (%llx, %lld) != "
                 "metrics-off (%llx, %lld)\n",
                 static_cast<unsigned long long>(on_hash),
                 static_cast<long long>(on_rounds),
                 static_cast<unsigned long long>(off_hash),
                 static_cast<long long>(off_rounds));
    deterministic = false;
  }
  const double overhead_pct =
      off_best_ms > 0 ? (on_best_ms - off_best_ms) / off_best_ms * 100.0 : 0.0;
  bench::Table overhead_table(
      {"metrics on ms", "metrics off ms", "overhead %", "fingerprints"});
  overhead_table.row({bench::fmt(on_best_ms, 3), bench::fmt(off_best_ms, 3),
                      bench::fmt(overhead_pct, 2),
                      on_hash == off_hash && on_rounds == off_rounds ? "match"
                                                                    : "DIVERGED"});
  overhead_table.print();

  // --- Sustained overload: cache serving + admission shedding. ------------
  OverloadStats overload;
  if (run_overload) {
    overload.ran = true;
    // One worker behind a shallow queue: the repeat stream must be absorbed
    // by the result cache, the unique-seed flood must trip the queue_full
    // backstop.  Both phases run against the SAME service instance.
    ExecConfig oc;
    oc.workers = 1;
    oc.max_queue_depth = 16;
    SolveService service(oc);

    std::vector<Scenario> warm_set = small_default_manifest();
    if (warm_set.size() > 6) warm_set.resize(6);
    std::vector<std::uint64_t> warm_hashes;
    for (const Scenario& s : warm_set) {
      const SolveOutcome out =
          service.solve(SolveRequest::from_scenario(s).discard_colors());
      if (!out.ok()) {
        std::fprintf(stderr, "overload warm solve failed for %s: %s\n",
                     s.name().c_str(), out.error.c_str());
        return 1;
      }
      warm_hashes.push_back(out.colors_hash);
    }
    overload.warm = warm_set.size();

    // Phase 1: 150 repeat submissions round-robin over the warm set.  Every
    // one should be served verbatim from the cache.
    std::vector<double> ok_queue_ms;
    constexpr int kRepeats = 150;
    std::vector<SolveTicket> tickets;
    tickets.reserve(kRepeats);
    for (int i = 0; i < kRepeats; ++i) {
      tickets.push_back(service.submit(
          SolveRequest::from_scenario(warm_set[i % warm_set.size()]).discard_colors()));
    }
    for (int i = 0; i < kRepeats; ++i) {
      const SolveOutcome& out = tickets[i].wait();
      if (!out.ok()) continue;
      ok_queue_ms.push_back(out.queue_ms);
      if (out.cache_hit) ++overload.hits;
      if (out.colors_hash != warm_hashes[i % warm_set.size()]) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: cached repeat of %s drifted from "
                     "its warm solve\n",
                     warm_set[i % warm_set.size()].name().c_str());
        deterministic = false;
      }
    }
    overload.repeats = kRepeats;
    overload.hit_rate =
        static_cast<double>(overload.hits) / static_cast<double>(kRepeats);

    // Phase 2: 150 unique-seed floods — every fingerprint fresh, so every
    // submit heads for the one-worker queue and admission control must shed
    // once the backlog hits max_queue_depth.
    tickets.clear();
    constexpr int kFlood = 150;
    tickets.reserve(kFlood);
    const Scenario flood_base = warm_set.front();
    for (int i = 0; i < kFlood; ++i) {
      Scenario s = flood_base;
      s.seed = 1000000 + static_cast<std::uint64_t>(i);
      tickets.push_back(
          service.submit(SolveRequest::from_scenario(s).discard_colors()));
    }
    for (SolveTicket& t : tickets) {
      const SolveOutcome& out = t.wait();
      if (out.status == SolveStatus::kQueueFull) {
        ++overload.shed;
      } else if (out.ok()) {
        ++overload.solved;
        ok_queue_ms.push_back(out.queue_ms);
      }
    }
    overload.flood = kFlood;
    overload.queue_p50_ms = percentile(ok_queue_ms, 0.50);
    overload.queue_p99_ms = percentile(ok_queue_ms, 0.99);
    overload.queue_max_ms = ok_queue_ms.empty() ? 0.0 : ok_queue_ms.back();

    bench::Table overload_table({"warm", "repeats", "hits", "hit rate", "flood",
                                 "shed", "solved", "queue p50 ms", "queue p99 ms"});
    overload_table.row(
        {bench::fmt(static_cast<std::int64_t>(overload.warm)),
         bench::fmt(static_cast<std::int64_t>(overload.repeats)),
         bench::fmt(static_cast<std::int64_t>(overload.hits)),
         bench::fmt(overload.hit_rate, 3),
         bench::fmt(static_cast<std::int64_t>(overload.flood)),
         bench::fmt(static_cast<std::int64_t>(overload.shed)),
         bench::fmt(static_cast<std::int64_t>(overload.solved)),
         bench::fmt(overload.queue_p50_ms, 3), bench::fmt(overload.queue_p99_ms, 3)});
    overload_table.print();
  }

  bench::Table cancel_table({"graph", "edges", "ref wall ms", "ref rounds",
                             "round wall ms", "max cancel ms", "in rounds"});
  cancel_table.row({"regular-" + std::to_string(nodes) + "x" + std::to_string(degree),
                    bench::fmt(edges), bench::fmt(reference_wall_ms),
                    bench::fmt(reference_rounds), bench::fmt(round_wall_ms, 3),
                    bench::fmt(max_latency_ms, 3),
                    bench::fmt(round_wall_ms > 0 ? max_latency_ms / round_wall_ms : 0.0)});
  cancel_table.print();

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"bench\": \"service\",\n";
  out << "  \"submission\": {\"jobs\": " << jobs << ", \"enqueue_ms\": " << enqueue_ms
      << ", \"wall_ms\": " << sweep_wall_ms << ", \"jobs_per_sec\": " << jobs_per_sec
      << ",\n    \"mean_queue_ms\": " << mean_queue_ms
      << ", \"max_queue_ms\": " << max_queue_ms << "},\n";
  out << "  \"cancellation\": {\"graph\": \"regular-" << nodes << "x" << degree
      << "\", \"edges\": " << edges << ", \"shards\": " << shards
      << ",\n    \"reference_wall_ms\": " << reference_wall_ms
      << ", \"reference_rounds\": " << reference_rounds
      << ", \"round_wall_ms\": " << round_wall_ms << ",\n    \"repeats\": " << repeats
      << ", \"max_cancel_latency_ms\": " << max_latency_ms << ", \"latency_rounds\": "
      << (round_wall_ms > 0 ? max_latency_ms / round_wall_ms : 0.0) << "},\n";
  out << "  \"latency\": {\"queue_ms\": " << histogram_json(sweep_metrics.queue_latency_ms)
      << ",\n    \"solve_ms\": " << histogram_json(sweep_metrics.solve_latency_ms) << "},\n";
  if (overload.ran) {
    out << "  \"overload\": {\"ran\": true, \"warm\": " << overload.warm
        << ", \"repeats\": " << overload.repeats << ", \"cache_hits\": " << overload.hits
        << ", \"hit_rate\": " << overload.hit_rate << ",\n    \"flood\": " << overload.flood
        << ", \"shed\": " << overload.shed << ", \"solved\": " << overload.solved
        << ",\n    \"queue_p50_ms\": " << overload.queue_p50_ms
        << ", \"queue_p99_ms\": " << overload.queue_p99_ms
        << ", \"queue_max_ms\": " << overload.queue_max_ms << "},\n";
  } else {
    out << "  \"overload\": {\"ran\": false},\n";
  }
  out << "  \"metrics_overhead\": {\"repeats\": " << overhead_repeats
      << ", \"on_best_ms\": " << on_best_ms << ", \"off_best_ms\": " << off_best_ms
      << ",\n    \"overhead_pct\": " << overhead_pct << ", \"fingerprints_match\": "
      << (on_hash == off_hash && on_rounds == off_rounds ? "true" : "false") << "},\n";
  out << "  \"deterministic\": " << (deterministic ? "true" : "false") << "\n}\n";
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  if (!deterministic) return 3;
  if (!overhead_ok) return 1;
  if (max_overhead_pct > 0 && overhead_pct > max_overhead_pct) {
    std::fprintf(stderr, "METRICS OVERHEAD GATE MISSED: %.2f%% > %.2f%%\n",
                 overhead_pct, max_overhead_pct);
    return 1;
  }
  if (max_cancel_rounds > 0 && round_wall_ms > 0 &&
      max_latency_ms > max_cancel_rounds * round_wall_ms) {
    std::fprintf(stderr,
                 "CANCELLATION GATE MISSED: %.3f ms latency > %.1f rounds x %.3f ms\n",
                 max_latency_ms, max_cancel_rounds, round_wall_ms);
    return 1;
  }
  if (overload.ran) {
    if (overload.shed == 0) {
      std::fprintf(stderr,
                   "OVERLOAD GATE MISSED: the unique-seed flood shed nothing "
                   "(admission control never fired)\n");
      return 1;
    }
    if (min_hit_rate > 0 && overload.hit_rate < min_hit_rate) {
      std::fprintf(stderr, "OVERLOAD GATE MISSED: hit rate %.3f < %.3f\n",
                   overload.hit_rate, min_hit_rate);
      return 1;
    }
    if (max_queue_p99_ms > 0 && overload.queue_p99_ms > max_queue_p99_ms) {
      std::fprintf(stderr, "OVERLOAD GATE MISSED: queue p99 %.3f ms > %.3f ms\n",
                   overload.queue_p99_ms, max_queue_p99_ms);
      return 1;
    }
  }
  return 0;
}
