// SolveService — the single versioned front door of qplec.
//
// Every way of running the paper's solver (one instance, a scenario sweep, a
// file from disk; serial or sharded; blocking or not) goes through one API:
//
//   SolveService service(ExecConfig{.workers = 4, .shards = 4});
//   SolveTicket t = service.submit(
//       SolveRequest::from_scenario(s).priority(2).deadline_ms(5000));
//   ...
//   const SolveOutcome& out = t.wait();   // never throws
//   if (out.ok()) use(out.result);
//
// Design points:
//   * ONE priority queue, drained by a fixed set of solve workers hosted on
//     the existing work-stealing ThreadPool (the pool schedules the workers,
//     the queue schedules the jobs: highest priority first, FIFO within a
//     priority).  Submission never blocks on solving.
//   * ONE shared shard-worker pool (the PR 3 lease rules): every job that
//     runs sharded leases the same pool via
//     ExecConfig::shared_pool, so concurrent big instances serialize their
//     round fan-outs instead of oversubscribing the machine.
//   * The API boundary never throws: every failure mode — malformed input,
//     cancellation, a missed deadline, a violated paper invariant — lands in
//     SolveOutcome::status with the error detail preserved.
//   * Cancellation and deadlines act at round boundaries only (SolveControl,
//     src/common/control.hpp).  A solve that completes is bit-identical to
//     Solver::solve — same colors, rounds and ledger — regardless of worker
//     count, shard count, or how often someone tried to cancel it.
//
// BatchSolver (src/runtime) is a thin adapter over this class: submit-all +
// ordered wait, preserving its BatchReport shape and determinism guarantee.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/common/control.hpp"
#include "src/common/exec_config.hpp"
#include "src/core/solver.hpp"
#include "src/obs/metrics.hpp"
#include "src/runtime/scenarios.hpp"
#include "src/service/churn.hpp"

namespace qplec {

class ThreadPool;

// The service consumes the one unified qplec::ExecConfig
// (src/common/exec_config.hpp) directly — the same struct every layer from
// SolverEngine up takes.  The service reads `workers` for its queue-draining
// solve workers and hands the rest (shards, validation tier, cache)
// to each Solver it constructs, with `shared_pool` rewritten to the
// service-wide shard-worker lease.

/// Terminal state of a submitted solve.  The service maps every exception of
/// the underlying stack to one of these; SolveService itself never throws
/// across the submit/wait boundary.
enum class SolveStatus {
  kOk,                  ///< solved; SolveOutcome::result is valid
  kInvalidInstance,     ///< malformed input (bad file, infeasible lists, ...)
  kCancelled,           ///< cancel() won the race; stopped at a round boundary
  kDeadlineExceeded,    ///< deadline passed before the solve finished
  kInvariantViolation,  ///< a paper invariant failed mid-solve (a qplec bug)
  kQueueFull,           ///< admission control rejected the submit: the queue
                        ///< was at ExecConfig::max_queue_depth, or its
                        ///< estimated drain time already exceeded the
                        ///< request's deadline.  No work was done; resubmit
                        ///< later (outcome.queue_ms records the reject time).
};

const char* status_name(SolveStatus status);

/// Number of SolveStatus values (sizes per-status telemetry arrays).
inline constexpr int kNumSolveStatuses = 6;

/// Point-in-time service telemetry, read from the process-wide
/// MetricsRegistry by SolveService::metrics_snapshot().  All series are
/// shared by every SolveService in the process (counters are monotone
/// across services; gauges reflect the latest writer).
struct ServiceMetricsSnapshot {
  std::int64_t queue_depth = 0;   ///< submitted, not yet claimed or resolved
  std::int64_t workers_busy = 0;  ///< workers currently running a job
  std::int64_t workers_total = 0;
  std::uint64_t submitted = 0;                       ///< accepted jobs
  std::uint64_t outcomes[kNumSolveStatuses] = {};    ///< terminals per status
  std::uint64_t deadline_sweeper_expired = 0;        ///< expired while queued
  obs::HistogramSnapshot queue_latency_ms;  ///< submission -> claim/resolve
  obs::HistogramSnapshot solve_latency_ms;  ///< the solve proper (attempted)

  // Result cache + admission control (process-wide counters like the rest;
  // entries/bytes are THIS service's cache residency).
  std::uint64_t shed = 0;                ///< submits rejected kQueueFull
  std::uint64_t cache_hits = 0;          ///< submits answered from the cache
  std::uint64_t cache_misses = 0;        ///< submits that installed a lease
  std::uint64_t cache_lease_joins = 0;   ///< submits that joined an in-flight solve
  std::uint64_t cache_evictions = 0;     ///< entries dropped by the LRU bounds
  std::uint64_t cache_invalidations = 0; ///< explicit invalidations
  std::int64_t cache_entries = 0;
  std::int64_t cache_bytes = 0;
  obs::HistogramSnapshot cache_hit_latency_ms;   ///< submission -> cached resolve
  obs::HistogramSnapshot cache_miss_latency_ms;  ///< submission -> leader Ok outcome

  // Incremental updates (SolveService::update).
  std::uint64_t updates = 0;           ///< update() calls, accepted or rejected
  std::uint64_t updates_repaired = 0;  ///< updates served by the local repair
  std::uint64_t updates_fallback = 0;  ///< updates that fell back to a full re-solve
};

/// Everything the service reports about one finished job.  `result` is
/// meaningful only when status == kOk (colors may have been discarded when
/// the request asked for that; `colors_hash` is always taken first).
/// `result.stats` is the full SolverStats — pass timers, cache telemetry and
/// the RoundProfile — carried verbatim from the solve; discard_colors()
/// drops only the coloring, never the stats.
struct SolveOutcome {
  SolveStatus status = SolveStatus::kInvalidInstance;
  SolveResult result;
  std::string error;  ///< human-readable detail for every non-Ok status
  std::string label;  ///< echo of SolveRequest::label

  // Instance metadata (filled once the instance was built).
  int num_nodes = 0;
  int num_edges = 0;
  int max_degree = 0;       ///< Delta
  int max_edge_degree = 0;  ///< Delta-bar
  Color palette_size = 0;
  int shards = 1;  ///< intra-instance shards the solve actually used

  std::uint64_t colors_hash = 0;  ///< FNV-1a coloring fingerprint (Ok only)
  bool valid = false;  ///< independent re-validation of the output (Ok only)

  double queue_ms = 0.0;  ///< submission -> start wait
  double build_ms = 0.0;  ///< instance construction (scenario/file sources)
  double solve_ms = 0.0;  ///< the solve proper

  /// True when this outcome was served from the service's result cache (as a
  /// direct hit or a lease waiter).  Everything but label/queue_ms/cache_hit
  /// is then a verbatim copy of the underlying solve's outcome — same colors
  /// hash, rounds, ledger and stats; build_ms/solve_ms report what that
  /// solve actually cost, queue_ms what THIS submit waited.
  bool cache_hit = false;
  /// Request fingerprint the cache keyed this submit by (0 when the request
  /// or config bypassed the cache).  Feed it to SolveService::invalidate —
  /// or to SolveService::update as the base of an edge-churn repair.
  std::uint64_t fingerprint = 0;

  /// True when this outcome came from SolveService::update.  `repaired` then
  /// says whether the incremental repair served it (region within
  /// ExecConfig::recolor_budget) or the budget fallback re-solved the
  /// mutated instance from scratch; `repair_region_edges` is the number of
  /// edges the local repair actually recolored (0 on fallback);
  /// `base_fingerprint` echoes the fingerprint the update chained from.
  bool churn_update = false;
  bool repaired = false;
  int repair_region_edges = 0;
  std::uint64_t base_fingerprint = 0;

  bool ok() const { return status == SolveStatus::kOk; }
};

/// Declarative description of one solve: an instance source plus scheduling
/// and execution knobs.  Chainable builder; consumed by SolveService::submit.
class SolveRequest {
 public:
  /// Default: an empty instance source (solves to an empty coloring).  Use
  /// the named factories below for anything real.
  SolveRequest() = default;

  /// A prebuilt instance (moved in — instances can be large).
  static SolveRequest from_instance(ListEdgeColoringInstance instance);
  /// A scenario (built on the worker via build_instance, bit-reproducible
  /// from its fields; the scenario's policy kind is used).
  static SolveRequest from_scenario(const Scenario& scenario);
  /// An edge-list / DIMACS file, read and built on the worker.  Unreadable
  /// or malformed files surface as status kInvalidInstance, not a throw.
  static SolveRequest from_dimacs(std::string path);

  /// Parameter policy (instance/file sources only; scenario sources carry
  /// their own policy kind).  Default: Policy::practical().
  SolveRequest& policy(Policy p);
  /// Scheduling priority: higher runs sooner; FIFO within a priority.
  SolveRequest& priority(int p);
  /// Wall-clock budget from submission (queue wait included).  Exceeding it
  /// stops a running solve at the next round boundary with
  /// kDeadlineExceeded; a job still queued when its deadline passes is
  /// resolved kDeadlineExceeded eagerly by the service's deadline sweeper —
  /// a wait() never sits behind unrelated solves for a job that can no
  /// longer meet its budget.
  SolveRequest& deadline_ms(double ms);
  /// Solve the relaxed problem P(dbar, slack, C) instead (Lemma 4.5).
  SolveRequest& relaxed(double slack);
  /// Drop the full coloring from the outcome (hash and validity are still
  /// computed first) — what a sweep that only fingerprints results wants.
  SolveRequest& discard_colors();
  /// Progress callback, invoked between rounds on the solving thread.
  SolveRequest& on_round(std::function<void(const RoundProgress&)> fn);
  /// Scramble node ids before building (file sources; models the LOCAL
  /// model's adversarial id assignment exactly like cli_solve does).
  SolveRequest& scramble_ids(std::uint64_t seed);
  /// Random (deg+1)-lists from [0, palette) instead of the uniform
  /// (2*Delta-1) palette (file sources).
  SolveRequest& random_lists(Color palette, std::uint64_t seed);
  /// Free-form label echoed into the outcome (reports, logs).
  SolveRequest& label(std::string name);
  /// Bypass the service's result cache for this request: always solve fresh,
  /// and do not store the outcome.  (Requests with an on_round progress hook
  /// bypass the cache implicitly — a progress observer wants a live solve.)
  SolveRequest& no_cache();

 private:
  friend class SolveService;

  enum class Source { kInstance, kScenario, kDimacs, kChurn };

  Source source_ = Source::kInstance;
  ListEdgeColoringInstance instance_;
  Scenario scenario_;
  std::string path_;

  // Churn-update source (built only by SolveService::update): the retained
  // snapshot of the base solve, the batch to apply, and the base outcome's
  // fingerprint the derived cache key chains from.
  std::shared_ptr<const ChurnSnapshot> churn_base_;
  ChurnBatch churn_ops_;
  std::uint64_t churn_base_key_ = 0;

  Policy policy_ = Policy::practical();
  int priority_ = 0;
  double deadline_ms_ = -1.0;  ///< < 0: none
  double slack_ = 1.0;         ///< > 1: relaxed solve
  bool keep_colors_ = true;
  bool scramble_ = false;
  std::uint64_t scramble_seed_ = 0;
  Color list_palette_ = 0;  ///< > 0: random lists for file sources
  std::uint64_t list_seed_ = 0;
  std::string label_;
  std::function<void(const RoundProgress&)> on_round_;
  bool use_cache_ = true;
};

/// Handle to one submitted solve.  Cheap to copy (shared state); safe to
/// destroy without waiting (the job still runs and is drained at service
/// shutdown).
class SolveTicket {
 public:
  /// Blocks until the job finished (or resolved as cancelled/failed) and
  /// returns its outcome.  Never throws; idempotent.
  const SolveOutcome& wait() const;

  /// Non-blocking probe: the outcome if finished, nullptr otherwise.
  const SolveOutcome* try_get() const;

  /// Single-consumer variant of wait(): blocks, then MOVES the outcome out
  /// (a later wait()/try_get() sees a moved-from outcome).  For adapters
  /// folding many large outcomes into their own report — a big coloring
  /// changes hands instead of living twice until the service winds down.
  SolveOutcome take() const;

  /// True once the outcome is available.
  bool done() const;

  /// Requests cancellation.  Before a worker claims the job: it resolves
  /// kCancelled immediately, right here — no work is ever done for it and a
  /// subsequent wait() returns at once instead of queueing behind unrelated
  /// solves.  Mid-solve: the engine stops at the next round boundary
  /// (kCancelled).  After completion: a no-op — the outcome stays exactly
  /// what it was (bit-identical to an uncancelled solve).
  void cancel() const;

 private:
  friend class SolveService;
  struct Job;
  explicit SolveTicket(std::shared_ptr<Job> job) : job_(std::move(job)) {}

  std::shared_ptr<Job> job_;
};

class SolveService {
 public:
  explicit SolveService(ExecConfig config = {});

  /// Drains: every accepted job still runs (cancel tickets first for fast
  /// shutdown), then the workers and the shard pool wind down.
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  int workers() const;
  const ExecConfig& config() const { return config_; }

  /// Enqueues the request and returns immediately.  With the result cache
  /// enabled (ExecConfig::result_cache()), an identical earlier Ok outcome
  /// resolves the ticket right here (outcome.cache_hit), and an identical
  /// in-flight solve is joined instead of duplicated (one underlying solve,
  /// N tickets).  With max_queue_depth > 0, a submit the queue cannot absorb
  /// resolves kQueueFull immediately instead of enqueueing.
  SolveTicket submit(SolveRequest request);

  /// Incremental recolor under edge churn.  Takes the outcome of a completed
  /// solve (by ticket, or by its outcome.fingerprint) and a batch of edge
  /// inserts/removes, and enqueues a job that REPAIRS the affected
  /// neighborhood (src/core/recolor) instead of re-solving — falling back to
  /// a full re-solve of the mutated instance when the repair region exceeds
  /// ExecConfig::recolor_budget.  Never throws: a base that kept no churn
  /// snapshot (no_cache/on_round/discard_colors/relaxed requests, an
  /// invalidated or registry-evicted fingerprint, a base still in flight) or
  /// an inconsistent batch resolves the ticket kInvalidInstance immediately.
  ///
  /// The update's cache key is DERIVED: a pure function of the base
  /// fingerprint, the batch, and the same policy/exec knobs a submit mixes
  /// (chain_fingerprint, src/service/churn.hpp) — so a repeated identical
  /// update is a result-cache hit, and the outcome's own fingerprint seeds
  /// the next update in the chain.  The outcome reports churn_update /
  /// repaired / repair_region_edges / base_fingerprint.
  SolveTicket update(const SolveTicket& base, ChurnBatch batch);
  SolveTicket update(std::uint64_t base_fingerprint, ChurnBatch batch);

  /// The fingerprint submit() keys the result cache by for this request:
  /// instance source (scenario fields / full instance structure / file path
  /// + id-scramble + list knobs), policy, slack, keep-colors, and the
  /// config's solve-shaping knobs.  File sources are keyed by path PLUS the
  /// file's current size and mtime, so rewriting the file is a cache miss,
  /// not a stale hit; invalidate() still works for exotic same-size
  /// same-mtime rewrites.
  std::uint64_t fingerprint(const SolveRequest& request) const;

  /// Drops the cached outcome for `fingerprint`, and the churn snapshot
  /// update() would start from (a later update(fingerprint, ...) is
  /// rejected until an identical submit re-solves).  An in-flight identical
  /// solve is marked stale: its waiters still receive its outcome, but
  /// nothing is stored — the next identical submit solves fresh.  Returns
  /// true if there was an entry, an open lease, or a snapshot to drop.
  bool invalidate(std::uint64_t fingerprint);

  /// invalidate() for every cached entry and open lease.
  void invalidate_all();

  /// Convenience: submit + wait.  Must not be called from a progress
  /// callback or any other code already running on a service worker (the
  /// wait would occupy the worker the job may need).
  SolveOutcome solve(SolveRequest request);

  // Lifetime counters (monotone; for reports and tests).
  std::uint64_t submitted() const { return submitted_.load(std::memory_order_relaxed); }
  std::uint64_t completed() const { return completed_.load(std::memory_order_relaxed); }

  /// Current service telemetry: queue depth / worker gauges, per-status
  /// outcome counters, queue- and solve-latency histogram snapshots (p50/
  /// p95/p99 via HistogramSnapshot::quantile).
  ServiceMetricsSnapshot metrics_snapshot() const;

 private:
  struct Impl;

  void worker_loop();
  void timer_loop();
  void run_job(SolveTicket::Job& job) const;
  void run_churn_job(SolveTicket::Job& job) const;
  void enqueue_job(std::shared_ptr<SolveTicket::Job> job);
  void settle_lease(SolveTicket::Job& leader, const SolveOutcome* ok_outcome);
  SolveTicket reject_update(std::uint64_t base_fingerprint, const std::string& why);

  ExecConfig config_;
  std::unique_ptr<Impl> impl_;
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
};

}  // namespace qplec
