#include "src/service/solve_service.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <list>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/coloring/validate.hpp"
#include "src/common/assert.hpp"
#include "src/graph/io.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/batch_solver.hpp"  // hash_coloring
#include "src/runtime/thread_pool.hpp"
#include "src/service/result_cache.hpp"

namespace qplec {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// The service's process-wide instrument set, resolved once.  Shared by
/// every SolveService (the registry owns the instruments; references stay
/// valid for the process lifetime).
struct ServiceTelemetry {
  obs::Counter* outcomes[kNumSolveStatuses];
  obs::Counter& submitted;
  obs::Counter& sweeper_expired;
  obs::Counter& shed;
  obs::Counter& update_total;
  obs::Counter& update_repaired;
  obs::Counter& update_fallback;
  obs::Gauge& queue_depth;
  obs::Gauge& workers_busy;
  obs::Gauge& workers_total;
  obs::Histogram& queue_latency_ms;
  obs::Histogram& solve_latency_ms;
  obs::Histogram& cache_hit_latency_ms;
  obs::Histogram& cache_miss_latency_ms;

  static ServiceTelemetry& get() {
    static ServiceTelemetry* t = new ServiceTelemetry();  // never destroyed
    return *t;
  }

 private:
  ServiceTelemetry()
      : submitted(registry().counter("qplec_service_submitted_total")),
        sweeper_expired(registry().counter("qplec_service_sweeper_expired_total")),
        shed(registry().counter("qplec_service_shed_total")),
        update_total(registry().counter("qplec_service_update_total")),
        update_repaired(registry().counter("qplec_service_update_repaired_total")),
        update_fallback(registry().counter("qplec_service_update_fallback_total")),
        queue_depth(registry().gauge("qplec_service_queue_depth")),
        workers_busy(registry().gauge("qplec_service_workers_busy")),
        workers_total(registry().gauge("qplec_service_workers")),
        queue_latency_ms(registry().histogram("qplec_service_queue_latency_ms",
                                              obs::MetricsRegistry::latency_buckets_ms())),
        solve_latency_ms(registry().histogram("qplec_service_solve_latency_ms",
                                              obs::MetricsRegistry::latency_buckets_ms())),
        cache_hit_latency_ms(registry().histogram("qplec_service_cache_hit_latency_ms",
                                                  obs::MetricsRegistry::latency_buckets_ms())),
        cache_miss_latency_ms(registry().histogram("qplec_service_cache_miss_latency_ms",
                                                   obs::MetricsRegistry::latency_buckets_ms())) {
    for (int s = 0; s < kNumSolveStatuses; ++s) {
      outcomes[s] = &registry().counter(std::string("qplec_service_outcomes_total{status=\"") +
                                        status_name(static_cast<SolveStatus>(s)) + "\"}");
    }
  }

  static obs::MetricsRegistry& registry() { return obs::MetricsRegistry::global(); }
};

/// Static-string trace tag per terminal status (ring events store pointers).
const char* terminal_event_name(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOk:
      return "solved";
    case SolveStatus::kInvalidInstance:
      return "invalid-instance";
    case SolveStatus::kCancelled:
      return "cancelled";
    case SolveStatus::kDeadlineExceeded:
      return "deadline-exceeded";
    case SolveStatus::kInvariantViolation:
      return "invariant-violation";
    case SolveStatus::kQueueFull:
      return "queue-full";
  }
  return "unknown";
}

/// EWMA of attempted solve times (alpha = 0.2), the admission controller's
/// drain-time estimate.  Relaxed CAS: the estimate is advisory, shedding
/// decisions tolerate a stale read.
void note_solve_ms(std::atomic<double>& ewma, double ms) {
  double prev = ewma.load(std::memory_order_relaxed);
  double next;
  do {
    next = prev <= 0.0 ? ms : 0.8 * prev + 0.2 * ms;
  } while (!ewma.compare_exchange_weak(prev, next, std::memory_order_relaxed));
}

/// The ONE queue-exit accounting step: stamps SolveOutcome::queue_ms from
/// the submission clock, retires the job from the queue-depth gauge and
/// records its queue-latency sample plus the "queue" trace span.  Every way
/// a job leaves the queue — a worker claim, cancel-before-start, the
/// deadline sweeper — funnels through here exactly once, so queue time is
/// accounted identically on every path (and future exits, e.g. queue_full
/// load shedding, inherit the same bookkeeping).
double account_dequeue(Clock::time_point submit_time) {
  const double queue_ms = ms_since(submit_time);
  ServiceTelemetry& t = ServiceTelemetry::get();
  t.queue_depth.add(-1);
  t.queue_latency_ms.observe(queue_ms);
  if (trace::enabled()) {
    const auto us = static_cast<std::int64_t>(queue_ms * 1000.0);
    trace::complete("queue", "service", trace::now_us() - us, us);
  }
  return queue_ms;
}

/// Terminal accounting every exit path shares: the per-status outcome
/// counter and (for non-ok terminals) an instant trace event.
void account_terminal(SolveStatus status) {
  ServiceTelemetry::get().outcomes[static_cast<int>(status)]->inc();
  if (status != SolveStatus::kOk) trace::instant(terminal_event_name(status), "service");
}

}  // namespace

const char* status_name(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOk:
      return "ok";
    case SolveStatus::kInvalidInstance:
      return "invalid_instance";
    case SolveStatus::kCancelled:
      return "cancelled";
    case SolveStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case SolveStatus::kInvariantViolation:
      return "invariant_violation";
    case SolveStatus::kQueueFull:
      return "queue_full";
  }
  return "unknown";
}

// ----------------------------------------------------------- SolveRequest ---

SolveRequest SolveRequest::from_instance(ListEdgeColoringInstance instance) {
  SolveRequest r;
  r.source_ = Source::kInstance;
  r.instance_ = std::move(instance);
  return r;
}

SolveRequest SolveRequest::from_scenario(const Scenario& scenario) {
  SolveRequest r;
  r.source_ = Source::kScenario;
  r.scenario_ = scenario;
  r.label_ = scenario.name();
  return r;
}

SolveRequest SolveRequest::from_dimacs(std::string path) {
  SolveRequest r;
  r.source_ = Source::kDimacs;
  r.label_ = path;
  r.path_ = std::move(path);
  return r;
}

SolveRequest& SolveRequest::policy(Policy p) {
  policy_ = std::move(p);
  return *this;
}

SolveRequest& SolveRequest::priority(int p) {
  priority_ = p;
  return *this;
}

SolveRequest& SolveRequest::deadline_ms(double ms) {
  deadline_ms_ = ms;
  return *this;
}

SolveRequest& SolveRequest::relaxed(double slack) {
  slack_ = slack;
  return *this;
}

SolveRequest& SolveRequest::discard_colors() {
  keep_colors_ = false;
  return *this;
}

SolveRequest& SolveRequest::on_round(std::function<void(const RoundProgress&)> fn) {
  on_round_ = std::move(fn);
  return *this;
}

SolveRequest& SolveRequest::scramble_ids(std::uint64_t seed) {
  scramble_ = true;
  scramble_seed_ = seed;
  return *this;
}

SolveRequest& SolveRequest::random_lists(Color palette, std::uint64_t seed) {
  list_palette_ = palette;
  list_seed_ = seed;
  return *this;
}

SolveRequest& SolveRequest::label(std::string name) {
  label_ = std::move(name);
  return *this;
}

SolveRequest& SolveRequest::no_cache() {
  use_cache_ = false;
  return *this;
}

// ------------------------------------------------------------------- Job ---

/// Shared job state: the request while pending, the outcome once done.  The
/// ticket and the service both hold shared_ptrs, so either side may outlive
/// the other.
struct SolveTicket::Job {
  SolveRequest request;
  std::string label;  ///< copy of request.label_ for queue-side resolution
  Clock::time_point submit_time;
  SolveControl control;  ///< cancel flag / deadline / progress hook

  // Result-cache linkage (set at submit, before the job is shared).  A
  // leader owns an open lease on cache_key and must settle it on every exit
  // path — including the stale-pop discard of a cancelled-while-queued job.
  std::uint64_t cache_key = 0;
  std::uint64_t lease_id = 0;
  bool cache_leader = false;

  // Churn-snapshot linkage.  snapshot_key is the request fingerprint an Ok
  // outcome of this job registers its snapshot under — set at submit
  // whenever the request is updatable (cacheable shape, colors kept, exact
  // solve), even when the result cache itself is configured off: update()
  // works either way.  The worker fills `snapshot` in run_job/run_churn_job
  // and registers it after the solve, outside the job mutex.
  std::uint64_t snapshot_key = 0;
  std::shared_ptr<const ChurnSnapshot> snapshot;

  std::mutex mu;
  std::condition_variable cv;
  bool started = false;  ///< a worker claimed it (cancel() then only flags)
  bool done = false;
  SolveOutcome outcome;

  /// Resolves a job that never reached a worker (caller holds mu; !started
  /// && !done).  The ONE terminal path for cancel-before-start and sweeper
  /// expiry: label, queue_ms, the dequeue/terminal telemetry and the wakeup
  /// are accounted exactly like a worker-claimed job's — no exit path skips
  /// a field.
  void resolve_queued_locked(SolveStatus status, const char* error_msg) {
    outcome.status = status;
    outcome.error = error_msg;
    outcome.label = label;
    outcome.queue_ms = account_dequeue(submit_time);
    account_terminal(status);
    done = true;
    cv.notify_all();
  }

  /// Resolves this job from a completed identical solve (caller holds mu;
  /// !done).  The outcome is the cached one verbatim except for the fields
  /// that identify THIS submit: label, queue_ms (through the same dequeue
  /// funnel as every other exit) and the cache_hit marker.
  void resolve_cached_locked(const SolveOutcome& cached) {
    SolveOutcome out = cached;
    out.label = label;
    out.error.clear();
    out.cache_hit = true;
    out.queue_ms = account_dequeue(submit_time);
    outcome = std::move(out);
    account_terminal(outcome.status);
    done = true;
    cv.notify_all();
  }
};

const SolveOutcome& SolveTicket::wait() const {
  std::unique_lock<std::mutex> lock(job_->mu);
  job_->cv.wait(lock, [&] { return job_->done; });
  return job_->outcome;
}

const SolveOutcome* SolveTicket::try_get() const {
  std::lock_guard<std::mutex> lock(job_->mu);
  return job_->done ? &job_->outcome : nullptr;
}

SolveOutcome SolveTicket::take() const {
  std::unique_lock<std::mutex> lock(job_->mu);
  job_->cv.wait(lock, [&] { return job_->done; });
  return std::move(job_->outcome);
}

bool SolveTicket::done() const {
  std::lock_guard<std::mutex> lock(job_->mu);
  return job_->done;
}

void SolveTicket::cancel() const {
  job_->control.cancel.store(true, std::memory_order_relaxed);
  // Still queued (no worker claimed it): resolve the ticket right here, so a
  // wait()-after-cancel never blocks behind unrelated work.  The worker that
  // eventually pops the stale entry sees done and discards it.
  std::lock_guard<std::mutex> lock(job_->mu);
  if (job_->started || job_->done) return;  // running or finished: the flag suffices
  job_->resolve_queued_locked(SolveStatus::kCancelled, "cancelled before start");
}

// ----------------------------------------------------------- SolveService ---

struct SolveService::Impl {
  /// Queue order: higher priority first, then submission order (FIFO).
  struct Entry {
    int priority = 0;
    std::uint64_t seq = 0;
    std::shared_ptr<SolveTicket::Job> job;

    bool operator<(const Entry& other) const {
      // std::priority_queue pops the LARGEST element.
      if (priority != other.priority) return priority < other.priority;
      return seq > other.seq;
    }
  };

  /// Deadline sweeper order: soonest deadline first (min-heap).
  struct DeadlineEntry {
    Clock::time_point deadline;
    std::shared_ptr<SolveTicket::Job> job;

    bool operator<(const DeadlineEntry& other) const {
      // std::priority_queue pops the LARGEST element; invert for soonest-first.
      return deadline > other.deadline;
    }
  };

  std::mutex mu;
  std::condition_variable cv;        ///< wakes solve workers
  std::condition_variable timer_cv;  ///< wakes the deadline sweeper
  std::priority_queue<Entry> queue;
  std::priority_queue<DeadlineEntry> deadlines;
  std::uint64_t next_seq = 0;
  bool shutdown = false;

  /// This service's result cache (per service, not process-wide: the cache
  /// key folds in the service's config, and invalidate() scopes to it).
  std::unique_ptr<ResultCache> cache;
  /// Entries currently in `queue` (including stale ones awaiting discard) —
  /// the admission controller's depth read, lock-free on the submit path.
  std::atomic<int> pending{0};
  /// Jobs a worker is currently running.  The drain-time estimate counts
  /// them alongside the queued depth: a full complement of in-flight solves
  /// delays a new submit exactly like queued ones do.
  std::atomic<int> inflight{0};
  /// EWMA of attempted solve times (ms); 0 until the first solve lands.
  std::atomic<double> ewma_solve_ms{0.0};

  // --- Churn-snapshot registry -------------------------------------------
  // What update() starts from: the instance+colors+policy of completed
  // updatable solves, keyed by outcome fingerprint.  LRU-bounded by entries
  // AND bytes like the result cache (stressor instances run tens of MB) but
  // independent of it — snapshots exist even with the result cache off.
  // Guarded by `mu`.
  struct SnapshotEntry {
    std::shared_ptr<const ChurnSnapshot> snapshot;
    std::size_t bytes = 0;
    std::list<std::uint64_t>::iterator lru_it;
  };
  std::unordered_map<std::uint64_t, SnapshotEntry> snapshots;
  std::list<std::uint64_t> snapshot_lru;  ///< front = most recently used
  std::size_t snapshot_bytes = 0;
  int snapshot_max_entries = 64;
  std::size_t snapshot_max_bytes = 64ull << 20;

  void register_snapshot_locked(std::uint64_t key, std::shared_ptr<const ChurnSnapshot> snap) {
    const std::size_t need = estimate_snapshot_bytes(*snap);
    if (need > snapshot_max_bytes) return;  // too large to ever retain
    auto it = snapshots.find(key);
    if (it != snapshots.end()) {
      snapshot_bytes -= it->second.bytes;
      snapshot_lru.erase(it->second.lru_it);
      snapshots.erase(it);
    }
    while (!snapshot_lru.empty() &&
           (static_cast<int>(snapshots.size()) >= snapshot_max_entries ||
            snapshot_bytes + need > snapshot_max_bytes)) {
      const std::uint64_t victim = snapshot_lru.back();
      snapshot_lru.pop_back();
      auto vit = snapshots.find(victim);
      snapshot_bytes -= vit->second.bytes;
      snapshots.erase(vit);
    }
    snapshot_lru.push_front(key);
    snapshots.emplace(key, SnapshotEntry{std::move(snap), need, snapshot_lru.begin()});
    snapshot_bytes += need;
  }

  std::shared_ptr<const ChurnSnapshot> find_snapshot(std::uint64_t key) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = snapshots.find(key);
    if (it == snapshots.end()) return nullptr;
    snapshot_lru.erase(it->second.lru_it);
    snapshot_lru.push_front(key);
    it->second.lru_it = snapshot_lru.begin();
    return it->second.snapshot;
  }

  bool drop_snapshot_locked(std::uint64_t key) {
    auto it = snapshots.find(key);
    if (it == snapshots.end()) return false;
    snapshot_bytes -= it->second.bytes;
    snapshot_lru.erase(it->second.lru_it);
    snapshots.erase(it);
    return true;
  }

  std::unique_ptr<ThreadPool> owned_shard_pool;  ///< null: serial or leased
  ThreadPool* shard_pool = nullptr;              ///< the lease handed to solves

  std::unique_ptr<ThreadPool> workers;  ///< hosts the solve-worker loops
  std::thread pump;   ///< blocks in workers->run_indexed for the service lifetime
  std::thread timer;  ///< deadline sweeper: expires queued jobs eagerly
};

SolveService::SolveService(ExecConfig config)
    : config_(config), impl_(std::make_unique<Impl>()) {
  // The telemetry spine follows the config: the service owning the run flips
  // the process-wide registry switch and (when asked) opens the trace
  // session it will export at teardown.
  obs::MetricsRegistry::global().set_enabled(config_.metrics);
  if (!config_.trace_path.empty()) trace::start(trace::kRingCapacity);

  impl_->cache =
      std::make_unique<ResultCache>(config_.max_cache_entries, config_.max_cache_bytes);
  // The snapshot registry inherits the cache bounds when they are positive,
  // but stays alive on its defaults when the result cache is configured off
  // (update() does not depend on outcome caching).
  if (config_.max_cache_entries > 0) impl_->snapshot_max_entries = config_.max_cache_entries;
  if (config_.max_cache_bytes > 0) impl_->snapshot_max_bytes = config_.max_cache_bytes;

  // The shard-worker lease (PR 3 pool-ownership rules): one pool, sized once,
  // shared by every solve this service runs sharded.  It
  // must be a DIFFERENT pool than the solve workers' — a worker fanning a
  // round out onto its own pool would self-deadlock behind the lease.
  if (config_.shards > 1) {
    if (config_.shared_pool != nullptr) {
      impl_->shard_pool = config_.shared_pool;
    } else {
      impl_->owned_shard_pool = std::make_unique<ThreadPool>(config_.pool_threads());
      impl_->owned_shard_pool->enable_metrics("shard");
      impl_->shard_pool = impl_->owned_shard_pool.get();
    }
  }

  impl_->workers = std::make_unique<ThreadPool>(config_.worker_threads());
  // The solve-worker pool hosts everlasting worker_loop tasks, so pool-level
  // task timing would be meaningless for it; the service-level busy/queue
  // gauges cover these workers instead.
  ServiceTelemetry::get().workers_total.set(impl_->workers->num_threads());
  // The solve workers are hosted ON the work-stealing pool: one everlasting
  // run_indexed batch with exactly one worker-loop task per pool worker.  The
  // pump thread parks inside run_indexed until shutdown drains the queue.
  const int n = impl_->workers->num_threads();
  impl_->pump = std::thread([this, n] {
    impl_->workers->run_indexed(n, [this](int, int) { worker_loop(); });
  });
  impl_->timer = std::thread([this] { timer_loop(); });
}

SolveService::~SolveService() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->shutdown = true;
  }
  impl_->cv.notify_all();
  impl_->timer_cv.notify_all();
  impl_->pump.join();
  impl_->timer.join();
  // All jobs drained; the trace session (if any) is quiescent — export it.
  if (!config_.trace_path.empty()) {
    trace::stop();
    trace::write_chrome_json(config_.trace_path);
  }
}

int SolveService::workers() const { return impl_->workers->num_threads(); }

SolveTicket SolveService::submit(SolveRequest request) {
  auto job = std::make_shared<SolveTicket::Job>();
  job->submit_time = Clock::now();
  if (request.deadline_ms_ >= 0.0) {
    job->control.has_deadline = true;
    job->control.deadline =
        job->submit_time + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(request.deadline_ms_));
  }
  job->control.on_round = std::move(request.on_round_);
  const int priority = request.priority_;
  // Progress-hooked requests bypass the cache: an on_round observer wants a
  // live solve, and a cached resolution would never fire its callback.
  const bool use_cache =
      request.use_cache_ && job->control.on_round == nullptr && config_.result_cache();
  // Updatable = the Ok outcome registers a churn snapshot update() can chain
  // from: cacheable request shape, colors kept, exact (non-relaxed) solve.
  // Independent of whether the result cache is configured on.
  const bool updatable = request.use_cache_ && job->control.on_round == nullptr &&
                         request.keep_colors_ && request.slack_ == 1.0;
  job->request = std::move(request);
  job->label = job->request.label_;

  ServiceTelemetry& telemetry = ServiceTelemetry::get();
  // Every accepted submit — queued, cached, joined or shed — counts once in
  // submitted and enters the queue-depth gauge; every resolution leaves
  // through account_dequeue, so the gauge nets to live tickets on all paths.
  submitted_.fetch_add(1, std::memory_order_relaxed);
  telemetry.submitted.inc();
  telemetry.queue_depth.add(1);

  if (use_cache || updatable) {
    const std::uint64_t fp = fingerprint(job->request);
    if (use_cache) job->cache_key = fp;
    if (updatable) job->snapshot_key = fp;
    job->outcome.fingerprint = fp;
  }
  if (use_cache) {
    const ResultCache::Probe probe = impl_->cache->probe(job->cache_key, job);
    if (probe.status == ResultCache::ProbeStatus::kHit) {
      {
        std::lock_guard<std::mutex> lock(job->mu);
        job->resolve_cached_locked(probe.outcome);
      }
      telemetry.cache_hit_latency_ms.observe(job->outcome.queue_ms);
      completed_.fetch_add(1, std::memory_order_relaxed);
      return SolveTicket(std::move(job));
    }
    if (probe.status == ResultCache::ProbeStatus::kWait) {
      // Joined an in-flight identical solve: no queue entry of its own, but
      // deadlines still apply (the sweeper resolves an expired waiter; the
      // leader skips it at completion).
      if (job->control.has_deadline) {
        {
          std::lock_guard<std::mutex> lock(impl_->mu);
          QPLEC_REQUIRE(!impl_->shutdown);
          impl_->deadlines.push(Impl::DeadlineEntry{job->control.deadline, job});
        }
        impl_->timer_cv.notify_one();
      }
      return SolveTicket(std::move(job));
    }
  }

  // Admission control — only submits that would occupy a queue slot get
  // here (hits and lease joins above cost no worker time).  Shed when the
  // static depth backstop trips, or when the request carries a deadline the
  // queue's estimated drain time ((depth + in-flight) x EWMA solve time /
  // workers) already exceeds.  In-flight solves count: a submit landing on
  // a saturated worker set waits for one of them to finish even when the
  // queue itself is empty.
  if (config_.max_queue_depth > 0) {
    const int depth = impl_->pending.load(std::memory_order_relaxed);
    const char* reason = nullptr;
    if (depth >= config_.max_queue_depth) {
      reason = "queue full: depth at max_queue_depth";
    } else if (job->control.has_deadline) {
      const double ewma = impl_->ewma_solve_ms.load(std::memory_order_relaxed);
      const int inflight = impl_->inflight.load(std::memory_order_relaxed);
      const double drain_ms = ewma * static_cast<double>(depth + inflight + 1) /
                              static_cast<double>(workers());
      if (ewma > 0.0 && drain_ms > job->request.deadline_ms_) {
        reason = "queue full: estimated drain time exceeds deadline";
      }
    }
    if (reason != nullptr) {
      telemetry.shed.inc();
      {
        std::lock_guard<std::mutex> lock(job->mu);
        job->resolve_queued_locked(SolveStatus::kQueueFull, reason);
      }
      completed_.fetch_add(1, std::memory_order_relaxed);
      return SolveTicket(std::move(job));
    }
  }

  bool enqueue = true;
  if (use_cache) {
    const ResultCache::Lease lease = impl_->cache->acquire(job->cache_key, job);
    if (lease.leader) {
      job->cache_leader = true;
      job->lease_id = lease.id;
    } else {
      enqueue = false;  // lost the install race since the probe: joined it
    }
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    QPLEC_REQUIRE(!impl_->shutdown);
    if (enqueue) {
      impl_->queue.push(Impl::Entry{priority, impl_->next_seq++, job});
      impl_->pending.fetch_add(1, std::memory_order_relaxed);
    }
    if (job->control.has_deadline) {
      impl_->deadlines.push(Impl::DeadlineEntry{job->control.deadline, job});
    }
  }
  if (enqueue) impl_->cv.notify_one();
  if (job->control.has_deadline) impl_->timer_cv.notify_one();
  return SolveTicket(std::move(job));
}

SolveOutcome SolveService::solve(SolveRequest request) {
  return submit(std::move(request)).wait();
}

std::uint64_t SolveService::fingerprint(const SolveRequest& request) const {
  Fnv1a f;
  f.mix(static_cast<int>(request.source_));
  switch (request.source_) {
    case SolveRequest::Source::kInstance:
      f.mix(fingerprint_instance(request.instance_));
      break;
    case SolveRequest::Source::kScenario:
      // build_instance is a pure function of the scenario fields, so the
      // fields ARE the instance fingerprint (no O(m) hash needed).
      f.mix(static_cast<int>(request.scenario_.family));
      f.mix(request.scenario_.size);
      f.mix(static_cast<int>(request.scenario_.lists));
      f.mix(static_cast<int>(request.scenario_.policy));
      f.mix(request.scenario_.seed);
      f.mix(request.scenario_.aux);
      break;
    case SolveRequest::Source::kDimacs: {
      f.mix_string(request.path_);
      // Content identity, not just path identity: a rewritten file must be a
      // cache MISS, so mix the current size and mtime.  A stat failure mixes
      // zeros (the submit will surface the real error as kInvalidInstance).
      std::error_code ec;
      const auto size = std::filesystem::file_size(request.path_, ec);
      f.mix(ec ? std::uint64_t{0} : static_cast<std::uint64_t>(size));
      const auto mtime = std::filesystem::last_write_time(request.path_, ec);
      f.mix(ec ? std::uint64_t{0}
               : static_cast<std::uint64_t>(mtime.time_since_epoch().count()));
      f.mix(request.scramble_);
      f.mix(request.scramble_seed_);
      f.mix(static_cast<int>(request.list_palette_));
      f.mix(request.list_seed_);
      break;
    }
    case SolveRequest::Source::kChurn:
      // The derived-fingerprint rule: the base outcome's fingerprint chained
      // with the batch (order-sensitive).  Policy/slack/knobs mix below like
      // every other source, so a chain is re-derivable from (base fp, ops).
      f.mix(chain_fingerprint(request.churn_base_key_, request.churn_ops_));
      break;
  }
  // Scenario sources solve under make_policy(scenario.policy) — already
  // mixed above; the other sources use the request's policy object.
  if (request.source_ != SolveRequest::Source::kScenario) {
    f.mix(fingerprint_policy(request.policy_));
  }
  f.mix(request.slack_);
  f.mix(request.keep_colors_);
  f.mix(fingerprint_exec_knobs(config_));
  return f.h;
}

bool SolveService::invalidate(std::uint64_t fingerprint) {
  const bool cache_dropped = impl_->cache->invalidate(fingerprint);
  bool snapshot_dropped = false;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    snapshot_dropped = impl_->drop_snapshot_locked(fingerprint);
  }
  return cache_dropped || snapshot_dropped;
}

void SolveService::invalidate_all() {
  impl_->cache->invalidate_all();
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->snapshots.clear();
  impl_->snapshot_lru.clear();
  impl_->snapshot_bytes = 0;
}

void SolveService::worker_loop() {
  for (;;) {
    std::shared_ptr<SolveTicket::Job> job;
    {
      std::unique_lock<std::mutex> lock(impl_->mu);
      impl_->cv.wait(lock, [&] { return impl_->shutdown || !impl_->queue.empty(); });
      if (impl_->queue.empty()) return;  // shutdown and fully drained
      job = impl_->queue.top().job;
      impl_->queue.pop();
    }
    impl_->pending.fetch_sub(1, std::memory_order_relaxed);
    bool stale = false;
    {
      std::lock_guard<std::mutex> lock(job->mu);
      if (job->done) {  // resolved while queued (cancel()/sweeper); the
                        // resolver already accounted the dequeue — just
                        // discard the stale entry
        stale = true;
      } else {
        job->started = true;
      }
    }
    if (stale) {
      completed_.fetch_add(1, std::memory_order_relaxed);
      // A discarded leader must not strand its lease: fail it over so every
      // identical waiter gets a solve of its own (the cancel/expiry of ONE
      // ticket never decides another client's outcome).
      if (job->cache_leader) settle_lease(*job, nullptr);
      continue;
    }
    // The claim IS the dequeue: queue time ends here on the claimed path,
    // through the same accounting step the queue-side resolvers use.
    ServiceTelemetry& telemetry = ServiceTelemetry::get();
    telemetry.workers_busy.add(1);
    impl_->inflight.fetch_add(1, std::memory_order_relaxed);
    job->outcome.queue_ms = account_dequeue(job->submit_time);
    run_job(*job);
    impl_->inflight.fetch_sub(1, std::memory_order_relaxed);
    account_terminal(job->outcome.status);
    if (job->outcome.solve_ms > 0.0) note_solve_ms(impl_->ewma_solve_ms, job->outcome.solve_ms);
    telemetry.workers_busy.add(-1);
    // An Ok updatable solve registers its churn snapshot before done is
    // visible, so a wait()-then-update() never races the registration.
    if (job->outcome.ok() && job->snapshot != nullptr) {
      std::lock_guard<std::mutex> lock(impl_->mu);
      impl_->register_snapshot_locked(job->snapshot_key, std::move(job->snapshot));
    }
    job->snapshot = nullptr;
    // Settle the lease BEFORE done is visible: once done, the leader's
    // ticket may take() (move out) the outcome the cache/waiters still read.
    if (job->cache_leader) {
      const SolveOutcome* ok = job->outcome.ok() ? &job->outcome : nullptr;
      if (ok != nullptr) telemetry.cache_miss_latency_ms.observe(ms_since(job->submit_time));
      settle_lease(*job, ok);
    }
    completed_.fetch_add(1, std::memory_order_relaxed);  // before done is visible
    {
      std::lock_guard<std::mutex> lock(job->mu);
      job->done = true;
    }
    job->cv.notify_all();
  }
}

/// Settles a leader's cache lease: an Ok outcome populates the cache (unless
/// invalidated mid-flight) and resolves every attached waiter with a copy; a
/// failed one (null) populates nothing and re-routes each live waiter — the
/// first becomes the new leader of a fresh lease and re-enters the queue,
/// the rest attach to it.  Waiters already resolved (cancelled / sweeper-
/// expired while waiting) are skipped; they are accounted in completed()
/// here, since no queue entry of theirs will ever be popped.
void SolveService::settle_lease(SolveTicket::Job& leader, const SolveOutcome* ok_outcome) {
  ResultCache::Completion completion =
      impl_->cache->complete(leader.cache_key, leader.lease_id, ok_outcome);
  ServiceTelemetry& telemetry = ServiceTelemetry::get();
  std::vector<std::shared_ptr<SolveTicket::Job>> requeue;
  for (ResultCache::WaiterHandle& handle : completion.waiters) {
    auto waiter = std::static_pointer_cast<SolveTicket::Job>(handle);
    if (ok_outcome != nullptr) {
      double hit_ms = -1.0;
      {
        std::lock_guard<std::mutex> lock(waiter->mu);
        if (!waiter->done) {
          waiter->resolve_cached_locked(*ok_outcome);
          hit_ms = waiter->outcome.queue_ms;
        }
      }
      if (hit_ms >= 0.0) telemetry.cache_hit_latency_ms.observe(hit_ms);
      completed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      bool live;
      {
        std::lock_guard<std::mutex> lock(waiter->mu);
        live = !waiter->done;
      }
      if (!live) {
        completed_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const ResultCache::Lease lease = impl_->cache->acquire(waiter->cache_key, waiter);
      if (lease.leader) {
        waiter->cache_leader = true;
        waiter->lease_id = lease.id;
        requeue.push_back(std::move(waiter));
      }
    }
  }
  for (std::shared_ptr<SolveTicket::Job>& job : requeue) enqueue_job(std::move(job));
}

/// Internal re-queue for failed-lease failover: same entry shape as
/// submit(), but legal during shutdown drain (the worker that re-routes
/// loops back and finds the queue non-empty, so the chain still drains).
void SolveService::enqueue_job(std::shared_ptr<SolveTicket::Job> job) {
  const int priority = job->request.priority_;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->queue.push(Impl::Entry{priority, impl_->next_seq++, std::move(job)});
    impl_->pending.fetch_add(1, std::memory_order_relaxed);
  }
  impl_->cv.notify_one();
}

// The deadline sweeper.  Before this existed, a queued ticket whose deadline
// had already passed was only noticed when a worker finally popped it — a
// wait() on such a ticket blocked behind every unrelated solve ahead of it.
// The sweeper sleeps until the soonest queued deadline, then resolves the
// job kDeadlineExceeded right away (queue_ms records the time it actually
// sat in the queue).  The stale priority-queue entry is discarded later by
// whichever worker pops it, exactly like a cancelled-while-queued job —
// that worker, not the sweeper, accounts it in completed().
void SolveService::timer_loop() {
  std::unique_lock<std::mutex> lock(impl_->mu);
  for (;;) {
    if (impl_->shutdown) return;
    if (impl_->deadlines.empty()) {
      impl_->timer_cv.wait(lock);
      continue;
    }
    const Clock::time_point next = impl_->deadlines.top().deadline;
    if (Clock::now() < next) {
      impl_->timer_cv.wait_until(lock, next);
      continue;
    }
    const std::shared_ptr<SolveTicket::Job> job = impl_->deadlines.top().job;
    impl_->deadlines.pop();
    // impl mutex -> job mutex is the one sanctioned lock order (no path
    // acquires them the other way around).
    std::lock_guard<std::mutex> job_lock(job->mu);
    if (job->started || job->done) continue;  // running or already resolved
    ServiceTelemetry::get().sweeper_expired.inc();
    job->resolve_queued_locked(SolveStatus::kDeadlineExceeded, "deadline expired while queued");
  }
}

void SolveService::run_job(SolveTicket::Job& job) const {
  const SolveRequest& req = job.request;
  if (req.source_ == SolveRequest::Source::kChurn) {
    run_churn_job(job);
    return;
  }
  SolveOutcome& out = job.outcome;
  out.label = req.label_;
  // queue_ms was stamped by the claiming worker (the one dequeue point).

  // Cancel-before-start and deadline-expired-in-queue resolve without doing
  // any work (no instance build, no solver).
  if (job.control.cancel.load(std::memory_order_relaxed)) {
    out.status = SolveStatus::kCancelled;
    out.error = "cancelled before start";
    return;
  }
  if (job.control.has_deadline && Clock::now() >= job.control.deadline) {
    out.status = SolveStatus::kDeadlineExceeded;
    out.error = "deadline expired while queued";
    return;
  }

  // Build the instance from whichever source the request named.  Malformed
  // input of any kind is an InvalidInstance outcome, never a throw.
  ListEdgeColoringInstance instance;
  const auto build_start = Clock::now();
  try {
    switch (req.source_) {
      case SolveRequest::Source::kInstance:
        instance = std::move(job.request.instance_);
        break;
      case SolveRequest::Source::kScenario:
        instance = build_instance(req.scenario_);
        break;
      case SolveRequest::Source::kDimacs: {
        std::ifstream in(req.path_);
        if (!in) throw std::invalid_argument("cannot open " + req.path_);
        Graph g = read_edge_list(in);
        if (req.scramble_) {
          const auto n = static_cast<std::uint64_t>(g.num_nodes());
          g = g.with_scrambled_ids(std::max<std::uint64_t>(1, n * std::max<std::uint64_t>(1, n)),
                                   req.scramble_seed_);
        }
        instance = req.list_palette_ > 0
                       ? make_random_list_instance(std::move(g), req.list_palette_, req.list_seed_)
                       : make_two_delta_instance(std::move(g));
        break;
      }
      case SolveRequest::Source::kChurn:
        break;  // unreachable: dispatched to run_churn_job above
    }
  } catch (const std::exception& e) {
    out.status = SolveStatus::kInvalidInstance;
    out.error = e.what();
    return;
  }
  out.build_ms = ms_since(build_start);
  if (trace::enabled()) {
    const auto us = static_cast<std::int64_t>(out.build_ms * 1000.0);
    trace::complete("build", "service", trace::now_us() - us, us);
  }
  out.num_nodes = instance.graph.num_nodes();
  out.num_edges = instance.graph.num_edges();
  out.max_degree = instance.graph.max_degree();
  out.max_edge_degree = instance.graph.max_edge_degree();
  out.palette_size = instance.palette_size;

  const ExecConfig exec = config_.with_pool(impl_->shard_pool);
  out.shards = exec.effective_shards(out.num_edges);
  const Policy policy = req.source_ == SolveRequest::Source::kScenario
                            ? make_policy(req.scenario_.policy)
                            : req.policy_;
  const Solver solver(policy, exec);

  const auto solve_start = Clock::now();
  try {
    SolveResult res = req.slack_ > 1.0
                          ? solver.solve_relaxed(instance, req.slack_, &job.control)
                          : solver.solve(instance, &job.control);
    out.solve_ms = ms_since(solve_start);
    out.colors_hash = hash_coloring(res.colors);
    out.valid = is_valid_list_coloring(instance, res.colors);
    if (job.snapshot_key != 0) {
      // Retain what update() chains from: the exact instance that was
      // solved, its colors, and the policy that produced them.
      auto snap = std::make_shared<ChurnSnapshot>();
      snap->colors = res.colors;
      snap->policy = policy;
      snap->instance = std::move(instance);
      job.snapshot = std::move(snap);
    }
    if (!req.keep_colors_) {
      res.colors.clear();
      res.colors.shrink_to_fit();
    }
    out.result = std::move(res);
    out.status = SolveStatus::kOk;
  } catch (const SolveInterrupted& e) {
    out.solve_ms = ms_since(solve_start);
    out.status = e.reason() == SolveInterrupted::Reason::kCancelled
                     ? SolveStatus::kCancelled
                     : SolveStatus::kDeadlineExceeded;
    out.error = e.what();
  } catch (const std::invalid_argument& e) {
    out.solve_ms = ms_since(solve_start);
    out.status = SolveStatus::kInvalidInstance;
    out.error = e.what();
  } catch (const std::exception& e) {
    out.solve_ms = ms_since(solve_start);
    out.status = SolveStatus::kInvariantViolation;
    out.error = e.what();
  }
  // One solve span and one latency sample per *attempted* solve, whatever
  // the terminal status (interrupted solves report the time they actually
  // ran) — early exits above never reach here.
  if (trace::enabled()) {
    const auto us = static_cast<std::int64_t>(out.solve_ms * 1000.0);
    trace::complete("solve", "service", trace::now_us() - us, us);
  }
  ServiceTelemetry::get().solve_latency_ms.observe(out.solve_ms);
}

/// The churn-update worker path: plan the mutation, repair (or fall back and
/// re-solve), and capture the repaired state as the next snapshot in the
/// chain.  Mirrors run_job's accounting exactly — same early exits, build/
/// solve spans, metadata, hash/validity, exception taxonomy and latency
/// sample — so an update's outcome is shaped like any other solve's.
void SolveService::run_churn_job(SolveTicket::Job& job) const {
  const SolveRequest& req = job.request;
  SolveOutcome& out = job.outcome;
  out.label = req.label_;
  out.churn_update = true;
  out.base_fingerprint = req.churn_base_key_;

  if (job.control.cancel.load(std::memory_order_relaxed)) {
    out.status = SolveStatus::kCancelled;
    out.error = "cancelled before start";
    return;
  }
  if (job.control.has_deadline && Clock::now() >= job.control.deadline) {
    out.status = SolveStatus::kDeadlineExceeded;
    out.error = "deadline expired while queued";
    return;
  }

  const std::shared_ptr<const ChurnSnapshot> base = req.churn_base_;
  RecolorPlan plan;
  const auto build_start = Clock::now();
  try {
    plan = plan_recolor(base->instance, base->colors, req.churn_ops_.ops);
  } catch (const std::exception& e) {
    out.status = SolveStatus::kInvalidInstance;
    out.error = e.what();
    return;
  }
  out.build_ms = ms_since(build_start);
  if (trace::enabled()) {
    const auto us = static_cast<std::int64_t>(out.build_ms * 1000.0);
    trace::complete("build", "service", trace::now_us() - us, us);
  }
  out.num_nodes = plan.mutated.graph.num_nodes();
  out.num_edges = plan.mutated.graph.num_edges();
  out.max_degree = plan.mutated.graph.max_degree();
  out.max_edge_degree = plan.mutated.graph.max_edge_degree();
  out.palette_size = plan.mutated.palette_size;

  const ExecConfig exec = config_.with_pool(impl_->shard_pool);
  out.shards = exec.effective_shards(out.num_edges);
  ServiceTelemetry& telemetry = ServiceTelemetry::get();

  const auto solve_start = Clock::now();
  try {
    RecolorOutcome rec = repair_recolor(plan, base->policy, exec, &job.control);
    out.solve_ms = ms_since(solve_start);
    out.repaired = !rec.fallback;
    out.repair_region_edges = rec.region_edges;
    (rec.fallback ? telemetry.update_fallback : telemetry.update_repaired).inc();
    out.colors_hash = hash_coloring(rec.result.colors);
    out.valid = is_valid_list_coloring(plan.mutated, rec.result.colors);
    if (job.snapshot_key != 0) {
      auto snap = std::make_shared<ChurnSnapshot>();
      snap->colors = rec.result.colors;
      snap->policy = base->policy;
      snap->instance = std::move(plan.mutated);
      job.snapshot = std::move(snap);
    }
    out.result = std::move(rec.result);
    out.status = SolveStatus::kOk;
  } catch (const SolveInterrupted& e) {
    out.solve_ms = ms_since(solve_start);
    out.status = e.reason() == SolveInterrupted::Reason::kCancelled
                     ? SolveStatus::kCancelled
                     : SolveStatus::kDeadlineExceeded;
    out.error = e.what();
  } catch (const std::invalid_argument& e) {
    out.solve_ms = ms_since(solve_start);
    out.status = SolveStatus::kInvalidInstance;
    out.error = e.what();
  } catch (const std::exception& e) {
    out.solve_ms = ms_since(solve_start);
    out.status = SolveStatus::kInvariantViolation;
    out.error = e.what();
  }
  if (trace::enabled()) {
    const auto us = static_cast<std::int64_t>(out.solve_ms * 1000.0);
    trace::complete("repair", "service", trace::now_us() - us, us);
  }
  telemetry.solve_latency_ms.observe(out.solve_ms);
}

/// update() reject path: a ticket resolved kInvalidInstance right here, with
/// the same accounting as submit's queue-side resolutions (counted in
/// submitted/completed, enters and leaves the depth gauge once).
SolveTicket SolveService::reject_update(std::uint64_t base_fingerprint, const std::string& why) {
  auto job = std::make_shared<SolveTicket::Job>();
  job->submit_time = Clock::now();
  job->label = "churn-update";
  submitted_.fetch_add(1, std::memory_order_relaxed);
  ServiceTelemetry::get().submitted.inc();
  ServiceTelemetry::get().queue_depth.add(1);
  {
    std::lock_guard<std::mutex> lock(job->mu);
    job->outcome.churn_update = true;
    job->outcome.base_fingerprint = base_fingerprint;
    job->outcome.status = SolveStatus::kInvalidInstance;
    job->outcome.error = why;
    job->outcome.label = job->label;
    job->outcome.queue_ms = account_dequeue(job->submit_time);
    account_terminal(SolveStatus::kInvalidInstance);
    job->done = true;
    job->cv.notify_all();
  }
  completed_.fetch_add(1, std::memory_order_relaxed);
  return SolveTicket(std::move(job));
}

SolveTicket SolveService::update(const SolveTicket& base, ChurnBatch batch) {
  const std::uint64_t key = base.job_ != nullptr ? base.job_->snapshot_key : 0;
  if (key == 0) {
    ServiceTelemetry::get().update_total.inc();
    return reject_update(0,
                         "update: base ticket keeps no churn snapshot (no_cache, on_round, "
                         "discard_colors or relaxed requests are not updatable)");
  }
  return update(key, std::move(batch));
}

SolveTicket SolveService::update(std::uint64_t base_fingerprint, ChurnBatch batch) {
  ServiceTelemetry::get().update_total.inc();
  const std::shared_ptr<const ChurnSnapshot> snap = impl_->find_snapshot(base_fingerprint);
  if (snap == nullptr) {
    return reject_update(base_fingerprint,
                         "update: no churn snapshot for this fingerprint (base not completed "
                         "Ok yet, evicted, or invalidated)");
  }
  try {
    validate_churn(snap->instance, batch);
  } catch (const std::exception& e) {
    return reject_update(base_fingerprint, e.what());
  }
  SolveRequest request;
  request.source_ = SolveRequest::Source::kChurn;
  request.churn_base_ = snap;
  request.churn_base_key_ = base_fingerprint;
  request.churn_ops_ = std::move(batch);
  request.policy_ = snap->policy;
  request.label_ = "churn-update";
  return submit(std::move(request));
}

ServiceMetricsSnapshot SolveService::metrics_snapshot() const {
  ServiceTelemetry& t = ServiceTelemetry::get();
  ServiceMetricsSnapshot s;
  s.queue_depth = t.queue_depth.value();
  s.workers_busy = t.workers_busy.value();
  s.workers_total = t.workers_total.value();
  s.submitted = t.submitted.value();
  for (int i = 0; i < kNumSolveStatuses; ++i) s.outcomes[i] = t.outcomes[i]->value();
  s.deadline_sweeper_expired = t.sweeper_expired.value();
  s.queue_latency_ms = t.queue_latency_ms.snapshot();
  s.solve_latency_ms = t.solve_latency_ms.snapshot();
  s.shed = t.shed.value();
  s.updates = t.update_total.value();
  s.updates_repaired = t.update_repaired.value();
  s.updates_fallback = t.update_fallback.value();
  const obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  s.cache_hits = registry.counter_value("qplec_service_cache_hits_total");
  s.cache_misses = registry.counter_value("qplec_service_cache_misses_total");
  s.cache_lease_joins = registry.counter_value("qplec_service_cache_lease_joins_total");
  s.cache_evictions = registry.counter_value("qplec_service_cache_evictions_total");
  s.cache_invalidations = registry.counter_value("qplec_service_cache_invalidations_total");
  s.cache_entries = static_cast<std::int64_t>(impl_->cache->entries());
  s.cache_bytes = static_cast<std::int64_t>(impl_->cache->bytes());
  s.cache_hit_latency_ms = t.cache_hit_latency_ms.snapshot();
  s.cache_miss_latency_ms = t.cache_miss_latency_ms.snapshot();
  return s;
}

}  // namespace qplec
