#include "src/service/result_cache.hpp"

#include <cstring>

#include "src/common/assert.hpp"
#include "src/obs/metrics.hpp"

namespace qplec {
namespace {

// Cache telemetry: process-wide like every qplec_service_* series, shared by
// all ResultCache instances (counters are monotone across caches; the gauges
// reflect the latest writer — one live service in practice).
struct CacheTelemetry {
  // hits: submits answered from a ready entry; misses: fresh leases
  // installed; lease_joins: submits attached to an in-flight identical
  // solve; evictions: ready entries dropped by the LRU bounds;
  // invalidations: explicit drops/stales.  entries/bytes track residency.
  obs::Counter& hits =
      obs::MetricsRegistry::global().counter("qplec_service_cache_hits_total");
  obs::Counter& misses =
      obs::MetricsRegistry::global().counter("qplec_service_cache_misses_total");
  obs::Counter& lease_joins =
      obs::MetricsRegistry::global().counter("qplec_service_cache_lease_joins_total");
  obs::Counter& evictions =
      obs::MetricsRegistry::global().counter("qplec_service_cache_evictions_total");
  obs::Counter& invalidations =
      obs::MetricsRegistry::global().counter("qplec_service_cache_invalidations_total");
  obs::Gauge& entries = obs::MetricsRegistry::global().gauge("qplec_service_cache_entries");
  obs::Gauge& bytes = obs::MetricsRegistry::global().gauge("qplec_service_cache_bytes");

  static CacheTelemetry& get() {
    static CacheTelemetry t;
    return t;
  }
};

}  // namespace

// --- Fingerprint primitives --------------------------------------------------

Fnv1a& Fnv1a::mix(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return mix(bits);
}

Fnv1a& Fnv1a::mix_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return *this;
}

Fnv1a& Fnv1a::mix_string(const std::string& s) {
  mix(static_cast<std::uint64_t>(s.size()));
  return mix_bytes(s.data(), s.size());
}

std::uint64_t fingerprint_graph(const Graph& g) {
  Fnv1a f;
  f.mix(static_cast<std::uint64_t>(g.num_nodes()));
  f.mix(static_cast<std::uint64_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeEndpoints& ep = g.endpoints(e);
    f.mix(static_cast<std::uint64_t>(ep.u));
    f.mix(static_cast<std::uint64_t>(ep.v));
  }
  // Local ids steer the symmetry breaking (initial coloring, Linial tables),
  // so the same topology under a different id assignment is a different
  // solve with a different coloring.
  for (NodeId v = 0; v < g.num_nodes(); ++v) f.mix(g.local_id(v));
  return f.h;
}

std::uint64_t fingerprint_instance(const ListEdgeColoringInstance& instance) {
  Fnv1a f;
  f.mix(fingerprint_graph(instance.graph));
  f.mix(static_cast<std::uint64_t>(instance.palette_size));
  f.mix(static_cast<std::uint64_t>(instance.lists.size()));
  for (const ColorList& list : instance.lists) {
    f.mix(static_cast<std::uint64_t>(list.size()));
    const std::vector<Color>& colors = list.colors();
    f.mix_bytes(colors.data(), colors.size() * sizeof(Color));
  }
  return f.h;
}

std::uint64_t fingerprint_policy(const Policy& policy) {
  Fnv1a f;
  f.mix_string(policy.name);
  f.mix(policy.base_degree_threshold);
  f.mix(policy.beta_fixed);
  f.mix(policy.beta_alpha);
  f.mix(policy.c_exponent);
  f.mix(policy.beta_cap);
  f.mix(policy.paper_p);
  f.mix(policy.max_depth);
  return f.h;
}

std::uint64_t fingerprint_exec_knobs(const ExecConfig& config) {
  Fnv1a f;
  // The shard count is part of the key: colors are bit-identical across
  // shard counts, but the outcome's reporting surface (shards) is not.
  f.mix(config.shards);
  f.mix(config.min_sharded_edges);
  f.mix(config.use_neighbor_cache);
  f.mix(static_cast<int>(config.validation_tier));
  // The repair/fallback decision changes an update's rounds/ledger surface,
  // so a different budget must be a different cache key.
  f.mix(config.recolor_budget);
  return f.h;
}

std::size_t estimate_outcome_bytes(const SolveOutcome& outcome) {
  // SolverStats is flat (ints/doubles + a RoundProfile of the same), so the
  // heap footprint is the coloring plus the strings.  size(), not
  // capacity(): this prices what an outcome NEEDS to hold — the store path
  // shrinks its copy to fit before admission, so accounting by capacity
  // would charge (and evict for) slack the cache never keeps.
  return sizeof(SolveOutcome) + outcome.result.colors.size() * sizeof(Color) +
         outcome.result.round_report.size() + outcome.error.size() + outcome.label.size();
}

// --- ResultCache -------------------------------------------------------------

ResultCache::ResultCache(int max_entries, std::size_t max_bytes)
    : max_entries_(max_entries), max_bytes_(max_bytes) {}

ResultCache::Probe ResultCache::probe(std::uint64_t key, const WaiterHandle& waiter) {
  if (!enabled()) return Probe{};
  Probe out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) return Probe{};
    Entry& entry = it->second;
    if (entry.ready) {
      touch_locked(entry, key);
      out.status = ProbeStatus::kHit;
      out.outcome = entry.outcome;
    } else {
      entry.waiters.push_back(waiter);
      out.status = ProbeStatus::kWait;
    }
  }
  if (out.status == ProbeStatus::kHit) CacheTelemetry::get().hits.inc();
  if (out.status == ProbeStatus::kWait) CacheTelemetry::get().lease_joins.inc();
  return out;
}

ResultCache::Lease ResultCache::acquire(std::uint64_t key, const WaiterHandle& waiter) {
  if (!enabled()) return Lease{};
  Lease lease;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = map_.try_emplace(key);
    Entry& entry = it->second;
    if (!inserted && !entry.ready) {
      // Lost the install race since the caller's probe — join as a waiter.
      entry.waiters.push_back(waiter);
      lease.leader = false;
      lease.id = entry.lease;
    } else {
      // Fresh install.  A ready entry here means the caller raced an
      // invalidate against its own probe; re-leasing over it is the honest
      // move (the caller decided to solve).
      if (!inserted && entry.ready) {
        bytes_ -= entry.bytes;
        --ready_entries_;
        lru_.erase(entry.lru_it);
        entry = Entry{};
      }
      entry.ready = false;
      entry.stale = false;
      entry.lease = next_lease_++;
      lease.leader = true;
      lease.id = entry.lease;
    }
  }
  if (lease.leader) {
    CacheTelemetry::get().misses.inc();
  } else {
    CacheTelemetry::get().lease_joins.inc();
  }
  return lease;
}

ResultCache::Completion ResultCache::complete(std::uint64_t key, LeaseId id,
                                              const SolveOutcome* outcome) {
  Completion out;
  if (!enabled()) return out;
  std::int64_t entries_after = -1, bytes_after = -1;
  std::uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end() || it->second.ready || it->second.lease != id) {
      // The lease is gone (invalidate_all during shutdown, or a newer
      // generation replaced it after a failure re-route).  Nothing to hand
      // back: whoever superseded the lease owns the waiters now.
      return out;
    }
    Entry& entry = it->second;
    out.waiters = std::move(entry.waiters);
    entry.waiters.clear();
    const bool store = outcome != nullptr && !entry.stale;
    if (!store) {
      map_.erase(it);
    } else {
      const std::size_t need = estimate_outcome_bytes(*outcome);
      if (need > max_bytes_) {
        map_.erase(it);  // too large to ever fit; serve the waiters only
      } else {
        const std::size_t lru_before = lru_.size();
        evict_for_locked(need);
        evicted = static_cast<std::uint64_t>(lru_before - lru_.size());
        entry.ready = true;
        // Store a copy shrunk to its estimated footprint: the leader's
        // vectors/strings may carry growth slack the resident entry should
        // not (estimate_outcome_bytes prices size, so make capacity match).
        SolveOutcome stored = *outcome;
        stored.result.colors.shrink_to_fit();
        stored.result.round_report.shrink_to_fit();
        stored.error.shrink_to_fit();
        stored.label.shrink_to_fit();
        entry.outcome = std::move(stored);
        entry.bytes = need;
        lru_.push_front(key);
        entry.lru_it = lru_.begin();
        bytes_ += need;
        ++ready_entries_;
        out.populated = true;
      }
    }
    entries_after = static_cast<std::int64_t>(ready_entries_);
    bytes_after = static_cast<std::int64_t>(bytes_);
  }
  CacheTelemetry& t = CacheTelemetry::get();
  if (evicted != 0) t.evictions.inc(evicted);
  t.entries.set(entries_after);
  t.bytes.set(bytes_after);
  return out;
}

bool ResultCache::invalidate(std::uint64_t key) {
  if (!enabled()) return false;
  bool hit = false;
  std::int64_t entries_after = 0, bytes_after = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      Entry& entry = it->second;
      if (entry.ready) {
        bytes_ -= entry.bytes;
        --ready_entries_;
        lru_.erase(entry.lru_it);
        map_.erase(it);
      } else {
        entry.stale = true;  // the in-flight leader will skip population
      }
      hit = true;
    }
    entries_after = static_cast<std::int64_t>(ready_entries_);
    bytes_after = static_cast<std::int64_t>(bytes_);
  }
  if (hit) {
    CacheTelemetry& t = CacheTelemetry::get();
    t.invalidations.inc();
    t.entries.set(entries_after);
    t.bytes.set(bytes_after);
  }
  return hit;
}

void ResultCache::invalidate_all() {
  if (!enabled()) return;
  std::uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = map_.begin(); it != map_.end();) {
      if (it->second.ready) {
        ++dropped;
        it = map_.erase(it);
      } else {
        it->second.stale = true;
        ++dropped;
        ++it;
      }
    }
    lru_.clear();
    bytes_ = 0;
    ready_entries_ = 0;
  }
  if (dropped != 0) {
    CacheTelemetry& t = CacheTelemetry::get();
    t.invalidations.inc(dropped);
    t.entries.set(0);
    t.bytes.set(0);
  }
}

std::size_t ResultCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ready_entries_;
}

std::size_t ResultCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

void ResultCache::touch_locked(Entry& entry, std::uint64_t key) {
  if (entry.lru_it != lru_.begin()) {
    lru_.erase(entry.lru_it);
    lru_.push_front(key);
    entry.lru_it = lru_.begin();
  }
}

void ResultCache::evict_for_locked(std::size_t incoming_bytes) {
  // Make room for one incoming entry: drop ready entries from the LRU tail
  // until both bounds hold.  Leased entries never sit in lru_, so in-flight
  // solves are never evicted.
  while (!lru_.empty() && (ready_entries_ + 1 > static_cast<std::size_t>(max_entries_) ||
                           bytes_ + incoming_bytes > max_bytes_)) {
    const std::uint64_t victim = lru_.back();
    auto it = map_.find(victim);
    QPLEC_REQUIRE(it != map_.end() && it->second.ready);
    bytes_ -= it->second.bytes;
    --ready_entries_;
    lru_.pop_back();
    map_.erase(it);
  }
}

}  // namespace qplec
