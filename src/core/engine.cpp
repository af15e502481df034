#include "src/core/engine.hpp"

#include <algorithm>

#include "src/coloring/conflict.hpp"
#include "src/coloring/defective.hpp"
#include "src/coloring/greedy.hpp"
#include "src/coloring/validate.hpp"
#include "src/common/log.hpp"
#include "src/common/math.hpp"
#include "src/core/pass_timer.hpp"
#include "src/dist/backend.hpp"
#include "src/obs/metrics.hpp"

namespace qplec {

namespace {

/// Process-wide cache-outcome counters, resolved once (function-local
/// statics keep hot engine construction off the registry map).  "hit": the
/// engine built a NeighborColorCache; "budget_reject": fits() said the rows
/// would dwarf the graph; "fallback": the config disabled the cache.
struct CacheModeCounters {
  obs::Counter& hit;
  obs::Counter& budget_reject;
  obs::Counter& fallback;

  static CacheModeCounters& get() {
    auto& reg = obs::MetricsRegistry::global();
    static CacheModeCounters c{
        reg.counter("qplec_cache_engines_total{mode=\"hit\"}"),
        reg.counter("qplec_cache_engines_total{mode=\"budget_reject\"}"),
        reg.counter("qplec_cache_engines_total{mode=\"fallback\"}"),
    };
    return c;
  }
};

}  // namespace

SolverEngine::SolverEngine(const Graph& g, std::vector<ColorList> lists, Color palette,
                           std::vector<std::uint64_t> phi, std::uint64_t phi_palette,
                           const Policy& policy, RoundLedger& ledger, SolverStats& stats,
                           int depth, const ExecBackend* exec, const ExecConfig& config,
                           const SolveControl* control)
    : g_(g),
      work_(std::move(lists)),
      palette_(palette),
      phi_(std::move(phi)),
      phi_palette_(phi_palette),
      policy_(policy),
      ledger_(ledger),
      stats_(stats),
      base_depth_(depth),
      exec_(&exec_or_inline(exec)),
      config_(config),
      gate_(config.make_validation_gate()),
      control_(control),
      final_(static_cast<std::size_t>(g.num_edges()), kUncolored) {
  QPLEC_REQUIRE(work_.size() == static_cast<std::size_t>(g.num_edges()));
  QPLEC_REQUIRE(phi_.size() == static_cast<std::size_t>(g.num_edges()));
  // Hub-heavy graphs fail NeighborColorCache::fits (the rows would dwarf
  // the graph); they silently run the bit-identical full-rescan path.  The
  // mode counters make that silence observable.
  if (g_.num_edges() > 0) {
    if (!config_.use_neighbor_cache) {
      CacheModeCounters::get().fallback.inc();
    } else if (NeighborColorCache::fits(g_)) {
      cache_ = std::make_unique<NeighborColorCache>(g_, final_, *exec_);
      CacheModeCounters::get().hit.inc();
    } else {
      CacheModeCounters::get().budget_reject.inc();
    }
  }
  note_depth(depth);
}

bool SolverEngine::validation_due() {
  const bool due = gate_.due();
  if (due) {
    ++stats_.profile.validation_walks_run;
  } else {
    ++stats_.profile.validation_walks_skipped;
  }
  return due;
}

void SolverEngine::note_depth(int depth) {
  QPLEC_ASSERT_MSG(depth <= policy_.max_depth, "recursion depth guard tripped");
  stats_.max_depth = std::max(stats_.max_depth, depth);
}

EdgeColoring SolverEngine::solve() {
  if (g_.num_edges() > 0) {
    // Demoted entry walk: phi properness is re-checked by every primitive
    // that consumes it, and the final coloring is validated downstream.
    if (validation_due()) {
      const PassTimer timer(stats_.profile.validate_ms, "validate-entry");
      QPLEC_ASSERT(
          is_proper_on_conflict(LineGraphConflict(g_, EdgeSubset::all(g_)), phi_, *exec_));
    }
    solve_no_slack(EdgeSubset::all(g_), base_depth_);
  }
  return finish_solve();
}

EdgeColoring SolverEngine::solve_relaxed_instance(double slack) {
  if (g_.num_edges() > 0) {
    if (validation_due()) {
      const PassTimer timer(stats_.profile.validate_ms, "validate-entry");
      QPLEC_ASSERT(
          is_proper_on_conflict(LineGraphConflict(g_, EdgeSubset::all(g_)), phi_, *exec_));
    }
    solve_relaxed(EdgeSubset::all(g_), slack, 0, palette_, base_depth_);
  }
  return finish_solve();
}

EdgeColoring SolverEngine::finish_solve() {
  // Demoted exit walk: Solver::run validates the full solution against the
  // original instance unconditionally, so this engine-level sweep is a
  // redundant early tripwire worth sampling, not paying every solve.
  if (validation_due()) {
    const PassTimer timer(stats_.profile.validate_ms, "validate-final");
    std::string why;
    QPLEC_ASSERT_MSG(is_proper_edge_coloring(g_, final_, &why),
                     "engine output invalid: " << why);
  }
  if (cache_) {
    stats_.cache_flushes += cache_->flushes();
    stats_.cache_deltas += cache_->deltas_noted();
    stats_.cache_colors_removed += cache_->colors_removed();
    // Fold this engine's cache telemetry into the process-wide series (once
    // per engine, off the hot path).
    auto& reg = obs::MetricsRegistry::global();
    static obs::Counter& flushes = reg.counter("qplec_cache_flushes_total");
    static obs::Counter& deltas = reg.counter("qplec_cache_deltas_total");
    static obs::Counter& removed = reg.counter("qplec_cache_colors_removed_total");
    flushes.inc(static_cast<std::uint64_t>(cache_->flushes()));
    deltas.inc(static_cast<std::uint64_t>(cache_->deltas_noted()));
    removed.inc(static_cast<std::uint64_t>(cache_->colors_removed()));
  }
  return final_;
}

void SolverEngine::prune_list(int lane, EdgeId e) {
  auto& list = work_[static_cast<std::size_t>(e)];
  if (cache_) {
    // Incremental path: sweep only e's live row (plus its deferred pending
    // colors) — exactly the colors of neighbors finalized since e's previous
    // sweep, which (removal being idempotent) leaves exactly the list the
    // full rescan below would.
    cache_->consume(lane, e, list);
    return;
  }
  g_.for_each_edge_neighbor(e, [&](EdgeId f) {
    const Color cf = final_[static_cast<std::size_t>(f)];
    if (cf != kUncolored) list.remove(cf);
  });
}

int SolverEngine::induced_degree(int lane, EdgeId e, const EdgeSubset& s) const {
  // The cached count walks the live row (subsets of the round loop hold
  // only unfinalized edges, so dropping finalized neighbors loses nothing).
  if (cache_) return cache_->induced_degree(lane, e, s);
  return s.induced_edge_degree(g_, e);
}

int SolverEngine::max_induced_degree(const EdgeSubset& s) const {
  LaneScratch<int> deg(exec_->lanes(), 0);
  exec_->for_members(s, [&](int lane, EdgeId e) {
    deg.lane(lane) = std::max(deg.lane(lane), induced_degree(lane, e, s));
  });
  return deg.max();
}

int SolverEngine::round_head(const EdgeSubset& H, const char* invariant) {
  const bool validate = validation_due();
  // One superstep: the list refresh, the degree measurement and (when due)
  // the feasibility walk all read committed neighbor state and write only
  // e-owned state or lane-indexed accumulators, so they share one pass and
  // one round barrier.  The ledger sees the single refresh round.
  ledger_.charge(1, "refresh-lists");
  ++stats_.profile.supersteps;
  const PassTimer profile_timer(stats_.profile.pass_ms, "superstep");
  const PassTimer timer(stats_.refresh_ms);
  LaneScratch<int> deg(exec_->lanes(), 0);
  if (cache_) cache_->flush();
  exec_->for_members(H, [&](int lane, EdgeId e) {
    prune_list(lane, e);
    const int di = induced_degree(lane, e, H);
    deg.lane(lane) = std::max(deg.lane(lane), di);
    if (validate) {
      QPLEC_ASSERT_MSG(work_[static_cast<std::size_t>(e)].size() >= di + 1,
                       invariant << " violated at edge " << e);
    }
  });
  return deg.max();
}

int SolverEngine::relaxed_head(const EdgeSubset& A, double slack, Color lo, Color hi) {
  const bool validate = validation_due();
  ++stats_.profile.supersteps;
  const PassTimer profile_timer(stats_.profile.pass_ms, "relaxed-superstep");
  LaneScratch<int> deg(exec_->lanes(), 0);
  exec_->for_members(A, [&](int lane, EdgeId e) {
    const int di = induced_degree(lane, e, A);
    deg.lane(lane) = std::max(deg.lane(lane), di);
    if (!validate) return;
    // Entry invariant of P(dbar, S, C): |L_e| > slack * deg_A(e), lists
    // within [lo, hi).
    const auto& list = work_[static_cast<std::size_t>(e)];
    QPLEC_ASSERT(!list.empty());
    QPLEC_ASSERT(list.colors().front() >= lo && list.colors().back() < hi);
    QPLEC_ASSERT_MSG(static_cast<double>(list.size()) > slack * di - 1e-9,
                     "relaxed entry slack violated at edge " << e);
  });
  return deg.max();
}

void SolverEngine::solve_basecase(const EdgeSubset& H) {
  checkpoint();
  ++stats_.basecase_calls;
  const int d = round_head(H, "base case feasibility");
  const LineGraphConflict view(g_, H);
  solve_conflict_list(view, work_, phi_, phi_palette_, d, final_, ledger_, exec_, control_,
                      &gate_);
  // The whole subset finalized at once: record the deltas for the next
  // flush (lane queues concatenate to ascending id order either way).
  exec_->for_members(H, [&](int lane, EdgeId e) {
    QPLEC_ASSERT(final_[static_cast<std::size_t>(e)] != kUncolored);
    if (cache_) cache_->note_finalized(lane, e);
  });
}

void SolverEngine::solve_no_slack(EdgeSubset H, int depth) {
  note_depth(depth);
  int guard = 0;
  while (!H.empty()) {
    QPLEC_ASSERT_MSG(++guard <= 64, "no-slack outer loop failed to terminate");
    checkpoint();
    // Round head: refresh + degree measurement + (gated) the paper's
    // invariant that the current subgraph is a (deg+1)-list instance.
    const int d = round_head(H, "(deg+1)-list invariant");

    if (d <= policy_.base_degree_threshold) {
      solve_basecase(H);
      return;
    }

    const int beta = policy_.beta(d);
    ++stats_.defective_calls;
    const DefectiveColoring dc =
        defective_edge_coloring(g_, H, beta, phi_, phi_palette_, ledger_, exec_, &gate_);

    // Degrees at phase start drive the activity test (always needed); the
    // defect tightness statistic rides the same pass but is pure telemetry —
    // its per-edge defect count is a neighborhood walk the validation tier
    // may skip.  The ratio folds through a per-lane max (order-invariant),
    // everything else is an e-owned write.
    std::vector<int> deg0(static_cast<std::size_t>(g_.num_edges()), 0);
    const bool defect_due = validation_due();
    LaneScratch<double> defect_ratio(exec_->lanes(), stats_.max_defect_ratio);
    exec_->for_members(H, [&](int lane, EdgeId e) {
      deg0[static_cast<std::size_t>(e)] = induced_degree(lane, e, H);
      if (!defect_due) return;
      const int defect = edge_defect(g_, H, dc.cls, e);
      if (defect > 0) {
        const double bound = static_cast<double>(deg0[static_cast<std::size_t>(e)]) /
                             (2.0 * static_cast<double>(beta));
        defect_ratio.lane(lane) =
            std::max(defect_ratio.lane(lane), static_cast<double>(defect) / bound);
      }
    });
    if (defect_due) stats_.max_defect_ratio = defect_ratio.max();

    std::vector<std::vector<EdgeId>> buckets(static_cast<std::size_t>(dc.num_classes));
    H.for_each([&](EdgeId e) {
      buckets[static_cast<std::size_t>(dc.cls[static_cast<std::size_t>(e)])].push_back(e);
    });

    stats_.classes_total += dc.num_classes;
    std::int64_t empty_slots = 0;
    for (int cls = 0; cls < dc.num_classes; ++cls) {
      const auto& bucket = buckets[static_cast<std::size_t>(cls)];
      if (bucket.empty()) {
        // A synchronous schedule still spends the marking round of this
        // class slot; bulk-charged below to keep the ledger cheap.
        ++empty_slots;
        continue;
      }
      ++stats_.classes_nonempty;
      checkpoint();
      auto scope = ledger_.sequential("defective-class");
      // Marking round: remove used neighbor colors, test |L_e| > deg(e)/2.
      // The pruning is e-local; the activity verdicts land in per-edge flags
      // and the subset is built serially from them (identical membership for
      // any lane layout).  The cached path consumes only the deltas the
      // previous classes of this loop finalized.
      ledger_.charge(1, "mark-active");
      std::vector<std::uint8_t> is_active(bucket.size(), 0);
      {
        const PassTimer timer(stats_.refresh_ms, "mark-active");
        if (cache_) cache_->flush();
        exec_->for_indices(static_cast<int>(bucket.size()), [&](int lane, int t) {
          const EdgeId e = bucket[static_cast<std::size_t>(t)];
          prune_list(lane, e);
          if (2 * work_[static_cast<std::size_t>(e)].size() > deg0[static_cast<std::size_t>(e)]) {
            is_active[static_cast<std::size_t>(t)] = 1;
          }
        });
      }
      EdgeSubset active(g_.num_edges());
      for (std::size_t t = 0; t < bucket.size(); ++t) {
        if (is_active[t]) active.insert(bucket[t]);
      }
      if (!active.empty()) {
        // Slack guarantee of Lemma 4.2 (asserted, gated): within the active
        // class subgraph, |L_e| > beta * deg'(e).  The activity test above
        // already enforced the half-degree bound the recursion needs; this
        // standalone walk re-derives the paper's stronger statement.
        if (validation_due()) {
          const PassTimer validate_timer(stats_.profile.validate_ms, "validate-slack");
          exec_->for_members(active, [&](int lane, EdgeId e) {
            const int dprime = induced_degree(lane, e, active);
            QPLEC_ASSERT_MSG(
                work_[static_cast<std::size_t>(e)].size() >
                    static_cast<std::int64_t>(beta) * dprime,
                "slack guarantee violated: |L|=" << work_[static_cast<std::size_t>(e)].size()
                                                 << " beta=" << beta << " deg'=" << dprime);
          });
        }
        solve_relaxed(std::move(active), static_cast<double>(beta), 0, palette_, depth + 1);
      }
    }
    if (empty_slots > 0) ledger_.charge(empty_slots, "mark-active");

    // Uncolored edges recurse; the paper proves their induced degree halved.
    EdgeSubset next(g_.num_edges());
    H.for_each([&](EdgeId e) {
      if (final_[static_cast<std::size_t>(e)] == kUncolored) next.insert(e);
    });
    // Degree halving (asserted, gated): the measurement sweep exists only to
    // feed the assert — the next iteration's round head re-measures anyway.
    if (!next.empty() && validation_due()) {
      const PassTimer validate_timer(stats_.profile.validate_ms, "validate-halving");
      const int nd = max_induced_degree(next);
      QPLEC_ASSERT_MSG(2 * nd <= d, "degree halving violated: " << d << " -> " << nd);
    }
    H = std::move(next);
  }
}

void SolverEngine::solve_relaxed(EdgeSubset A, double slack, Color lo, Color hi, int depth) {
  note_depth(depth);
  if (A.empty()) return;
  QPLEC_REQUIRE(slack >= 1.0);
  checkpoint();

  const int d = relaxed_head(A, slack, lo, hi);

  if (d == 0) {
    // Independent edges: everyone picks its smallest remaining color.
    ++stats_.trivial_picks;
    ledger_.charge(1, "trivial-pick");
    exec_->for_members(A, [&](int lane, EdgeId e) {
      final_[static_cast<std::size_t>(e)] = work_[static_cast<std::size_t>(e)].min();
      if (cache_) cache_->note_finalized(lane, e);
    });
    return;
  }
  if (d <= policy_.base_degree_threshold) {
    solve_basecase(A);
    return;
  }

  const int p = policy_.choose_p(slack, hi - lo, d);
  if (p == 0) {
    // The slack cannot pay for a space-reduction step (Lemma 4.3 requires
    // S >= 24*H_{2p}*log p); treat the instance as a (deg+1)-list problem.
    // Progress is still guaranteed: this path is only reached from Lemma 4.2
    // class subgraphs whose degree shrank by a 2*beta factor.
    ++stats_.noslack_fallbacks;
    solve_no_slack(std::move(A), depth + 1);
    return;
  }

  ++stats_.space_reductions;
  const std::vector<int> part_of = assign_subspaces(A, lo, hi, p, depth);
  const PalettePartition partition = PalettePartition::uniform(hi - lo, p);
  const double child_slack = std::max(1.0, slack / Policy::space_cost(p));

  // The q instances are independent (disjoint palettes) and run in parallel.
  std::vector<EdgeSubset> parts(static_cast<std::size_t>(partition.num_parts()),
                                EdgeSubset(g_.num_edges()));
  A.for_each([&](EdgeId e) {
    parts[static_cast<std::size_t>(part_of[static_cast<std::size_t>(e)])].insert(e);
  });
  auto par = ledger_.parallel("space-parts");
  for (int i = 0; i < partition.num_parts(); ++i) {
    if (parts[static_cast<std::size_t>(i)].empty()) continue;
    auto branch = ledger_.sequential("space-part");
    solve_relaxed(std::move(parts[static_cast<std::size_t>(i)]), child_slack,
                  lo + partition.part_begin(i), lo + partition.part_end(i), depth + 1);
  }
}

}  // namespace qplec
