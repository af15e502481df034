#include "src/coloring/distributed.hpp"

#include <algorithm>
#include <memory>

#include "src/coloring/linial.hpp"
#include "src/coloring/validate.hpp"
#include "src/common/field.hpp"

namespace qplec {
namespace {

/// One instance per node.  Phases, by engine round:
///   round 0 (init): broadcast my id.
///   round 1: learn neighbor ids; derive the initial edge colors
///            phi0(e) = min_id*(B+1)+max_id; broadcast my edges' colors.
///   rounds 2..1+L: Linial iterations.  Every node recomputes each incident
///            edge's color from the edge's full conflict neighborhood (my
///            other edges + the neighbor's other edges, from its broadcast);
///            both endpoints run the same deterministic rule, so they agree
///            without extra coordination.
///   rounds 2+L..1+L+m*: greedy sweep.  In class-t's round, the (at most
///            one) incident edge of class t picks the smallest list color
///            not finalized in its neighborhood.  The forbidden sets build
///            incrementally: sweep broadcasts carry only the (phi, color)
///            pairs finalized THAT round (phi identifies the shared edge,
///            which each endpoint skips — it colors it itself), and every
///            port accumulates the deltas it receives plus the local picks
///            of its sibling ports, so no round rescans the full
///            neighborhood state.  The resulting picks are identical to the
///            full-rescan schedule: a port's accumulator holds exactly the
///            finalized conflicting colors by the time its class is swept.
/// The whole schedule (palette sequence, L, m*) is a deterministic function
/// of public knowledge (id bound B and Delta), so all nodes agree on it.
class GreedyByClassProgram final : public NodeProgram {
 public:
  GreedyByClassProgram(std::uint64_t id_bound, int degree_bound,
                       std::vector<ColorList> my_lists, std::vector<Color>* out_row)
      : id_bound_(id_bound),
        degree_bound_(degree_bound),
        lists_(std::move(my_lists)),
        out_row_(out_row) {}

  void init(NodeContext& ctx) override {
    if (ctx.degree() == 0) {
      ctx.finish();
      return;
    }
    // Public schedule: palette sequence of the Linial reduction.
    std::uint64_t palette = (id_bound_ + 1) * (id_bound_ + 1);
    while (true) {
      const LinialParams params = choose_linial_params(palette, degree_bound_);
      if (params.q == 0) break;
      schedule_.push_back(params);
      palette = static_cast<std::uint64_t>(params.q) * params.q;
    }
    sweep_palette_ = palette;
    ctx.broadcast(Message{{ctx.my_id()}});
  }

  void round(NodeContext& ctx) override {
    const int deg = ctx.degree();
    if (ctx.round() == 1) {
      nbr_id_.resize(static_cast<std::size_t>(deg));
      for (int p = 0; p < deg; ++p) {
        nbr_id_[static_cast<std::size_t>(p)] = ctx.received(p)->words.at(0);
      }
      phi_.resize(static_cast<std::size_t>(deg));
      const std::uint64_t base = id_bound_ + 1;
      for (int p = 0; p < deg; ++p) {
        const std::uint64_t a = std::min(ctx.my_id(), nbr_id_[static_cast<std::size_t>(p)]);
        const std::uint64_t b = std::max(ctx.my_id(), nbr_id_[static_cast<std::size_t>(p)]);
        phi_[static_cast<std::size_t>(p)] = a * base + b;
      }
      final_.assign(static_cast<std::size_t>(deg), kUncolored);
      forbidden_acc_.assign(static_cast<std::size_t>(deg), {});
      broadcast_colors(ctx);
      return;
    }

    const int linial_end = 1 + static_cast<int>(schedule_.size());
    if (ctx.round() <= linial_end) {
      linial_iteration(ctx, schedule_[static_cast<std::size_t>(ctx.round() - 2)]);
      if (sweep_palette_ == 0) {
        emit_and_finish(ctx);
        return;
      }
      broadcast_colors(ctx);
      return;
    }

    // Sweep phase: class index for this round.
    const std::uint64_t cls = static_cast<std::uint64_t>(ctx.round() - linial_end - 1);
    ingest_sweep_deltas(ctx);
    sweep_class(ctx, cls);
    if (cls + 1 >= sweep_palette_) {
      emit_and_finish(ctx);
      return;
    }
    broadcast_sweep_deltas(ctx);
  }

 private:
  /// Broadcast (phi, final+1) pairs for all my edges, port-ordered.
  void broadcast_colors(NodeContext& ctx) {
    Message m;
    m.words.reserve(static_cast<std::size_t>(2 * ctx.degree()));
    for (int p = 0; p < ctx.degree(); ++p) {
      m.words.push_back(phi_[static_cast<std::size_t>(p)]);
      m.words.push_back(
          static_cast<std::uint64_t>(final_[static_cast<std::size_t>(p)] + 1));
    }
    ctx.broadcast(m);
  }

  /// Colors of the other endpoint's OTHER edges (excluding the shared edge,
  /// identified by its phi value — unique within the neighbor because the
  /// coloring is proper there).
  template <typename Fn>
  void for_each_remote_neighbor(NodeContext& ctx, int port, Fn&& fn) const {
    const Message* m = ctx.received(port);
    QPLEC_ASSERT(m != nullptr);
    const std::uint64_t my_phi = phi_[static_cast<std::size_t>(port)];
    bool excluded = false;
    for (std::size_t i = 0; i + 1 < m->words.size(); i += 2) {
      if (!excluded && m->words[i] == my_phi) {
        excluded = true;
        continue;
      }
      fn(m->words[i], static_cast<Color>(m->words[i + 1]) - 1);
    }
    QPLEC_ASSERT_MSG(excluded, "shared edge missing from neighbor broadcast");
  }

  /// One table per round: slots [0, deg) hold my edges' colors, then each
  /// port's remote neighbors follow in port order.  Each edge then runs the
  /// same first_good_point rule as linial_step over its conflict
  /// neighborhood: my other edges + the remote endpoint's others.  phi_ is
  /// updated in place; the table already holds this round's inputs.
  void linial_iteration(NodeContext& ctx, LinialParams params) {
    const int deg = ctx.degree();
    std::vector<std::uint64_t> values(phi_);
    std::vector<std::uint32_t> remote_begin(static_cast<std::size_t>(deg) + 1,
                                            static_cast<std::uint32_t>(deg));
    for (int p = 0; p < deg; ++p) {
      for_each_remote_neighbor(ctx, p, [&](std::uint64_t c, Color) { values.push_back(c); });
      remote_begin[static_cast<std::size_t>(p) + 1] = static_cast<std::uint32_t>(values.size());
    }
    PolyTable table(params.q, params.k, values.size());
    for (std::size_t s = 0; s < values.size(); ++s) table.set_value(s, values[s]);
    std::vector<std::uint32_t> nbr_slots;
    for (int p = 0; p < deg; ++p) {
      nbr_slots.clear();
      for (int p2 = 0; p2 < deg; ++p2) {
        if (p2 != p) nbr_slots.push_back(static_cast<std::uint32_t>(p2));
      }
      for (std::uint32_t r = remote_begin[static_cast<std::size_t>(p)];
           r < remote_begin[static_cast<std::size_t>(p) + 1]; ++r) {
        nbr_slots.push_back(r);
      }
      const std::uint64_t c = table.first_good_point(static_cast<std::size_t>(p), nbr_slots);
      QPLEC_ASSERT_MSG(c != PolyTable::kNoGoodPoint, "distributed Linial found no good point");
      phi_[static_cast<std::size_t>(p)] = c;
    }
  }

  /// Folds the (phi, color) pairs broadcast last round into the forbidden
  /// accumulators of the still-uncolored ports.  The first sweep round
  /// receives the Linial phase's full snapshot instead — every entry still
  /// uncolored, so the same decode ignores it.  The shared edge's own entry
  /// (phi match) is skipped: its color is committed locally by both ends.
  void ingest_sweep_deltas(NodeContext& ctx) {
    for (int p = 0; p < ctx.degree(); ++p) {
      if (final_[static_cast<std::size_t>(p)] != kUncolored) continue;
      const Message* m = ctx.received(p);
      if (m == nullptr) continue;
      for (std::size_t i = 0; i + 1 < m->words.size(); i += 2) {
        const Color c = static_cast<Color>(m->words[i + 1]) - 1;
        if (c == kUncolored) continue;
        if (m->words[i] == phi_[static_cast<std::size_t>(p)]) continue;
        forbidden_acc_[static_cast<std::size_t>(p)].push_back(c);
      }
    }
  }

  void sweep_class(NodeContext& ctx, std::uint64_t cls) {
    newly_.clear();
    for (int p = 0; p < ctx.degree(); ++p) {
      if (final_[static_cast<std::size_t>(p)] != kUncolored) continue;
      if (phi_[static_cast<std::size_t>(p)] != cls) continue;
      // The accumulator holds exactly the finalized conflicting colors: the
      // remote ones arrived as deltas, the local sibling picks were appended
      // at commit time below.
      std::vector<Color>& forbidden = forbidden_acc_[static_cast<std::size_t>(p)];
      std::sort(forbidden.begin(), forbidden.end());
      const Color pick = lists_[static_cast<std::size_t>(p)].min_excluding(forbidden);
      QPLEC_ASSERT_MSG(pick != kUncolored, "distributed sweep ran out of colors");
      final_[static_cast<std::size_t>(p)] = pick;
      newly_.push_back(p);
      for (int p2 = 0; p2 < ctx.degree(); ++p2) {
        if (p2 != p && final_[static_cast<std::size_t>(p2)] == kUncolored) {
          forbidden_acc_[static_cast<std::size_t>(p2)].push_back(pick);
        }
      }
    }
  }

  /// Broadcast only this round's newly finalized (phi, color) pairs.
  void broadcast_sweep_deltas(NodeContext& ctx) {
    Message m;
    m.words.reserve(2 * newly_.size());
    for (const int p : newly_) {
      m.words.push_back(phi_[static_cast<std::size_t>(p)]);
      m.words.push_back(
          static_cast<std::uint64_t>(final_[static_cast<std::size_t>(p)] + 1));
    }
    ctx.broadcast(m);
  }

  void emit_and_finish(NodeContext& ctx) {
    *out_row_ = final_;
    ctx.finish();
  }

  std::uint64_t id_bound_;
  int degree_bound_;
  std::vector<ColorList> lists_;  // my incident edges' lists, port order
  std::vector<Color>* out_row_;

  std::vector<LinialParams> schedule_;
  std::uint64_t sweep_palette_ = 0;
  std::vector<std::uint64_t> nbr_id_;
  std::vector<std::uint64_t> phi_;
  std::vector<Color> final_;
  std::vector<std::vector<Color>> forbidden_acc_;  // per port, delta-fed
  std::vector<int> newly_;  // ports finalized this round (delta broadcast)
};

}  // namespace

DistributedRunResult run_distributed_greedy_by_class(
    const ListEdgeColoringInstance& instance, std::uint64_t id_bound) {
  const Graph& g = instance.graph;
  QPLEC_REQUIRE(id_bound >= g.max_local_id());
  validate_instance(instance);

  DistributedRunResult out;
  out.colors.assign(static_cast<std::size_t>(g.num_edges()), kUncolored);
  if (g.num_edges() == 0) return out;

  const int degree_bound = std::max(0, 2 * g.max_degree() - 2);
  std::vector<std::vector<Color>> rows(static_cast<std::size_t>(g.num_nodes()));
  Engine engine(g);
  out.stats = engine.run(
      [&](NodeId v) {
        std::vector<ColorList> my_lists;
        for (const Incidence& inc : g.incident(v)) {
          my_lists.push_back(instance.lists[static_cast<std::size_t>(inc.edge)]);
        }
        return std::make_unique<GreedyByClassProgram>(
            id_bound, degree_bound, std::move(my_lists),
            &rows[static_cast<std::size_t>(v)]);
      },
      /*max_rounds=*/1 << 26);

  // Decode: both endpoints must have written the same color for each edge.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto inc = g.incident(v);
    QPLEC_ASSERT(rows[static_cast<std::size_t>(v)].size() == inc.size());
    for (std::size_t p = 0; p < inc.size(); ++p) {
      const EdgeId e = inc[p].edge;
      const Color c = rows[static_cast<std::size_t>(v)][p];
      auto& slot = out.colors[static_cast<std::size_t>(e)];
      if (slot == kUncolored) {
        slot = c;
      } else {
        QPLEC_ASSERT_MSG(slot == c, "endpoints disagree on edge " << e);
      }
    }
  }

  // Reconstruct phase lengths for reporting (same public schedule).
  std::uint64_t palette = (id_bound + 1) * (id_bound + 1);
  while (true) {
    const LinialParams params = choose_linial_params(palette, degree_bound);
    if (params.q == 0) break;
    ++out.linial_rounds;
    palette = static_cast<std::uint64_t>(params.q) * params.q;
  }
  out.sweep_palette = palette;

  expect_valid_solution(instance, out.colors);
  return out;
}

}  // namespace qplec
