#include "src/dist/process_backend.hpp"

#include <signal.h>
#include <unistd.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/dist/partition.hpp"
#include "src/graph/builder.hpp"
#include "src/net/channel.hpp"
#include "src/net/process.hpp"

namespace qplec {

namespace {

using net::BackendError;
using net::Channel;
using net::Decoder;
using net::Encoder;
using net::Frame;
using net::FrameKind;

/// Maximum payload bytes of one wire frame: larger logical messages are
/// chunked into continuation frames.  Transport shaping only; never affects
/// results.
constexpr std::int64_t kRankMsgBudget = std::int64_t{1} << 20;

// ---------------------------------------------------------------------------
// Wire shapes.  All replicated state ships once (kInstance); per-superstep
// traffic is only the owned boundary segments and scalar reductions.

/// Everything a worker rank needs to run the replicated pipeline.
struct WorkerJob {
  int rank = 0;
  int ranks = 1;
  ListEdgeColoringInstance instance;
  Policy policy;
  double slack = 1.0;
  ExecConfig config;
};

void encode_job(Encoder& enc, const WorkerJob& job) {
  enc.put_varint(static_cast<std::uint64_t>(job.rank));
  enc.put_varint(static_cast<std::uint64_t>(job.ranks));

  const Graph& g = job.instance.graph;
  enc.put_varint(static_cast<std::uint64_t>(g.num_nodes()));
  enc.put_varint(static_cast<std::uint64_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeEndpoints& ep = g.endpoints(e);
    enc.put_varint(static_cast<std::uint64_t>(ep.u));
    enc.put_varint(static_cast<std::uint64_t>(ep.v));
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) enc.put_varint(g.local_id(v));
  enc.put_varint(g.max_local_id());
  for (const ColorList& list : job.instance.lists) net::encode_color_list(enc, list);
  enc.put_signed(job.instance.palette_size);

  enc.put_string(job.policy.name);
  enc.put_signed(job.policy.base_degree_threshold);
  enc.put_signed(job.policy.beta_fixed);
  enc.put_double(job.policy.beta_alpha);
  enc.put_signed(job.policy.c_exponent);
  enc.put_signed(job.policy.beta_cap);
  enc.put_u8(job.policy.paper_p ? 1 : 0);
  enc.put_signed(job.policy.max_depth);

  enc.put_double(job.slack);

  enc.put_u8(job.config.fuse_supersteps ? 1 : 0);
  enc.put_u8(static_cast<std::uint8_t>(job.config.validation_tier));
  enc.put_u8(job.config.metrics ? 1 : 0);
}

WorkerJob decode_job(const std::vector<std::uint8_t>& payload) {
  Decoder dec(payload);
  WorkerJob job;
  job.rank = static_cast<int>(dec.get_varint());
  job.ranks = static_cast<int>(dec.get_varint());

  const int num_nodes = static_cast<int>(dec.get_varint());
  const int num_edges = static_cast<int>(dec.get_varint());
  GraphBuilder builder(num_nodes);
  for (int e = 0; e < num_edges; ++e) {
    const auto u = static_cast<NodeId>(dec.get_varint());
    const auto v = static_cast<NodeId>(dec.get_varint());
    builder.add_edge(u, v);
  }
  std::vector<std::uint64_t> ids(static_cast<std::size_t>(num_nodes));
  for (auto& id : ids) id = dec.get_varint();
  const std::uint64_t max_local_id = dec.get_varint();
  builder.set_local_ids(std::move(ids), max_local_id);
  job.instance.graph = builder.build();
  if (job.instance.graph.num_edges() != num_edges) {
    throw BackendError("instance payload: edge list was not canonical");
  }
  job.instance.lists.reserve(static_cast<std::size_t>(num_edges));
  for (int e = 0; e < num_edges; ++e) job.instance.lists.push_back(net::decode_color_list(dec));
  job.instance.palette_size = static_cast<Color>(dec.get_signed());

  job.policy.name = dec.get_string();
  job.policy.base_degree_threshold = static_cast<int>(dec.get_signed());
  job.policy.beta_fixed = static_cast<int>(dec.get_signed());
  job.policy.beta_alpha = dec.get_double();
  job.policy.c_exponent = static_cast<int>(dec.get_signed());
  job.policy.beta_cap = static_cast<int>(dec.get_signed());
  job.policy.paper_p = dec.get_u8() != 0;
  job.policy.max_depth = static_cast<int>(dec.get_signed());

  job.slack = dec.get_double();

  job.config = ExecConfig{};
  job.config.fuse_supersteps = dec.get_u8() != 0;
  job.config.validation_tier = static_cast<ValidationTier>(dec.get_u8());
  job.config.metrics = dec.get_u8() != 0;
  // Rank-local overrides: the rank IS a lane, so it runs the serial backend
  // shape (the ProcessRankBackend below), and the neighbor cache stays off —
  // its incremental rows are only maintained for edges the rank refreshes
  // itself, which under owned-only refresh is not the whole subset.  Serial
  // cached and uncached solves are bit-identical (the PR 4 differential), so
  // this changes no output.
  job.config.backend = BackendKind::kSerial;
  job.config.shards = 1;
  job.config.use_neighbor_cache = false;
  return job;
}

void encode_result(Encoder& enc, const SolveResult& res) {
  enc.put_varint(res.colors.size());
  for (const Color c : res.colors) enc.put_signed(c);
  enc.put_signed(res.rounds);
  enc.put_signed(res.raw_rounds);
  enc.put_signed(res.initial_rounds);
  enc.put_varint(res.phi_palette);
  enc.put_string(res.round_report);
  const SolverStats& s = res.stats;
  enc.put_signed(s.basecase_calls);
  enc.put_signed(s.defective_calls);
  enc.put_signed(s.space_reductions);
  enc.put_signed(s.noslack_fallbacks);
  enc.put_signed(s.virtual_instances);
  enc.put_signed(s.e2_instances);
  enc.put_signed(s.trivial_picks);
  enc.put_signed(s.classes_total);
  enc.put_signed(s.classes_nonempty);
  enc.put_signed(s.phases_executed);
  enc.put_signed(s.max_depth);
  enc.put_double(s.max_eq2_ratio);
  enc.put_double(s.max_defect_ratio);
  enc.put_signed(s.cache_flushes);
  enc.put_signed(s.cache_deltas);
  enc.put_signed(s.cache_colors_removed);
  enc.put_double(s.refresh_ms);
  enc.put_double(s.restrict_ms);
  const RoundProfile& p = s.profile;
  enc.put_signed(p.supersteps);
  enc.put_signed(p.fused_sweeps_saved);
  enc.put_signed(p.validation_walks_run);
  enc.put_signed(p.validation_walks_skipped);
  enc.put_signed(p.checkpoints);
  enc.put_double(p.pass_ms);
  enc.put_double(p.validate_ms);
  enc.put_double(p.ledger_ms);
  enc.put_double(p.barrier_ms);
}

SolveResult decode_result(const std::vector<std::uint8_t>& payload) {
  Decoder dec(payload);
  SolveResult res;
  const std::uint64_t n = dec.get_varint();
  if (n > dec.remaining()) throw net::CodecError("result color count exceeds payload");
  res.colors.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) res.colors.push_back(static_cast<Color>(dec.get_signed()));
  res.rounds = dec.get_signed();
  res.raw_rounds = dec.get_signed();
  res.initial_rounds = dec.get_signed();
  res.phi_palette = dec.get_varint();
  res.round_report = dec.get_string();
  SolverStats& s = res.stats;
  s.basecase_calls = dec.get_signed();
  s.defective_calls = dec.get_signed();
  s.space_reductions = dec.get_signed();
  s.noslack_fallbacks = dec.get_signed();
  s.virtual_instances = dec.get_signed();
  s.e2_instances = dec.get_signed();
  s.trivial_picks = dec.get_signed();
  s.classes_total = dec.get_signed();
  s.classes_nonempty = dec.get_signed();
  s.phases_executed = dec.get_signed();
  s.max_depth = static_cast<int>(dec.get_signed());
  s.max_eq2_ratio = dec.get_double();
  s.max_defect_ratio = dec.get_double();
  s.cache_flushes = dec.get_signed();
  s.cache_deltas = dec.get_signed();
  s.cache_colors_removed = dec.get_signed();
  s.refresh_ms = dec.get_double();
  s.restrict_ms = dec.get_double();
  RoundProfile& p = s.profile;
  p.supersteps = dec.get_signed();
  p.fused_sweeps_saved = dec.get_signed();
  p.validation_walks_run = dec.get_signed();
  p.validation_walks_skipped = dec.get_signed();
  p.checkpoints = dec.get_signed();
  p.pass_ms = dec.get_double();
  p.validate_ms = dec.get_double();
  p.ledger_ms = dec.get_double();
  p.barrier_ms = dec.get_double();
  return res;
}

/// FNV-1a over the DETERMINISTIC result fields (colors, rounds, ledger
/// report) — the cross-rank divergence check.  Local (not the runtime
/// layer's hash_coloring): dist must not depend on src/runtime.
std::uint64_t result_fingerprint(const SolveResult& res) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(res.colors.size());
  for (const Color c : res.colors) mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(c)));
  mix(static_cast<std::uint64_t>(res.rounds));
  mix(static_cast<std::uint64_t>(res.raw_rounds));
  mix(static_cast<std::uint64_t>(res.initial_rounds));
  mix(res.phi_palette);
  mix(res.round_report.size());
  for (const char c : res.round_report) mix(static_cast<std::uint8_t>(c));
  return h;
}

// ---------------------------------------------------------------------------
// Worker side.

/// The rank-local ExecBackend: one lane, every pass replicated in full —
/// except for_members_owned, which runs only the rank's contiguous
/// degree-balanced edge shard and exchanges the updated lists through the
/// hub, and allreduce_max, which completes reductions globally.
class ProcessRankBackend final : public ExecBackend {
 public:
  ProcessRankBackend(Channel& ch, int rank, int ranks, const Graph& g)
      : ch_(ch), rank_(rank), ranks_(ranks), partition_(g, ranks) {
    // EdgePartition clamps below the requested count on tiny graphs; ranks
    // whose shard does not exist own nothing (they still join every
    // collective — the hub counts contributions, not bytes).
    if (rank_ < partition_.num_shards()) {
      owned_begin_ = partition_.shard(rank_).edge_begin;
      owned_end_ = partition_.shard(rank_).edge_end;
    }
  }

  int lanes() const override { return 1; }

  void for_members(const EdgeSubset& s, const std::function<void(int, EdgeId)>& fn) const override {
    s.for_each([&](EdgeId e) { fn(0, e); });
  }

  void for_indices(int count, const std::function<void(int, int)>& fn) const override {
    for (int i = 0; i < count; ++i) fn(0, i);
  }

  void for_nodes(const Graph& g, const std::function<void(int, NodeId)>& fn) const override {
    for (NodeId v = 0; v < g.num_nodes(); ++v) fn(0, v);
  }

  void for_edge_ranges(int universe,
                       const std::function<void(int, EdgeId, EdgeId)>& fn) const override {
    fn(0, 0, universe);
  }

  void for_members_owned(const EdgeSubset& s, const std::function<void(int, EdgeId)>& fn,
                         std::vector<ColorList>& lists) const override {
    // Refresh only the owned members, then exchange: send our updated lists,
    // receive everyone's, apply.  Applying our own segment back is a
    // harmless idempotent rewrite and keeps the hub a pure relay.
    std::vector<EdgeId> owned;
    s.for_each([&](EdgeId e) {
      if (e >= owned_begin_ && e < owned_end_) {
        fn(0, e);
        owned.push_back(e);
      }
    });
    Encoder enc;
    net::encode_edge_ids(enc, owned);
    for (const EdgeId e : owned) net::encode_color_list(enc, lists[static_cast<std::size_t>(e)]);
    const Frame release = collective(FrameKind::kExchange, enc.take(), FrameKind::kExchangeRelease);
    Decoder dec(release.payload);
    const int universe = s.universe_size();
    for (int r = 0; r < ranks_; ++r) {
      Decoder seg = dec.get_segment();
      const std::vector<EdgeId> ids = net::decode_edge_ids(seg, universe);
      for (const EdgeId e : ids) lists[static_cast<std::size_t>(e)] = net::decode_color_list(seg);
    }
  }

  std::int64_t allreduce_max(std::int64_t v) const override {
    Encoder enc;
    enc.put_signed(v);
    const Frame release = collective(FrameKind::kReduceMax, enc.take(), FrameKind::kReduceRelease);
    Decoder dec(release.payload);
    return dec.get_signed();
  }

  /// Deterministic rank barrier (used between the solve and the result
  /// stage, and available to future owned passes).
  void barrier() const { collective(FrameKind::kBarrier, {}, FrameKind::kBarrierRelease); }

  std::uint64_t advance_epoch() const { return ++epoch_; }

 private:
  /// One collective step: epoch-stamped contribution to the hub, blocking
  /// receive of the matching release.
  Frame collective(FrameKind kind, const std::vector<std::uint8_t>& payload,
                   FrameKind release_kind) const {
    const std::uint64_t epoch = ++epoch_;
    ch_.send_message(kind, epoch, payload, kRankMsgBudget);
    Frame release = ch_.recv_message();
    if (release.kind != release_kind || release.epoch != epoch) {
      throw BackendError("rank " + std::to_string(rank_) + ": expected " +
                         net::frame_kind_name(release_kind) + " epoch " + std::to_string(epoch) +
                         ", got " + net::frame_kind_name(release.kind) + " epoch " +
                         std::to_string(release.epoch));
    }
    return release;
  }

  Channel& ch_;
  int rank_;
  int ranks_;
  EdgePartition partition_;
  EdgeId owned_begin_ = 0;
  EdgeId owned_end_ = 0;
  mutable std::uint64_t epoch_ = 0;
};

[[noreturn]] void run_rank_worker(int fd) {
  Channel ch(fd, "hub");
  try {
    ch.send_message(FrameKind::kHello, 0, {});
    const Frame job_frame = ch.recv_message();
    if (job_frame.kind != FrameKind::kInstance) {
      throw BackendError("worker expected instance, got " +
                         std::string(net::frame_kind_name(job_frame.kind)));
    }
    const WorkerJob job = decode_job(job_frame.payload);

    // Deterministic rank-death injection for the robustness tests: die
    // after the instance landed (the hub is in its event loop — mid-solve).
    if (const char* kill = std::getenv("QPLEC_NET_KILL_RANK");
        kill != nullptr && std::atoi(kill) == job.rank) {
      ::raise(SIGKILL);
    }

    const ProcessRankBackend backend(ch, job.rank, job.ranks, job.instance.graph);
    const SolveResult res =
        solve_pipeline(job.instance, job.policy, job.slack, &backend, job.config, nullptr);
    backend.barrier();

    Encoder enc;
    if (job.rank == 0) {
      encode_result(enc, res);
      ch.send_message(FrameKind::kResult, backend.advance_epoch(), enc.take(), kRankMsgBudget);
    } else {
      enc.put_u64(result_fingerprint(res));
      ch.send_message(FrameKind::kResultHash, backend.advance_epoch(), enc.take());
    }
    const Frame fin = ch.recv_message();
    if (fin.kind != FrameKind::kShutdown) {
      throw BackendError("worker expected shutdown, got " +
                         std::string(net::frame_kind_name(fin.kind)));
    }
    std::_Exit(0);
  } catch (const std::exception& e) {
    // Best effort: ship the failure to the hub (it resolves the solve as
    // kBackendFailure with this text); a dead hub just means EPIPE here.
    try {
      Encoder enc;
      enc.put_string(e.what());
      ch.send_message(FrameKind::kError, 0, enc.take());
    } catch (...) {
    }
    std::_Exit(1);
  }
}

// ---------------------------------------------------------------------------
// Hub side.

/// Reassembly slot of one rank's in-flight chunked message.
struct PartialMessage {
  bool active = false;
  FrameKind kind{};
  std::uint64_t epoch = 0;
  std::vector<std::uint8_t> payload;
};

int clamp_ranks(int ranks, int num_edges) {
  const int cap = num_edges > 1 ? num_edges : 1;
  if (ranks < 1) return 1;
  return ranks < cap ? ranks : cap;
}

}  // namespace

void process_worker_guard(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const int fd = net::parse_rank_worker_flag(argv[i]);
    if (fd >= 0) run_rank_worker(fd);
  }
}

SolveResult process_solve(const ListEdgeColoringInstance& instance, const Policy& policy,
                          double slack, const ExecConfig& config, const SolveControl* control) {
  const int ranks = clamp_ranks(config.ranks, instance.graph.num_edges());
  net::RankGroup group;
  group.spawn(ranks);

  // Per-rank job payloads, built up front (the only field that differs is
  // the rank index).
  std::vector<std::vector<std::uint8_t>> job_bytes(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    WorkerJob job;
    job.rank = r;
    job.ranks = ranks;
    job.instance = instance;
    job.policy = policy;
    job.slack = slack;
    job.config = config;
    Encoder enc;
    encode_job(enc, job);
    job_bytes[static_cast<std::size_t>(r)] = enc.take();
  }

  std::vector<PartialMessage> partial(static_cast<std::size_t>(ranks));

  // Collective state: one outstanding collective at a time (every rank
  // blocks in recv after contributing, so a second one cannot start).
  int contributed = 0;
  FrameKind collective_kind{};
  std::uint64_t collective_epoch = 0;
  std::vector<std::vector<std::uint8_t>> contrib(static_cast<std::size_t>(ranks));
  std::vector<std::uint8_t> has_contrib(static_cast<std::size_t>(ranks), 0);

  // Result stage: rank 0's full result + everyone else's fingerprints.
  int resulted = 0;
  std::uint64_t result_epoch = 0;
  bool have_result = false;
  SolveResult result;
  std::vector<std::uint64_t> hashes(static_cast<std::size_t>(ranks), 0);
  std::vector<std::uint8_t> has_hash(static_cast<std::size_t>(ranks), 0);

  const auto divergence = [](int rank, const char* what) -> BackendError {
    return BackendError("cross-rank divergence: rank " + std::to_string(rank) + " " + what);
  };

  while (resulted < ranks) {
    // Cancellation/deadline at hub-poll granularity (the workers run
    // uncontrolled; killing them is how the hub cancels).  group's
    // destructor kills + reaps on unwind.
    if (control != nullptr) {
      if (control->cancel.load(std::memory_order_relaxed)) {
        throw SolveInterrupted(SolveInterrupted::Reason::kCancelled);
      }
      if (control->has_deadline && std::chrono::steady_clock::now() >= control->deadline) {
        throw SolveInterrupted(SolveInterrupted::Reason::kDeadlineExceeded);
      }
    }
    for (const int r : group.poll_readable(50)) {
      // Any read failure here (EOF from a killed rank, ECONNRESET) throws
      // BackendError through the caller — never a hang.
      const Frame frame = group.channel(r).recv_frame();
      PartialMessage& p = partial[static_cast<std::size_t>(r)];
      if (p.active) {
        if (frame.kind != p.kind || frame.epoch != p.epoch) {
          throw divergence(r, "interleaved an unrelated frame into a chunked message");
        }
        p.payload.insert(p.payload.end(), frame.payload.begin(), frame.payload.end());
      } else {
        p.active = true;
        p.kind = frame.kind;
        p.epoch = frame.epoch;
        p.payload = frame.payload;
      }
      if (frame.flags & net::kFlagMore) continue;
      p.active = false;
      const std::vector<std::uint8_t> payload = std::move(p.payload);
      p.payload = {};

      switch (p.kind) {
        case FrameKind::kHello:
          group.channel(r).send_message(FrameKind::kInstance, 0,
                                        job_bytes[static_cast<std::size_t>(r)], kRankMsgBudget);
          break;

        case FrameKind::kError: {
          Decoder dec(payload);
          throw BackendError("rank " + std::to_string(r) + " failed: " + dec.get_string());
        }

        case FrameKind::kExchange:
        case FrameKind::kReduceMax:
        case FrameKind::kBarrier: {
          if (resulted > 0) throw divergence(r, "joined a collective after results began");
          if (contributed == 0) {
            collective_kind = p.kind;
            collective_epoch = p.epoch;
          } else if (p.kind != collective_kind || p.epoch != collective_epoch) {
            throw divergence(r, "contributed a mismatched collective kind/epoch");
          }
          if (has_contrib[static_cast<std::size_t>(r)]) {
            throw divergence(r, "contributed twice to one collective");
          }
          has_contrib[static_cast<std::size_t>(r)] = 1;
          contrib[static_cast<std::size_t>(r)] = payload;
          if (++contributed < ranks) break;

          // Everyone contributed: combine and release.
          Encoder release;
          FrameKind release_kind;
          if (collective_kind == FrameKind::kExchange) {
            release_kind = FrameKind::kExchangeRelease;
            for (int s = 0; s < ranks; ++s) {
              const auto& seg = contrib[static_cast<std::size_t>(s)];
              release.put_varint(seg.size());
              release.put_bytes(seg.data(), seg.size());
            }
          } else if (collective_kind == FrameKind::kReduceMax) {
            release_kind = FrameKind::kReduceRelease;
            std::int64_t global = 0;
            for (int s = 0; s < ranks; ++s) {
              Decoder dec(contrib[static_cast<std::size_t>(s)]);
              const std::int64_t v = dec.get_signed();
              if (s == 0 || v > global) global = v;
            }
            release.put_signed(global);
          } else {
            release_kind = FrameKind::kBarrierRelease;
          }
          const std::vector<std::uint8_t> release_bytes = release.take();
          for (int s = 0; s < ranks; ++s) {
            group.channel(s).send_message(release_kind, collective_epoch, release_bytes,
                                          kRankMsgBudget);
            contrib[static_cast<std::size_t>(s)] = {};
            has_contrib[static_cast<std::size_t>(s)] = 0;
          }
          contributed = 0;
          break;
        }

        case FrameKind::kResult:
        case FrameKind::kResultHash: {
          if (contributed > 0) throw divergence(r, "sent a result during an open collective");
          if ((p.kind == FrameKind::kResult) != (r == 0)) {
            throw divergence(r, "sent the wrong result kind for its rank");
          }
          if (resulted == 0) {
            result_epoch = p.epoch;
          } else if (p.epoch != result_epoch) {
            throw divergence(r, "reached the result stage at a different epoch");
          }
          if (p.kind == FrameKind::kResult) {
            if (have_result) throw divergence(r, "sent its result twice");
            result = decode_result(payload);
            have_result = true;
          } else {
            if (has_hash[static_cast<std::size_t>(r)]) {
              throw divergence(r, "sent its result hash twice");
            }
            Decoder dec(payload);
            hashes[static_cast<std::size_t>(r)] = dec.get_u64();
            has_hash[static_cast<std::size_t>(r)] = 1;
          }
          ++resulted;
          break;
        }

        default:
          throw divergence(r, "sent a frame kind only the hub may send");
      }
    }
  }

  // Cross-rank fingerprint check: every rank must have computed the result
  // rank 0 shipped.
  const std::uint64_t expected = result_fingerprint(result);
  for (int r = 1; r < ranks; ++r) {
    if (hashes[static_cast<std::size_t>(r)] != expected) {
      throw BackendError("cross-rank fingerprint divergence: rank " + std::to_string(r) +
                         " solved a different result than rank 0");
    }
  }

  // Orderly shutdown; reap so no zombies outlive the solve.
  for (int r = 0; r < ranks; ++r) {
    group.channel(r).send_message(FrameKind::kShutdown, result_epoch + 1, {});
  }
  group.reap_all();
  return result;
}

}  // namespace qplec
