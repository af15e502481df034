// The four seeded workloads of the end-to-end benchmark.
//
// Each workload is a closed loop of one client against a SolveService with
// workers = 1 and shards = 1: the next request is submitted only after the
// previous outcome arrived.  Every input is generated in set-up from the
// workload seed; the service only ever sees the generated inputs.
//
//   stressor-regular  prebuilt (2*Delta-1)-list instances on random
//                     16-regular graphs, n = 25,600, m = 204,800, scrambled
//                     ids.  Linial and the defective-split / base-case
//                     engine do almost all the work.
//   relaxed-slack     prebuilt slack instances (S = space_cost(2) + 1 = 51,
//                     ~1,500 colors per list) on random 16-regular graphs,
//                     n = 2,000, solved with .relaxed(S).  The only workload
//                     that runs the Lemma 4.3 color-space reduction.
//   ingest-dimacs     DIMACS files of random 3-regular graphs (n = 60,000)
//                     written in set-up and submitted by path with an id
//                     scramble, exactly like cli_solve.  The only workload
//                     with parsing, scrambling and instance construction on
//                     the request path.
//   churn-stream      a base solve (16-regular, m = 102,400) in set-up, then
//                     SolveService::update calls with fresh random 4-op
//                     batches; every fourth request repeats a recent batch,
//                     so it is a result-cache read.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/coloring/problem.hpp"
#include "src/service/churn.hpp"
#include "src/service/solve_service.hpp"

namespace qplec::e2e {

class Tracer;

enum class WorkloadKind { kStressorRegular, kRelaxedSlack, kIngestDimacs, kChurnStream };

std::optional<WorkloadKind> parse_workload(std::string_view name);
const char* workload_name(WorkloadKind kind);

/// The golden triple of one Ok outcome.
struct Fingerprint {
  std::uint64_t colors_hash = 0;
  std::int64_t rounds = 0;
  std::int64_t raw_rounds = 0;

  bool operator==(const Fingerprint&) const = default;
};

/// Request i of a workload's deterministic sequence.  `input` is the prebuilt
/// instance or file (solve workloads) or the churn batch (churn-stream);
/// requests with the same input must produce the same fingerprint.
struct RequestSpec {
  int index = 0;
  int input = 0;
  bool repeat = false;  ///< churn-stream: repeats an earlier batch (a cache read)
};

/// Per-request layer figures of one traced replay, read from the public
/// result structs (the span times live in the Tracer).
struct ReplayCounts {
  int linial_rounds = 0;
  std::int64_t space_reductions = 0;
  std::int64_t defective_calls = 0;
  std::int64_t basecase_calls = 0;
  int max_depth = 0;
  int region_edges = 0;
  bool fallback = false;
};

/// One workload's generated inputs and the service that serves them.  The
/// constructor is the benchmark's set-up; the destructor removes any files
/// it wrote.
class Workload {
 public:
  Workload(WorkloadKind kind, std::uint64_t seed, std::string workdir);
  ~Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  WorkloadKind kind() const { return kind_; }
  SolveService& service() { return *service_; }

  /// Upper bound on the requests one run may send (the pre-generated churn
  /// batches run out there; solve workloads cycle their inputs forever).
  int max_requests() const;
  /// Requests per cycle of the sequence: every input once (solve workloads),
  /// or three fresh batches and one repeat (churn-stream).  A run sends whole
  /// cycles, so each run checks and fingerprints every input.
  int cycle() const;
  RequestSpec spec(int index) const;

  /// Everything request `spec` needs, made outside the timed interval (the
  /// instance copy a from_instance request moves into the service).
  SolveRequest prepare(const RequestSpec& spec) const;
  /// The timed call: submit (solve workloads) or update (churn-stream).
  SolveTicket send(const RequestSpec& spec, SolveRequest prepared);

  /// Instance edges of the request's input (edges_per_s).
  int input_edges(const RequestSpec& spec) const;

  /// Re-validates an Ok outcome against the instance the request describes
  /// (is_valid_list_coloring); false with *why on a wrong coloring.
  bool check(const RequestSpec& spec, const SolveOutcome& outcome, std::string* why) const;

  /// Replays the request through the layers' public functions with one span
  /// per call, the way the service's solve pipeline runs them; returns the
  /// fingerprint the replay produced.
  Fingerprint replay(const RequestSpec& spec, Tracer& tracer, ReplayCounts& counts) const;

 private:
  ListEdgeColoringInstance churn_mutated(const RequestSpec& spec) const;

  WorkloadKind kind_;
  std::uint64_t seed_;
  std::string workdir_;
  ExecConfig config_;
  double slack_ = 1.0;
  std::vector<ListEdgeColoringInstance> instances_;  ///< prebuilt, or what each file builds to
  std::vector<std::string> files_;                  ///< ingest-dimacs inputs
  ChurnSnapshot base_;                              ///< churn-stream base solve
  std::uint64_t base_fingerprint_ = 0;
  std::vector<ChurnBatch> batches_;                 ///< churn-stream fresh batches
  std::unique_ptr<SolveService> service_;
};

/// The service configuration of every workload: one worker, one shard,
/// otherwise the build's ExecConfig defaults.
ExecConfig benchmark_config();

/// Writes `g` as a DIMACS file ("p edge n m", 1-based "e u v" lines).
void write_dimacs(const Graph& g, const std::string& path);

/// The id space a file request scrambles into: n^2, as the service's file
/// path does (unclamped, unlike build_instance's 2^31 clamp).
std::uint64_t file_id_space(int num_nodes);

}  // namespace qplec::e2e
