// ProcessBackend — the paper's LOCAL model run on real OS processes.
//
// process_solve forks ExecConfig::ranks worker processes (src/net/RankGroup:
// socketpair + re-exec of /proc/self/exe) and solves one instance on them.
// The execution model is *replicated deterministic control flow*: every rank
// receives the full instance and runs the complete solve pipeline, so all
// rank-local state (phi, subsets, recursion, ledger) evolves identically on
// every rank without any communication — the solver is deterministic and the
// validation gates draw on the serial control flow.  Only the round-head
// refresh pass (the hot neighbor-scan) is actually distributed: each rank
// runs it on the contiguous degree-balanced edge shard it owns
// (EdgePartition, the same partition the threaded backend shards by) and the
// updated working lists of owned edges are exchanged through the hub at the
// superstep barrier (ExecBackend::for_members_owned), with one allreduce_max
// completing the round head's degree reduction.  The parent process is a pure
// message hub: it relays collectives, watches for rank death (EOF ->
// BackendError, never a hang), and polls the SolveControl so cancellation
// and deadlines keep working.
//
// Invariant: colors, rounds, ledger report and stats are bit-identical to
// SerialBackend at any rank count (tests/test_process_backend.cpp pins ranks
// {1, 2, 7}); ranks > 0 send back a result fingerprint and the hub rejects
// any divergence.  on_round progress callbacks are NOT invoked on this
// backend (the ledger lives in the workers); cancel/deadline are honored at
// hub-poll granularity.
#pragma once

#include "src/common/exec_config.hpp"
#include "src/core/solver.hpp"

namespace qplec {

/// Solves `instance` on ExecConfig::ranks forked worker processes.  Blocking;
/// returns rank 0's (validated, fingerprint-cross-checked) result.  Throws
/// net::BackendError on rank death, socket failure, protocol divergence or
/// spawn failure; SolveInterrupted on cancel/deadline.  slack == 1.0 runs
/// the plain (deg+1)-list pipeline, > 1.0 the relaxed one (mirrors
/// Solver::solve vs solve_relaxed).
SolveResult process_solve(const ListEdgeColoringInstance& instance, const Policy& policy,
                          double slack, const ExecConfig& config, const SolveControl* control);

/// Worker-process entry hook.  Every binary that may act as a process-backend
/// host calls this FIRST in main(): when argv carries the hidden
/// `--rank-worker=<fd>` flag (set by RankGroup::spawn's re-exec), the process
/// runs the rank-worker protocol loop on that fd and _exits — it never
/// returns to the caller's main.  Without the flag this is a no-op.
///
/// Test hook: if the environment variable QPLEC_NET_KILL_RANK names this
/// worker's rank, the worker SIGKILLs itself after receiving the instance
/// (deterministic mid-solve rank death for the robustness tests).
void process_worker_guard(int argc, char** argv);

}  // namespace qplec
