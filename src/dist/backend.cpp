#include "src/dist/backend.hpp"

namespace qplec {

ExecBackend::ExecBackend(const Graph& g, int shards, ThreadPool& pool) {
  shard(g, shards, pool);
}

ExecBackend::ExecBackend(const Graph& g, const ExecConfig& config) {
  if (config.effective_shards(g.num_edges()) <= 1) return;
  ThreadPool* pool = config.shared_pool;
  if (pool == nullptr) {
    owned_pool_ = std::make_unique<ThreadPool>(config.pool_threads());
    pool = owned_pool_.get();
  }
  shard(g, config.shards, *pool);
}

// The edge partition clamps shards to the edge count, so more than one lane
// needs at least two edges.  The node partition is capped at the edge-shard
// count so a for_nodes lane index always fits slots sized by lanes() (on a
// tree the edge universe clamps to n-1 shards while the node universe could
// take n).
void ExecBackend::shard(const Graph& g, int shards, ThreadPool& pool) {
  if (shards <= 1 || g.num_edges() <= 1) return;
  g_ = &g;
  edges_.emplace(g, shards);
  nodes_.emplace(g, edges_->num_shards());
  pool_ = &pool;
}

const ExecBackend& exec_or_inline(const ExecBackend* exec) {
  static const ExecBackend inline_exec;
  return exec != nullptr ? *exec : inline_exec;
}

}  // namespace qplec
