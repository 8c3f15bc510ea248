#include "core/workspace.hpp"

namespace saer {

void EngineWorkspace::ensure(NodeId n_servers, std::uint64_t total_balls,
                             bool wide_recv_total) {
  if (round_recv.size() < n_servers) {
    round_recv.resize(n_servers, 0);
    accepted.resize(n_servers, 0);
    flags.resize(n_servers, 0);
  }
  if (wide_recv_total) {
    if (recv_total64.size() < n_servers) recv_total64.resize(n_servers, 0);
  } else {
    if (recv_total32.size() < n_servers) recv_total32.resize(n_servers, 0);
  }
  if (target.size() < total_balls) target.resize(total_balls);
  alive.clear();
  next_alive.clear();
  next_alive.reserve(total_balls);
}

void EngineWorkspace::prepare_round(const ScatterLayout& layout) {
  scatter.prepare(layout);
  if (touched_blocks.size() < layout.n_blocks)
    touched_blocks.resize(layout.n_blocks);
  if (dirty_blocks.size() < layout.n_blocks)
    dirty_blocks.resize(layout.n_blocks);
  if (block_stats.size() < layout.n_blocks) block_stats.resize(layout.n_blocks);
  if (alive_chunks.size() < layout.n_chunks)
    alive_chunks.resize(layout.n_chunks);
}

ThreadTeam* EngineWorkspace::team(int threads) {
  if (threads <= 1) return nullptr;
  const auto want = static_cast<unsigned>(threads);
  if (team_ && team_->size() != want) team_.reset();
  if (!team_) {
    team_ = std::make_unique<ThreadTeam>(want, ThreadTeam::pin_requested());
  }
  return team_.get();
}

std::unique_ptr<EngineWorkspace> WorkspacePool::acquire() {
  {
    std::lock_guard lock(mutex_);
    if (!free_.empty()) {
      std::unique_ptr<EngineWorkspace> workspace = std::move(free_.back());
      free_.pop_back();
      return workspace;
    }
  }
  return std::make_unique<EngineWorkspace>();
}

void WorkspacePool::release(std::unique_ptr<EngineWorkspace> workspace) {
  if (!workspace) return;
  std::lock_guard lock(mutex_);
  free_.push_back(std::move(workspace));
}

}  // namespace saer
