#include "core/dynamic.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/parallel.hpp"

namespace saer {

namespace {
/// Separate stream namespace for server-failure coin flips so they never
/// collide with ball streams (balls use stream = ball id < n*d).
constexpr std::uint64_t kFailureStreamBase = 0x8000'0000'0000'0000ULL;

/// Alive balls below which a step skips the intra-run team (same policy as
/// the batch engine's kIntraRunMinBalls; scheduling-only, results are
/// bit-identical either way).
constexpr std::size_t kTeamMinBalls = std::size_t{1} << 15;

/// Implicit-mode Phase-1 sampler: the batch engine's ImplicitCursor
/// (core/scatter.hpp), loaded once per run of consecutive same-client
/// balls.  scatter_count copies the sampler per chunk, so the cursor is
/// chunk-private by construction.
struct ImplicitStepSampler {
  ImplicitCursor cursor;
  const BallId* alive;
  const CounterRng* rng;
  FastDiv32 by_d;
  std::uint32_t round;
  NodeId cached_v = kUnassigned;

  const NodeId* operator()(std::size_t i) {
    const BallId b = alive[i];
    const auto v = static_cast<NodeId>(by_d.quotient(b));
    if (v != cached_v) {
      cached_v = v;
      cursor.load(v);
    }
    return cursor.addr(i, rng->bounded(b, round, cursor.deg));
  }
};
}  // namespace

DynamicEngine::DynamicEngine(const BipartiteGraph& graph,
                             const DynamicParams& params)
    : graph_(&graph),
      n_clients_(graph.num_clients()),
      n_servers_(graph.num_servers()),
      params_(params),
      rng_(params.base.seed),
      by_d_(params.base.d),
      latency_us_(params.latency_bucket_us) {
  init();
}

DynamicEngine::DynamicEngine(const ImplicitRegularTopology& topology,
                             const DynamicParams& params)
    : topo_(topology),
      n_clients_(topology.num_clients()),
      n_servers_(topology.num_servers()),
      params_(params),
      rng_(params.base.seed),
      by_d_(params.base.d),
      latency_us_(params.latency_bucket_us) {
  init();
}

void DynamicEngine::init() {
  params_.base.validate();
  if (params_.server_failure_rate < 0.0 || params_.server_failure_rate >= 1.0)
    throw std::invalid_argument("run_dynamic: failure rate outside [0,1)");

  cap_ = params_.base.capacity();

  // Stored graphs can contain isolated clients; implicit topologies have
  // degree() >= 1 for every client by construction, so only the stored
  // mode pays the O(n) audit.
  if (graph_ != nullptr) {
    for (NodeId v = 0; v < n_clients_; ++v) {
      if (graph_->client_degree(v) == 0)
        throw std::invalid_argument(
            "run_dynamic: client has no admissible server");
    }
  }

  const std::uint64_t total_balls =
      static_cast<std::uint64_t>(n_clients_) * params_.base.d;
  alive_.reserve(total_balls);
  next_alive_.reserve(total_balls);
  target_.resize(total_balls);
  activation_round_.resize(total_balls);
  stamp_us_.resize(n_clients_, 0);

  round_recv_.assign(n_servers_, 0);
  recv_total_.assign(n_servers_, 0);
  accepted_.assign(n_servers_, 0);
  burned_.assign(n_servers_, 0);
  failed_.assign(n_servers_, 0);
  accept_flag_.assign(n_servers_, 0);
}

NodeId DynamicEngine::num_clients() const noexcept {
  return n_clients_;
}

bool DynamicEngine::drained() const noexcept {
  return alive_.empty() && pending_total_ == 0;
}

bool DynamicEngine::exhausted() const noexcept {
  return drained() && next_client_ == n_clients_;
}

NodeId DynamicEngine::inject(NodeId count, std::uint64_t stamp_us) {
  const NodeId remaining = n_clients_ - next_client_ - pending_total_;
  count = std::min(count, remaining);
  if (count == 0) return 0;
  pending_.push_back({count, stamp_us});
  pending_total_ += count;
  return count;
}

void DynamicEngine::activate_pending() {
  const std::uint32_t d = params_.base.d;
  activated_this_step_ = 0;
  while (!pending_.empty()) {
    const PendingBatch batch = pending_.front();
    pending_.pop_front();
    const NodeId cohort_end = next_client_ + batch.count;
    for (; next_client_ < cohort_end; ++next_client_) {
      stamp_us_[next_client_] = batch.stamp_us;
      for (std::uint32_t i = 0; i < d; ++i) {
        const BallId b = static_cast<BallId>(next_client_) * d + i;
        alive_.push_back(b);
        activation_round_[b] = round_;
      }
    }
    activated_this_step_ += static_cast<std::uint64_t>(batch.count) * d;
  }
  pending_total_ = 0;
}

ThreadTeam* DynamicEngine::team(int threads) {
  if (threads <= 1) return nullptr;
  const auto want = static_cast<unsigned>(threads);
  if (team_ && team_->size() != want) team_.reset();
  if (!team_) {
    team_ = std::make_unique<ThreadTeam>(want, ThreadTeam::pin_requested());
  }
  return team_.get();
}

DynamicStepStats DynamicEngine::step(std::uint64_t now_us) {
  const NodeId n_servers = n_servers_;
  ++round_;
  activate_pending();

  // Serve-mode steps inherit the engine's intra-run parallelism: install
  // the persistent team for this round's loops (churn coins, scatter,
  // verdict scan, reset, max fold).  Small backlogs stay serial.
  const int width =
      alive_.size() >= kTeamMinBalls ? intra_run_threads() : 1;
  const TeamRegion region(team(width));

  // Server churn: healthy servers fail independently.
  if (params_.server_failure_rate > 0.0) {
    parallel_for(0, n_servers, [&](std::size_t ui) {
      if (failed_[ui]) return;
      const double coin = rng_.uniform01(kFailureStreamBase + ui, round_);
      if (coin < params_.server_failure_rate) failed_[ui] = 1;
    });
  }

  // Phase 1 via the shared atomic-free radix scatter (same counter-based
  // draws, plain per-server adds; no touch-lists -- the dynamic loop
  // always scans all servers because churn coins touch them anyway).
  // Stored mode hands the scatter raw CSR addresses; implicit mode selects
  // by rank and pipelines resolved servers through a ring (see
  // ImplicitCursor).  Same draws, same targets either way.
  const std::size_t m = alive_.size();
  const ScatterLayout layout =
      scatter_layout(m, n_servers, static_cast<std::size_t>(parallel_width()));
  const auto run_scatter = [&](auto&& sampler) {
    scatter_count(layout, scatter_, m, round_recv_.data(), false, sampler,
                  [&](std::size_t i, NodeId u) { target_[i] = u; },
                  [](std::size_t, NodeId) {});
  };
  if (graph_ != nullptr) {
    run_scatter([&](std::size_t i) {
      const BallId b = alive_[i];
      const auto v = static_cast<NodeId>(by_d_.quotient(b));
      const std::uint32_t deg = graph_->client_degree(v);
      const std::uint64_t k = rng_.bounded(b, round_, deg);
      return graph_->client_neighbors(v).data() + k;
    });
  } else {
    const ImplicitCursor cursor(*topo_);
    run_scatter(
        ImplicitStepSampler{cursor, alive_.data(), &rng_, by_d_, round_});
  }

  parallel_for(0, n_servers, [&](std::size_t ui) {
    const std::uint32_t rr = round_recv_[ui];
    std::uint8_t flag = 0;
    if (rr != 0) {
      recv_total_[ui] += rr;
      // Failed servers answer nothing; clients treat it as a reject.
      if (!failed_[ui]) {
        const Verdict v = server_verdict(params_.base.protocol,
                                         burned_[ui] != 0, recv_total_[ui],
                                         accepted_[ui], rr, cap_);
        if (v == Verdict::kAccept) {
          accepted_[ui] += rr;
          flag = 1;
        } else if (v == Verdict::kBurn) {
          burned_[ui] = 1;
        }
      }
    }
    accept_flag_[ui] = flag;
  });

  next_alive_.clear();
  for (std::size_t i = 0; i < m; ++i) {
    const BallId b = alive_[i];
    if (accept_flag_[target_[i]]) {
      const std::uint32_t lat = round_ - activation_round_[b] + 1;
      latency_rounds_.add(lat);
      latency_sum_ += lat;
      latency_max_ = std::max(latency_max_, lat);
      const auto v = static_cast<NodeId>(by_d_.quotient(b));
      latency_us_.add(static_cast<std::int64_t>(now_us - stamp_us_[v]));
      ++settled_balls_;
    } else {
      next_alive_.push_back(b);
    }
  }
  work_messages_ += 2 * static_cast<std::uint64_t>(m);
  alive_.swap(next_alive_);

  parallel_for(0, n_servers, [&](std::size_t ui) { round_recv_[ui] = 0; });

  const std::uint64_t max_load = parallel_reduce_max_u64(
      0, n_servers, [&](std::size_t ui) { return accepted_[ui]; });
  max_load_series_.push_back(max_load);
  backlog_series_.push_back(alive_.size());

  DynamicStepStats stats;
  stats.round = round_;
  stats.activated_balls = activated_this_step_;
  stats.settled_balls = m - alive_.size();
  stats.backlog = alive_.size();
  stats.max_load = max_load;
  return stats;
}

ServiceMetrics DynamicEngine::snapshot() const {
  const NodeId n_servers = n_servers_;
  ServiceMetrics out;
  out.round = round_;
  out.injected_clients = next_client_;
  out.injected_balls =
      static_cast<std::uint64_t>(next_client_) * params_.base.d;
  out.assigned_balls = settled_balls_;
  out.backlog = alive_.size();
  out.work_messages = work_messages_;
  out.latency_rounds = latency_rounds_;
  out.latency_us = latency_us_;
  for (NodeId u = 0; u < n_servers; ++u) {
    out.max_load = std::max<std::uint64_t>(out.max_load, accepted_[u]);
    out.burned_servers += burned_[u];
    out.failed_servers += failed_[u];
    out.server_load.add(accepted_[u]);
  }
  out.alive_servers =
      n_servers - out.burned_servers - out.failed_servers +
      [&] {  // burned AND failed servers must not be subtracted twice
        std::uint64_t both = 0;
        for (NodeId u = 0; u < n_servers; ++u)
          both += (burned_[u] && failed_[u]) ? 1 : 0;
        return both;
      }();
  out.mean_load = n_servers == 0
                      ? 0.0
                      : static_cast<double>(settled_balls_) /
                            static_cast<double>(n_servers);
  return out;
}

DynamicResult DynamicEngine::result(std::uint32_t reported_rounds) const {
  const NodeId n_servers = n_servers_;
  DynamicResult res;
  res.total_balls =
      static_cast<std::uint64_t>(n_clients_) * params_.base.d;
  res.rounds = reported_rounds;
  res.unassigned_balls = alive_.size();
  res.completed = alive_.empty() && pending_total_ == 0 &&
                  next_client_ == n_clients_;
  res.work_messages = work_messages_;
  for (NodeId u = 0; u < n_servers; ++u) {
    res.max_load = std::max<std::uint64_t>(res.max_load, accepted_[u]);
    res.burned_servers += burned_[u];
    res.failed_servers += failed_[u];
  }
  if (!latency_rounds_.empty()) {
    res.latency_mean =
        latency_sum_ / static_cast<double>(latency_rounds_.total());
    res.latency_p50 =
        static_cast<std::uint32_t>(latency_rounds_.quantile(0.50));
    res.latency_p99 =
        static_cast<std::uint32_t>(latency_rounds_.quantile(0.99));
    res.latency_max = latency_max_;
  }
  res.max_load_series = max_load_series_;
  res.backlog_series = backlog_series_;
  return res;
}

namespace {
/// Shared batch driver for both run_dynamic overloads: replays the fixed
/// arrival schedule through an already-constructed engine.
DynamicResult drive_dynamic(DynamicEngine& engine, NodeId n_clients,
                            const DynamicParams& params) {
  const std::uint32_t arrivals =
      params.arrivals_per_round == 0 ? n_clients : params.arrivals_per_round;
  const std::uint32_t last_arrival_round =
      n_clients == 0 ? 1 : 1 + (n_clients - 1) / arrivals;
  const std::uint32_t drain = params.drain_rounds
                                  ? params.drain_rounds
                                  : ProtocolParams::default_max_rounds(n_clients);
  const std::uint32_t max_rounds = last_arrival_round + drain;

  std::uint32_t rounds = 0;
  while (rounds < max_rounds) {
    engine.inject(arrivals);
    if (engine.exhausted()) {
      // The monolithic loop counted the round in which it noticed there
      // was nothing left to do (only reachable with zero clients).
      ++rounds;
      break;
    }
    rounds = engine.step().round;
    if (engine.exhausted()) break;
  }
  return engine.result(rounds);
}
}  // namespace

DynamicResult run_dynamic(const BipartiteGraph& graph,
                          const DynamicParams& params) {
  DynamicEngine engine(graph, params);
  return drive_dynamic(engine, graph.num_clients(), params);
}

DynamicResult run_dynamic(const ImplicitRegularTopology& topology,
                          const DynamicParams& params) {
  DynamicEngine engine(topology, params);
  return drive_dynamic(engine, topology.num_clients(), params);
}

}  // namespace saer
