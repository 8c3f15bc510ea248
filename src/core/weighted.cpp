#include "core/weighted.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/workspace.hpp"
#include "util/fastdiv.hpp"
#include "util/rng.hpp"

namespace saer {

WeightedResult run_protocol_weighted(const BipartiteGraph& graph,
                                     const WeightedParams& params,
                                     const std::vector<std::uint32_t>& weights) {
  if (params.d == 0)
    throw std::invalid_argument("run_protocol_weighted: d must be >= 1");
  if (params.capacity == 0)
    throw std::invalid_argument("run_protocol_weighted: capacity must be > 0");
  const NodeId n = graph.num_clients();
  const std::uint32_t d = params.d;
  const std::uint64_t total_balls = static_cast<std::uint64_t>(n) * d;
  if (weights.size() != total_balls)
    throw std::invalid_argument("run_protocol_weighted: weights size mismatch");
  for (const std::uint32_t w : weights) {
    if (w == 0 || w > params.capacity)
      throw std::invalid_argument(
          "run_protocol_weighted: weights must be in [1, capacity]");
  }
  for (NodeId v = 0; v < n; ++v) {
    if (graph.client_degree(v) == 0)
      throw std::invalid_argument("run_protocol_weighted: client without servers");
  }
  const std::uint32_t max_rounds =
      params.max_rounds ? params.max_rounds
                        : ProtocolParams::default_max_rounds(n);

  const CounterRng rng(params.seed);

  WeightedResult res;
  res.total_balls = total_balls;
  res.total_weight =
      std::accumulate(weights.begin(), weights.end(), std::uint64_t{0});
  res.assignment.assign(total_balls, kUnassigned);
  res.weight_loads.assign(graph.num_servers(), 0);

  std::vector<BallId> alive(total_balls);
  std::iota(alive.begin(), alive.end(), BallId{0});
  std::vector<BallId> next_alive;
  std::vector<NodeId> target(total_balls);
  std::vector<std::uint64_t> recv_round(graph.num_servers(), 0);
  std::vector<std::uint64_t> recv_total(graph.num_servers(), 0);
  // Engine-idiom flags byte: kServerAccepted is the round verdict,
  // kServerBurned the SAER burn bit (one array instead of two).
  std::vector<std::uint8_t> flags(graph.num_servers(), 0);
  const FastDiv32 by_d(d);

  std::uint32_t round = 0;
  while (!alive.empty() && round < max_rounds) {
    ++round;
    for (std::size_t i = 0; i < alive.size(); ++i) {
      const BallId b = alive[i];
      const auto v = static_cast<NodeId>(by_d.quotient(b));
      const NodeId u =
          graph.client_neighbor(v, rng.bounded(b, round, graph.client_degree(v)));
      target[i] = u;
      recv_round[u] += weights[b];
    }
    for (NodeId u = 0; u < graph.num_servers(); ++u) {
      const std::uint64_t rr = recv_round[u];
      std::uint8_t f = flags[u] & static_cast<std::uint8_t>(~kServerAccepted);
      if (rr != 0) {
        recv_total[u] += rr;
        const Verdict v = server_verdict(
            params.protocol, (f & kServerBurned) != 0, recv_total[u],
            res.weight_loads[u], rr, params.capacity);
        if (v == Verdict::kAccept) {
          res.weight_loads[u] += rr;
          f |= kServerAccepted;
        } else if (v == Verdict::kBurn) {
          f |= kServerBurned;
        }
      }
      flags[u] = f;
      recv_round[u] = 0;
    }
    next_alive.clear();
    for (std::size_t i = 0; i < alive.size(); ++i) {
      const BallId b = alive[i];
      if (flags[target[i]] & kServerAccepted) {
        res.assignment[b] = target[i];
      } else {
        next_alive.push_back(b);
      }
    }
    res.work_messages += 2 * static_cast<std::uint64_t>(alive.size());
    alive.swap(next_alive);
  }

  res.completed = alive.empty();
  res.rounds = round;
  res.alive_balls = alive.size();
  for (const std::uint64_t load : res.weight_loads)
    res.max_weight_load = std::max(res.max_weight_load, load);
  for (const std::uint8_t f : flags)
    res.burned_servers += (f & kServerBurned) ? 1 : 0;
  return res;
}

void check_weighted_result(const BipartiteGraph& graph,
                           const WeightedParams& params,
                           const std::vector<std::uint32_t>& weights,
                           const WeightedResult& result) {
  std::vector<std::uint64_t> recomputed(graph.num_servers(), 0);
  std::uint64_t unassigned = 0;
  for (BallId b = 0; b < result.total_balls; ++b) {
    const NodeId u = result.assignment[b];
    if (u == kUnassigned) {
      ++unassigned;
      continue;
    }
    const auto v = static_cast<NodeId>(b / params.d);
    if (!graph.has_edge(v, u))
      throw std::logic_error("check_weighted_result: ball outside N(v)");
    recomputed[u] += weights[b];
  }
  if (unassigned != result.alive_balls)
    throw std::logic_error("check_weighted_result: alive accounting mismatch");
  for (NodeId u = 0; u < graph.num_servers(); ++u) {
    if (recomputed[u] != result.weight_loads[u])
      throw std::logic_error("check_weighted_result: load mismatch");
    if (recomputed[u] > params.capacity)
      throw std::logic_error("check_weighted_result: capacity violated");
  }
}

}  // namespace saer
