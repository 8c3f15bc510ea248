#include "core/neighborhood.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace saer {

std::vector<NeighborhoodSnapshot> neighborhood_profile(
    const BipartiteGraph& graph, const ProtocolParams& params) {
  params.validate();
  const NodeId n = graph.num_clients();
  const std::uint32_t d = params.d;
  const std::uint64_t cap = params.capacity();
  const std::uint64_t total_balls = static_cast<std::uint64_t>(n) * d;
  const std::uint32_t max_rounds =
      params.max_rounds ? params.max_rounds
                        : ProtocolParams::default_max_rounds(n);
  for (NodeId v = 0; v < n; ++v) {
    if (graph.client_degree(v) == 0)
      throw std::invalid_argument("neighborhood_profile: client without servers");
  }

  const CounterRng rng(params.seed);

  std::vector<bool> alive(total_balls, true);
  std::vector<std::uint64_t> recv_total(graph.num_servers(), 0);
  std::vector<std::uint32_t> din(graph.num_servers(), 0);
  std::vector<bool> burned(graph.num_servers(), false);

  std::vector<NeighborhoodSnapshot> profile;
  std::uint64_t alive_count = total_balls;
  std::uint32_t round = 0;
  while (alive_count > 0 && round < max_rounds) {
    ++round;
    std::vector<std::uint32_t> arrivals(graph.num_servers(), 0);
    std::vector<NodeId> destination(total_balls, kUnassigned);
    for (BallId b = 0; b < total_balls; ++b) {
      if (!alive[b]) continue;
      const auto v = static_cast<NodeId>(b / d);
      const NodeId u = graph.client_neighbor(
          v, rng.bounded(b, round, graph.client_degree(v)));
      destination[b] = u;
      ++arrivals[u];
    }
    std::vector<bool> accepts(graph.num_servers(), false);
    for (NodeId u = 0; u < graph.num_servers(); ++u) {
      if (arrivals[u] == 0) continue;
      recv_total[u] += arrivals[u];
      const Verdict v = server_verdict(params.protocol, burned[u],
                                       recv_total[u], din[u], arrivals[u], cap);
      if (v == Verdict::kAccept) {
        din[u] += arrivals[u];
        accepts[u] = true;
      } else if (v == Verdict::kBurn) {
        burned[u] = true;
      }
    }
    for (BallId b = 0; b < total_balls; ++b) {
      if (!alive[b]) continue;
      if (accepts[destination[b]]) {
        alive[b] = false;
        --alive_count;
      }
    }

    // Per-client scan of S_t(v) and K_t(v).
    std::vector<double> s_values(n), k_values(n);
    for (NodeId v = 0; v < n; ++v) {
      const auto nb = graph.client_neighbors(v);
      std::uint64_t burned_count = 0, recv = 0;
      for (const NodeId u : nb) {
        burned_count += burned[u] ? 1 : 0;
        recv += recv_total[u];
      }
      const double deg = static_cast<double>(nb.size());
      s_values[v] = static_cast<double>(burned_count) / deg;
      k_values[v] = static_cast<double>(recv) /
                    (static_cast<double>(cap) * deg);
    }
    NeighborhoodSnapshot snap;
    snap.round = round;
    snap.alive = alive_count;
    snap.s_mean = summarize(s_values).mean;
    snap.s_p90 = quantile(s_values, 0.90);
    snap.s_max = *std::max_element(s_values.begin(), s_values.end());
    snap.k_mean = summarize(k_values).mean;
    snap.k_p90 = quantile(k_values, 0.90);
    snap.k_max = *std::max_element(k_values.begin(), k_values.end());
    profile.push_back(snap);
  }
  return profile;
}

}  // namespace saer
