// Proximity generators: ring and torus-grid neighborhoods. These realize the
// paper's motivation (Section 1.1(ii)) that clients may only reach servers
// that are metrically close, and are exactly regular by construction.

#include <stdexcept>

#include "graph/generators.hpp"

namespace saer {

BipartiteGraph ring_proximity(NodeId n, std::uint32_t delta) {
  if (delta == 0 || delta > n)
    throw std::invalid_argument("ring_proximity: need 0 < delta <= n");
  std::vector<NodeId> adj(static_cast<std::size_t>(n) * delta);
  std::size_t pos = 0;
  for (NodeId v = 0; v < n; ++v) {
    for (std::uint32_t k = 0; k < delta; ++k)
      adj[pos++] = static_cast<NodeId>((static_cast<std::uint64_t>(v) + k) % n);
  }
  return BipartiteGraph::from_rows(n, n, uniform_row_offsets(n, delta),
                                   std::move(adj));
}

BipartiteGraph shared_blocks(NodeId n, std::uint32_t delta) {
  if (delta == 0 || delta > n || n % delta != 0)
    throw std::invalid_argument("shared_blocks: need delta | n, 0 < delta <= n");
  std::vector<NodeId> adj(static_cast<std::size_t>(n) * delta);
  std::size_t pos = 0;
  for (NodeId v = 0; v < n; ++v) {
    const NodeId block_begin = v - (v % delta);
    for (std::uint32_t k = 0; k < delta; ++k) adj[pos++] = block_begin + k;
  }
  return BipartiteGraph::from_rows(n, n, uniform_row_offsets(n, delta),
                                   std::move(adj));
}

BipartiteGraph grid_proximity(NodeId side, std::uint32_t radius) {
  if (side == 0) throw std::invalid_argument("grid_proximity: side must be > 0");
  const std::uint32_t window = 2 * radius + 1;
  if (window > side)
    throw std::invalid_argument("grid_proximity: neighborhood wider than torus");
  const auto n = static_cast<NodeId>(static_cast<std::uint64_t>(side) * side);
  std::vector<NodeId> adj(static_cast<std::size_t>(n) * window * window);
  std::size_t pos = 0;
  const auto r = static_cast<std::int64_t>(radius);
  for (NodeId v = 0; v < n; ++v) {
    const std::int64_t x = v % side;
    const std::int64_t y = v / side;
    for (std::int64_t dy = -r; dy <= r; ++dy) {
      for (std::int64_t dx = -r; dx <= r; ++dx) {
        const auto ux = static_cast<std::uint64_t>((x + dx + side) % side);
        const auto uy = static_cast<std::uint64_t>((y + dy + side) % side);
        adj[pos++] = static_cast<NodeId>(uy * side + ux);
      }
    }
  }
  return BipartiteGraph::from_rows(
      n, n, uniform_row_offsets(n, window * window), std::move(adj));
}

}  // namespace saer
