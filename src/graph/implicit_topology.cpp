#include "graph/implicit_topology.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

namespace saer {

ImplicitRegularTopology::ImplicitRegularTopology(NodeId n, std::uint32_t delta,
                                                 std::uint64_t seed)
    : n_(n), delta_(delta), graph_seed_(seed), rng_(seed) {
  if (n == 0)
    throw std::invalid_argument("ImplicitRegularTopology: n must be >= 1");
  if (delta == 0 || delta > n)
    throw std::invalid_argument(
        "ImplicitRegularTopology: delta must be in [1, n] (got delta=" +
        std::to_string(delta) + ", n=" + std::to_string(n) + ")");
}

void ImplicitRegularTopology::neighbors(NodeId v,
                                        std::vector<NodeId>& out) const {
  // Floyd's subset-sampling algorithm: for j = n - Delta .. n - 1 draw
  // t uniform in [0, j] and insert t, falling back to j itself on a
  // collision.  Exactly Delta draws at the fixed coordinates (v, j), so
  // regeneration is stateless and repeatable; every value already present
  // when j is processed came from an earlier iteration and is <= j - 1, so
  // the fallback j always lands at the end and the row stays sorted.
  //
  // The draws do not depend on the set, so they are all taken first into
  // out[0, Delta) (independent multiplies the core can overlap), and then
  // placed in order: when draw i is placed, out[0, i) is the sorted set so
  // far and out[i] is draw i itself, which the shift overwrites only after
  // it has been read.  Same rule, same bytes as inserting draw by draw.
  out.resize(delta_);
  NodeId* const row = out.data();
  const std::uint64_t j0 = n_ - delta_;
  for (std::uint32_t i = 0; i < delta_; ++i) {
    const std::uint64_t j = j0 + i;
    row[i] = static_cast<NodeId>(rng_.bounded(v, j, j + 1));
  }
  for (std::uint32_t i = 1; i < delta_; ++i) {
    const NodeId t = row[i];
    // Branch-free lower_bound of t in row[0, i): the halving step is a
    // conditional move, so unpredictable comparisons cost no mispredicts.
    const NodeId* base = row;
    std::uint32_t len = i;
    while (len > 1) {
      const std::uint32_t half = len / 2;
      base = base[half] < t ? base + half : base;
      len -= half;
    }
    auto pos = static_cast<std::uint32_t>(base - row) + (*base < t ? 1 : 0);
    // A collision (t already present; pos < i, since row[i] is t itself)
    // places j at the end, where it sorts; otherwise shift and insert.
    const bool collision = pos < i && row[pos] == t;
    const NodeId value = collision ? static_cast<NodeId>(j0 + i) : t;
    if (collision) pos = i;
    std::memmove(row + pos + 1, row + pos, (i - pos) * sizeof(NodeId));
    row[pos] = value;
  }
}

ImplicitRowSampler::ImplicitRowSampler(const ImplicitRegularTopology& topo)
    : topo_(&topo),
      delta_(topo.degree()),
      width_(delta_ <= kMaxRankDelta ? (delta_ + 7) & ~7u : 0) {}

void ImplicitRowSampler::count_ranks() {
  // rank[i] = #{j < Delta : set[j] < set[i]}, eight lanes per block: the
  // block's values and counts stay in registers while set[j] streams by,
  // so the inner loop is one broadcast, compare and subtract per vector.
  const NodeId* const set = set_.data();
  const std::uint32_t delta = delta_;
  const std::uint32_t width = width_;
  for (std::uint32_t b = 0; b < width; b += 8) {
    NodeId lane[8];
    std::uint32_t count[8] = {};
    for (std::uint32_t i = 0; i < 8; ++i) lane[i] = set[b + i];
    for (std::uint32_t j = 0; j < delta; ++j) {
      const NodeId x = set[j];
      for (std::uint32_t i = 0; i < 8; ++i) count[i] += x < lane[i] ? 1 : 0;
    }
    for (std::uint32_t i = 0; i < 8; ++i) rank_[b + i] = count[i];
  }
}

void ImplicitRowSampler::load(NodeId v) {
  if (width_ == 0) {
    topo_->neighbors(v, sorted_);
    return;
  }
  const CounterRng& rng = topo_->rng_;
  const std::uint64_t j0 = topo_->n_ - delta_;
  for (std::uint32_t i = 0; i < delta_; ++i) {
    const std::uint64_t j = j0 + i;
    set_[i] = static_cast<NodeId>(rng.bounded(v, j, j + 1));
  }
  count_ranks();
  // Distinct values rank 0..Delta-1 and a tie lowers the sum, so it equals
  // Delta(Delta-1)/2 exactly when no two draws collided.
  std::uint64_t sum = 0;
  for (std::uint32_t i = 0; i < delta_; ++i) sum += rank_[i];
  if (sum == std::uint64_t{delta_} * (delta_ - 1) / 2) return;
  // Floyd's rule in draw order, as in neighbors(): draw i collides if an
  // earlier member (itself already resolved) equals it, and then j0 + i,
  // which no earlier member can equal, joins the set instead.
  for (std::uint32_t i = 1; i < delta_; ++i) {
    const NodeId t = set_[i];
    bool hit = false;
    for (std::uint32_t m = 0; m < i; ++m) hit |= set_[m] == t;
    set_[i] = hit ? static_cast<NodeId>(j0 + i) : t;
  }
  count_ranks();
}

BipartiteGraph ImplicitRegularTopology::materialize() const {
  std::vector<NodeId> adj(static_cast<std::size_t>(n_) * delta_);
  std::vector<NodeId> row;
  for (NodeId v = 0; v < n_; ++v) {
    neighbors(v, row);
    std::copy(row.begin(), row.end(),
              adj.begin() + static_cast<std::ptrdiff_t>(v) * delta_);
  }
  return BipartiteGraph::from_rows(n_, n_, uniform_row_offsets(n_, delta_),
                                   std::move(adj));
}

}  // namespace saer
