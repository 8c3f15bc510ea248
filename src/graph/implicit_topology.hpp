#pragma once
// Implicit random topology: client neighborhoods as a pure function of
// (graph_seed, client), regenerated on demand from the counter RNG instead
// of stored -- O(1) topology memory, which is what lets the engine run
// n >= 2^26 instances whose CSR adjacency (O(n * Delta)) no longer fits.
//
// The family is the Delta-left-regular uniform model: n clients, n servers,
// and client v's neighborhood is a uniform random Delta-subset of the
// servers, sampled independently per client.  Client degrees are exactly
// Delta (Theorem 1's client-side hypothesis); server degrees concentrate
// around Delta like the stored random_regular family's pre-repair draw.
//
// Determinism contract
// --------------------
// neighbors(v, out) is a pure function of (seed, v): every call, from any
// thread, at any time, yields the same sorted Delta-subset -- the draws are
// CounterRng::bounded(stream = v, step = j) for the Delta Floyd steps j, so
// regeneration needs no state and no synchronization.  materialize() builds
// the byte-identical BipartiteGraph (same sorted rows in CSR form), which
// is the equivalence anchor the engine tests pin against: a protocol run
// under the implicit source must be bit-for-bit equal to the same run under
// the materialized twin (tests/test_implicit_topology.cpp,
// tests/test_golden_hash.cpp).

#include <cstdint>
#include <vector>

#include "graph/bipartite_graph.hpp"
#include "util/rng.hpp"

namespace saer {

class ImplicitRegularTopology {
 public:
  /// n clients and n servers, each client connected to `delta` distinct
  /// uniform random servers.  Throws std::invalid_argument unless
  /// 1 <= delta <= n.
  ImplicitRegularTopology(NodeId n, std::uint32_t delta, std::uint64_t seed);

  [[nodiscard]] NodeId num_clients() const noexcept { return n_; }
  [[nodiscard]] NodeId num_servers() const noexcept { return n_; }
  /// Every client's degree (exact).
  [[nodiscard]] std::uint32_t degree() const noexcept { return delta_; }
  [[nodiscard]] std::uint64_t graph_seed() const noexcept {
    return graph_seed_;
  }

  /// Regenerates client v's neighborhood into `out`: exactly degree()
  /// distinct server ids, sorted ascending -- the same row, byte for byte,
  /// that materialize()'s CSR stores for v.  Cost: Delta independent RNG
  /// draws (Floyd's sampling algorithm, one bounded draw per element),
  /// then Delta placements, each a branch-free binary search plus a
  /// memmove of the larger elements -- O(Delta log Delta) compares and
  /// O(Delta^2) element moves: BM_ImplicitNeighbors measures about 0.5 us
  /// per row at Delta = 16 and 25 us at Delta = 484 (n = 2^22, one core of
  /// a 4-vCPU Xeon VM).  `out` is resized to exactly Delta whatever it
  /// held; no allocation once its capacity reaches Delta.
  void neighbors(NodeId v, std::vector<NodeId>& out) const;

  /// The stored twin: the exact BipartiteGraph whose client rows equal
  /// neighbors(v) for every v.  O(n * Delta) memory -- test/verification
  /// only at large n; the point of the implicit mode is to never call this
  /// on the instances it exists for.
  [[nodiscard]] BipartiteGraph materialize() const;

 private:
  NodeId n_ = 0;
  std::uint32_t delta_ = 0;
  std::uint64_t graph_seed_ = 0;
  CounterRng rng_;
};

}  // namespace saer
