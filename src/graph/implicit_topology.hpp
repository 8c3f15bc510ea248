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
// tests/test_golden_hash.cpp).  The engines, which read one entry row[k]
// per sampled ball, use ImplicitRowSampler below instead of neighbors().

#include <array>
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
  /// a 4-vCPU Xeon VM), of which the draws alone are about 0.13 us at
  /// Delta = 16.  A caller that reads one entry of the row should use
  /// ImplicitRowSampler instead (per-kernel costs in the table at
  /// ImplicitRowSampler::kMaxRankDelta).  `out` is resized to exactly
  /// Delta whatever it held; no allocation once its capacity reaches Delta.
  void neighbors(NodeId v, std::vector<NodeId>& out) const;

  /// The stored twin: the exact BipartiteGraph whose client rows equal
  /// neighbors(v) for every v.  O(n * Delta) memory -- test/verification
  /// only at large n; the point of the implicit mode is to never call this
  /// on the instances it exists for.
  [[nodiscard]] BipartiteGraph materialize() const;

 private:
  friend class ImplicitRowSampler;

  NodeId n_ = 0;
  std::uint32_t delta_ = 0;
  std::uint64_t graph_seed_ = 0;
  CounterRng rng_;
};

namespace detail {

/// The two implementations of ImplicitRowSampler's ranked load (Delta <=
/// kMaxRankDelta).  kScalar is portable C++, the fallback and the oracle;
/// kAvx512 takes the Delta draws eight 64-bit lanes per vector and counts
/// ranks sixteen lanes per vector.  Both produce the same bytes.
enum class RowKernel : std::uint8_t { kScalar, kAvx512 };

/// One ranked load of client v: set[0, delta) becomes v's Floyd set in
/// draw order (draw i at step j0 + i, collisions resolved as in
/// neighbors()), and rank[i] = #{m < delta : set[m] < set[i]} for every
/// lane i below delta rounded up to 8.  `set` and `rank` hold
/// kMaxRankDelta lanes; set's lanes from delta on must be 0, and stay 0
/// with rank 0.
using RankedLoad = void (*)(const CounterRng& rng, NodeId v,
                            std::uint64_t j0, std::uint32_t delta,
                            NodeId* set, std::uint32_t* rank);

/// `kernel`'s entry point, or nullptr when this build or this CPU lacks
/// it.  kScalar is always present.
[[nodiscard]] RankedLoad ranked_load(RowKernel kernel) noexcept;

/// The kernel every ImplicitRowSampler runs: kAvx512 when the build has it
/// (GCC or Clang on x86-64) and the CPU reports AVX-512 F, DQ and VL, else
/// kScalar.  The CPU is probed once per process, by the first sampler
/// constructed -- never by ImplicitRegularTopology's constructor.
[[nodiscard]] RowKernel dispatched_row_kernel() noexcept;

/// "avx512" or "scalar".
[[nodiscard]] const char* row_kernel_name(RowKernel kernel) noexcept;

/// Lemire's multiply word * bound for a bound below 2^32, from two 32x32-bit
/// products -- the form the vector kernel evaluates per lane.  `value` is
/// the high word of the 128-bit product, `lo` the low word; both exact,
/// since (word >> 32) * bound + 2^32 - 1 < 2^64.  Xoshiro256ss::bounded_from
/// returns `value` without drawing again whenever lo >= bound; the vector
/// kernel redoes a row with the scalar draws if any lane has lo < bound.
struct LemireWord {
  std::uint64_t value;
  std::uint64_t lo;
};
[[nodiscard]] constexpr LemireWord lemire_split(std::uint64_t word,
                                                std::uint32_t bound) noexcept {
  const std::uint64_t p =
      std::uint64_t{static_cast<std::uint32_t>(word)} * bound;
  const std::uint64_t mid =
      std::uint64_t{static_cast<std::uint32_t>(word >> 32)} * bound +
      (p >> 32);
  return {mid >> 32, (mid << 32) | (p & 0xffffffffu)};
}

}  // namespace detail

/// Reads one client's row of an ImplicitRegularTopology by rank, without
/// sorting it: after load(v), (*this)[k] == neighbors(v)[k] for every
/// k < Delta, byte for byte.  This is the sampler both engines' implicit
/// cursors hold (core/scatter.hpp, ImplicitCursor).
///
/// load(v) takes the Delta Floyd draws -- the same rng.bounded(v, j, j + 1)
/// values as neighbors() -- into lanes of draw order, and counts for every
/// lane how many drawn values are smaller: Delta^2 branch-free compares.
/// Distinct draws give ranks 0..Delta-1, whose sum is Delta(Delta-1)/2; a
/// smaller sum means two draws collided, and only then are the collisions
/// resolved in draw order (a colliding draw becomes its fallback j, exactly
/// as in neighbors(), so every later compare sees the same set) and the
/// ranks counted again -- a branch taken with probability about
/// Delta^2 / 2n, one client in 35,000 at n = 2^22, Delta = 16.
/// operator[] then returns the lane whose rank is k: one branch-free pass
/// over the lanes, no sort.
///
/// The draws and the count run in one of two kernels (detail::RowKernel),
/// chosen once per process.  The scalar kernel counts eight lanes per
/// block.  The AVX-512 kernel evaluates the Delta draws as a lane loop the
/// compiler vectorizes (Lemire's high word from two 32x32-bit products,
/// detail::lemire_split; a row where any lane could need Lemire's
/// rejection step, about 2^-28 of them, is drawn again by the scalar
/// code), and counts sixteen lanes per vector with a compare-to-mask and a
/// masked add.  BM_ImplicitSelect against BM_ImplicitSelectScalar at
/// Delta = 16 (one load plus one select, n = 2^22, one core of a 4-vCPU
/// Sapphire Rapids VM): 0.12-0.13 us against 0.16-0.19 us.
///
/// Above kMaxRankDelta the quadratic count loses to neighbors()'s sorted
/// placement, so load() regenerates the sorted row instead and [k] indexes
/// it.  Either way the selected server is the same.
///
/// Not thread-safe; copies are independent (the engines copy one per
/// scatter chunk).  No allocation below the cutoff.
class ImplicitRowSampler {
 public:
  /// Largest degree served by rank counting.  One load plus one select
  /// (n = 2^22, one core of a 4-vCPU Sapphire Rapids VM, 3-rep medians),
  /// AVX-512 / scalar kernel against BM_ImplicitNeighbors: 0.13 / 0.16 vs
  /// 0.54 us at Delta = 16, 0.19 / 0.33 vs 1.1 us at 32, 0.43 / 0.79 vs
  /// 3.1 us at 64 and 4.0 / 7.8 vs 15 us at 256.  All grow as Delta^2
  /// from there.  The scalar kernel's crossover at d = 2 (a load plus two
  /// selects) lies between Delta = 384 and 448; the AVX-512 kernel's lies
  /// higher, but one cutoff keeps the arrays at 256 lanes and gives both
  /// kernels the same rows.
  static constexpr std::uint32_t kMaxRankDelta = 256;

  /// Runs detail::dispatched_row_kernel() below the cutoff.
  explicit ImplicitRowSampler(const ImplicitRegularTopology& topo);

  /// Makes client v the current row.
  void load(NodeId v);

  /// The server of rank k in the current row (k < Delta); equal to
  /// neighbors(v)[k] for the last loaded v.
  [[nodiscard]] NodeId operator[](std::uint32_t k) const {
    if (width_ == 0) return sorted_[k];
    NodeId out = 0;
    const std::uint32_t width = width_;
    for (std::uint32_t i = 0; i < width; ++i) {
      out |= rank_[i] == k ? set_[i] : NodeId{0};
    }
    return out;
  }

 private:
  const ImplicitRegularTopology* topo_;
  detail::RankedLoad load_ranked_;
  std::uint32_t delta_;
  /// Rank lanes in use: Delta rounded up to a multiple of 8, or 0 when the
  /// degree is above kMaxRankDelta and `sorted_` holds the row.
  std::uint32_t width_;
  /// Lanes [0, Delta) hold the row's set in draw order.  Lanes from Delta
  /// on stay 0: they rank 0, so operator[](0) matches them too, but they
  /// OR in nothing.
  std::array<NodeId, kMaxRankDelta> set_{};
  std::array<std::uint32_t, kMaxRankDelta> rank_{};
  std::vector<NodeId> sorted_;
};

}  // namespace saer
