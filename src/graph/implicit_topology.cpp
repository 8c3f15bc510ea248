#include "graph/implicit_topology.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#if defined(__GNUC__) && defined(__x86_64__)
#define SAER_IMPLICIT_AVX512 1
#include <immintrin.h>
#else
#define SAER_IMPLICIT_AVX512 0
#endif

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

namespace {

// The Delta Floyd draws of client v, exactly as neighbors() takes them.
void draw_scalar(const CounterRng& rng, NodeId v, std::uint64_t j0,
                 std::uint32_t delta, NodeId* set) {
  for (std::uint32_t i = 0; i < delta; ++i) {
    const std::uint64_t j = j0 + i;
    set[i] = static_cast<NodeId>(rng.bounded(v, j, j + 1));
  }
}

void count_ranks_scalar(const NodeId* set, std::uint32_t delta,
                        std::uint32_t* rank) {
  // rank[i] = #{j < Delta : set[j] < set[i]}, eight lanes per block: the
  // block's values and counts stay in registers while set[j] streams by,
  // so the inner loop is one broadcast, compare and subtract per vector.
  const std::uint32_t width = (delta + 7) & ~7u;
  for (std::uint32_t b = 0; b < width; b += 8) {
    NodeId lane[8];
    std::uint32_t count[8] = {};
    for (std::uint32_t i = 0; i < 8; ++i) lane[i] = set[b + i];
    for (std::uint32_t j = 0; j < delta; ++j) {
      const NodeId x = set[j];
      for (std::uint32_t i = 0; i < 8; ++i) count[i] += x < lane[i] ? 1 : 0;
    }
    for (std::uint32_t i = 0; i < 8; ++i) rank[b + i] = count[i];
  }
}

// Distinct values rank 0..Delta-1 and a tie lowers the sum, so it equals
// Delta(Delta-1)/2 exactly when no two draws collided.
bool ranks_distinct(const std::uint32_t* rank, std::uint32_t delta) {
  std::uint64_t sum = 0;
  for (std::uint32_t i = 0; i < delta; ++i) sum += rank[i];
  return sum == std::uint64_t{delta} * (delta - 1) / 2;
}

// Floyd's rule in draw order, as in neighbors(): draw i collides if an
// earlier member (itself already resolved) equals it, and then j0 + i,
// which no earlier member can equal, joins the set instead.
void resolve_collisions(NodeId* set, std::uint32_t delta, std::uint64_t j0) {
  for (std::uint32_t i = 1; i < delta; ++i) {
    const NodeId t = set[i];
    bool hit = false;
    for (std::uint32_t m = 0; m < i; ++m) hit |= set[m] == t;
    set[i] = hit ? static_cast<NodeId>(j0 + i) : t;
  }
}

void load_ranked_scalar(const CounterRng& rng, NodeId v, std::uint64_t j0,
                        std::uint32_t delta, NodeId* set,
                        std::uint32_t* rank) {
  draw_scalar(rng, v, j0, delta, set);
  count_ranks_scalar(set, delta, rank);
  if (ranks_distinct(rank, delta)) return;
  resolve_collisions(set, delta, j0);
  count_ranks_scalar(set, delta, rank);
}

#if SAER_IMPLICIT_AVX512

#define SAER_AVX512_TARGET __attribute__((target("avx512f,avx512dq,avx512vl")))

// The draws as a plain lane loop, which the compiler vectorizes eight
// 64-bit lanes per vector (vpmullq for splitmix64's multiplies).  Every
// bound j + 1 <= n < 2^32, so detail::lemire_split's two 32x32-bit
// products give Lemire's high word exactly.  Returns false if any lane has
// lo < bound -- there bounded_from may draw again, so the caller redoes
// the row with the scalar draws.
SAER_AVX512_TARGET bool draw_avx512(const CounterRng& rng, NodeId v,
                                    std::uint64_t j0, std::uint32_t delta,
                                    NodeId* set) {
  std::uint64_t below = 0;
  for (std::uint32_t i = 0; i < delta; ++i) {
    const std::uint64_t j = j0 + i;
    const auto bound = static_cast<std::uint32_t>(j + 1);
    const detail::LemireWord w = detail::lemire_split(rng.at(v, j), bound);
    set[i] = static_cast<NodeId>(w.value);
    below |= w.lo < bound ? 1 : 0;
  }
  return below == 0;
}

// count_ranks_scalar sixteen lanes per vector: set[j] broadcast, compared
// against the block's lanes into a mask, and the mask's lanes counted by a
// masked add.  Blocks run to Delta rounded up to 16 <= kMaxRankDelta;
// lanes from Delta on hold 0 and count nothing.
SAER_AVX512_TARGET void count_ranks_avx512(const NodeId* set,
                                           std::uint32_t delta,
                                           std::uint32_t* rank) {
  const __m512i one = _mm512_set1_epi32(1);
  for (std::uint32_t b = 0; b < delta; b += 16) {
    const __m512i lane = _mm512_loadu_si512(set + b);
    __m512i count = _mm512_setzero_si512();
    for (std::uint32_t j = 0; j < delta; ++j) {
      const __mmask16 less = _mm512_cmplt_epu32_mask(
          _mm512_set1_epi32(static_cast<int>(set[j])), lane);
      count = _mm512_mask_add_epi32(count, less, count, one);
    }
    _mm512_storeu_si512(rank + b, count);
  }
}

SAER_AVX512_TARGET void load_ranked_avx512(const CounterRng& rng, NodeId v,
                                           std::uint64_t j0,
                                           std::uint32_t delta, NodeId* set,
                                           std::uint32_t* rank) {
  if (!draw_avx512(rng, v, j0, delta, set)) draw_scalar(rng, v, j0, delta, set);
  count_ranks_avx512(set, delta, rank);
  if (ranks_distinct(rank, delta)) return;
  resolve_collisions(set, delta, j0);
  count_ranks_avx512(set, delta, rank);
}

#undef SAER_AVX512_TARGET

// The CPU probe, run once per process on first use.
bool cpu_has_avx512() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512dq") &&
           __builtin_cpu_supports("avx512vl");
  }();
  return has;
}

#endif  // SAER_IMPLICIT_AVX512

}  // namespace

namespace detail {

RankedLoad ranked_load(RowKernel kernel) noexcept {
  switch (kernel) {
    case RowKernel::kScalar:
      return &load_ranked_scalar;
    case RowKernel::kAvx512:
#if SAER_IMPLICIT_AVX512
      if (cpu_has_avx512()) return &load_ranked_avx512;
#endif
      return nullptr;
  }
  return nullptr;
}

RowKernel dispatched_row_kernel() noexcept {
  return ranked_load(RowKernel::kAvx512) != nullptr ? RowKernel::kAvx512
                                                    : RowKernel::kScalar;
}

const char* row_kernel_name(RowKernel kernel) noexcept {
  return kernel == RowKernel::kAvx512 ? "avx512" : "scalar";
}

}  // namespace detail

ImplicitRowSampler::ImplicitRowSampler(const ImplicitRegularTopology& topo)
    : topo_(&topo),
      load_ranked_(detail::ranked_load(detail::dispatched_row_kernel())),
      delta_(topo.degree()),
      width_(delta_ <= kMaxRankDelta ? (delta_ + 7) & ~7u : 0) {}

void ImplicitRowSampler::load(NodeId v) {
  if (width_ == 0) {
    topo_->neighbors(v, sorted_);
    return;
  }
  load_ranked_(topo_->rng_, v, topo_->n_ - delta_, delta_, set_.data(),
               rank_.data());
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
