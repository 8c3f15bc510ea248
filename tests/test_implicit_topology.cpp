// Materialized-twin equivalence suite for the implicit topology family
// (graph/implicit_topology.hpp).  The implicit engine path is only correct
// if regeneration is (a) deterministic, (b) exactly the distribution the
// materialized twin stores, and (c) invisible to every engine observable.
// These tests pin all three:
//
//   * ~200 randomized (n, delta, seed) cases: repeated regeneration is
//     bit-stable, rows are sorted/unique/degree-exact, and each row equals
//     the materialize() twin's CSR row element for element;
//   * boundary shapes n=1, delta=1, delta=n;
//   * full engine runs (both protocols, deep trace, store_assignment on
//     and off, reused workspaces, every team width) are bit-identical
//     between the implicit topology and its materialized twin;
//   * ImplicitRowSampler's rank select equals neighbors(v)[k] and the
//     insert oracle's row[k] for every k, on both sides of its cutoff;
//   * both ranked-load kernels (scalar and AVX-512), called directly,
//     leave set, ranks and every [k] equal to neighbors(v), and the
//     32x32-bit Lemire split equals Xoshiro256ss::bounded_from;
//   * the dynamic engine's implicit mode matches its stored twin
//     step for step.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dynamic.hpp"
#include "core/engine.hpp"
#include "graph/implicit_topology.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace saer {
namespace {

std::vector<NodeId> row_of(const ImplicitRegularTopology& topo, NodeId v) {
  std::vector<NodeId> out;
  topo.neighbors(v, out);
  return out;
}

TEST(ImplicitTopology, RandomizedCasesMatchMaterializedTwin) {
  // 200 independent (n, delta, seed) triples.  Shapes are drawn from the
  // counter RNG so the sweep is reproducible yet covers delta = 1, delta =
  // n, and everything between.
  const CounterRng shapes(0xfeed5eedULL);
  for (std::uint64_t t = 0; t < 200; ++t) {
    const auto n =
        static_cast<NodeId>(1 + shapes.bounded(t, 0, 64));  // n in [1, 64]
    const auto delta =
        static_cast<std::uint32_t>(1 + shapes.bounded(t, 1, n));
    const std::uint64_t seed = shapes.at(t, 2);
    const ImplicitRegularTopology topo(n, delta, seed);
    ASSERT_EQ(topo.num_clients(), n);
    ASSERT_EQ(topo.num_servers(), n);
    ASSERT_EQ(topo.degree(), delta);

    const BipartiteGraph twin = topo.materialize();
    ASSERT_EQ(twin.num_clients(), n);
    ASSERT_EQ(twin.num_servers(), n);

    // An independently constructed descriptor must regenerate identically:
    // rows are a pure function of (seed, v), not of instance history.
    const ImplicitRegularTopology again(n, delta, seed);
    std::vector<NodeId> row;
    for (NodeId v = 0; v < n; ++v) {
      topo.neighbors(v, row);
      ASSERT_EQ(row.size(), delta) << "n=" << n << " delta=" << delta
                                   << " seed=" << seed << " v=" << v;
      for (std::size_t i = 1; i < row.size(); ++i) {
        ASSERT_LT(row[i - 1], row[i]) << "row not sorted-unique";
      }
      for (const NodeId u : row) ASSERT_LT(u, n);
      // Twin CSR row: element-for-element equal.
      const auto nb = twin.client_neighbors(v);
      ASSERT_EQ(row.size(), nb.size());
      ASSERT_TRUE(std::equal(row.begin(), row.end(), nb.begin()));
      // Regeneration is bit-stable across calls and instances.
      ASSERT_EQ(row, row_of(topo, v));
      ASSERT_EQ(row, row_of(again, v));
    }
  }
}

TEST(ImplicitTopology, BoundaryShapes) {
  {
    const ImplicitRegularTopology one(1, 1, 7);
    EXPECT_EQ(row_of(one, 0), std::vector<NodeId>{0});
    const BipartiteGraph twin = one.materialize();
    EXPECT_EQ(twin.num_edges(), 1u);
  }
  {
    // delta = 1: every client has exactly one uniformly drawn server.
    const ImplicitRegularTopology thin(1024, 1, 99);
    for (NodeId v = 0; v < 1024; v += 37) {
      const auto row = row_of(thin, v);
      ASSERT_EQ(row.size(), 1u);
      ASSERT_LT(row[0], 1024u);
    }
  }
  {
    // delta = n: the row is forced to be the full server set.
    const ImplicitRegularTopology full(64, 64, 3);
    for (NodeId v = 0; v < 64; ++v) {
      const auto row = row_of(full, v);
      ASSERT_EQ(row.size(), 64u);
      for (NodeId u = 0; u < 64; ++u) ASSERT_EQ(row[u], u);
    }
  }
}

TEST(ImplicitTopology, RejectsInvalidShapes) {
  EXPECT_THROW(ImplicitRegularTopology(0, 1, 1), std::invalid_argument);
  EXPECT_THROW(ImplicitRegularTopology(8, 0, 1), std::invalid_argument);
  EXPECT_THROW(ImplicitRegularTopology(8, 9, 1), std::invalid_argument);
}

TEST(ImplicitTopology, SeedsAreIndependent) {
  // Different graph seeds must give different topologies (overwhelmingly);
  // same seed always gives the same one.
  const ImplicitRegularTopology a(256, 8, 1);
  const ImplicitRegularTopology b(256, 8, 2);
  bool any_diff = false;
  for (NodeId v = 0; v < 256 && !any_diff; ++v) {
    any_diff = row_of(a, v) != row_of(b, v);
  }
  EXPECT_TRUE(any_diff);
}

// Reference rows: Floyd's rule as the implicit family's golden hashes were
// recorded with it -- the earlier neighbors() loop kept verbatim, one
// lower_bound + insert per draw.  neighbors() must reproduce these rows
// exactly, since every golden hash and twin test of the family rests on
// them.
std::vector<NodeId> floyd_insert_oracle(NodeId n, std::uint32_t delta,
                                        std::uint64_t seed, NodeId v) {
  const CounterRng rng_(seed);
  const NodeId n_ = n;
  const std::uint32_t delta_ = delta;
  std::vector<NodeId> out;
  out.clear();
  out.reserve(delta_);
  for (std::uint64_t j = n_ - delta_; j < n_; ++j) {
    const auto t = static_cast<NodeId>(rng_.bounded(v, j, j + 1));
    const auto it = std::lower_bound(out.begin(), out.end(), t);
    if (it != out.end() && *it == t) {
      out.push_back(static_cast<NodeId>(j));
    } else {
      out.insert(it, t);
    }
  }
  return out;
}

constexpr std::uint64_t kOracleSeeds[] = {1, 7, 2026, 0xdeadbeefcafef00dULL};

TEST(ImplicitTopology, RowsMatchInsertOracleOnCollisionHeavyShapes) {
  // Small n makes Floyd's collision fallback frequent (at delta = n every
  // late draw collides), so both placement branches are exercised.
  for (const NodeId n : {NodeId{17}, NodeId{64}}) {
    for (const std::uint32_t delta : {1u, 2u, 16u, 64u, n}) {
      if (delta > n) continue;
      for (const std::uint64_t seed : kOracleSeeds) {
        const ImplicitRegularTopology topo(n, delta, seed);
        for (NodeId v = 0; v < n; ++v) {
          ASSERT_EQ(row_of(topo, v), floyd_insert_oracle(n, delta, seed, v))
              << "n=" << n << " delta=" << delta << " seed=" << seed
              << " v=" << v;
        }
      }
    }
  }
}

TEST(ImplicitTopology, RowsMatchInsertOracleAtScale) {
  // Sampled clients of the 2^22 shapes the engine benchmarks run: the
  // engine degree and the Theorem 1 degree log2(n)^2 = 484.
  constexpr NodeId n = NodeId{1} << 22;
  const CounterRng pick(0x0a11ce5ULL);
  for (const std::uint32_t delta : {16u, 484u}) {
    for (const std::uint64_t seed : kOracleSeeds) {
      const ImplicitRegularTopology topo(n, delta, seed);
      for (std::uint64_t t = 0; t < 64; ++t) {
        auto v = static_cast<NodeId>(pick.bounded(t, seed, n));
        if (t == 0) v = 0;
        if (t == 1) v = n - 1;
        ASSERT_EQ(row_of(topo, v), floyd_insert_oracle(n, delta, seed, v))
            << "delta=" << delta << " seed=" << seed << " v=" << v;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ImplicitRowSampler: rank select over the unsorted Floyd set must return
// neighbors(v)[k] -- and the insert oracle's row[k] -- for every k, on
// both sides of kMaxRankDelta.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kCutoff = ImplicitRowSampler::kMaxRankDelta;

/// Checks every rank of `clients` clients of the shape (all of them when
/// clients >= n, else a seeded sample including 0 and n - 1), loading them
/// one after another into a single sampler so stale state would show.
void expect_select_matches(NodeId n, std::uint32_t delta, std::uint64_t seed,
                           NodeId clients) {
  const ImplicitRegularTopology topo(n, delta, seed);
  ImplicitRowSampler row(topo);
  const CounterRng pick(seed ^ 0x5e1ec7ULL);
  const NodeId count = std::min(n, clients);
  for (NodeId t = 0; t < count; ++t) {
    NodeId v = t;
    if (clients < n && t > 0) {
      v = t == 1 ? n - 1 : static_cast<NodeId>(pick.bounded(t, delta, n));
    }
    row.load(v);
    const std::vector<NodeId> sorted = row_of(topo, v);
    ASSERT_EQ(sorted, floyd_insert_oracle(n, delta, seed, v))
        << "n=" << n << " delta=" << delta << " seed=" << seed << " v=" << v;
    for (std::uint32_t k = 0; k < delta; ++k) {
      ASSERT_EQ(row[k], sorted[k]) << "n=" << n << " delta=" << delta
                                   << " seed=" << seed << " v=" << v
                                   << " k=" << k;
    }
  }
}

TEST(ImplicitRowSampler, SelectMatchesSortedRowOnRandomShapes) {
  // 150 seeded (n, delta, seed) triples, every client and rank.
  const CounterRng shapes(0x5e1ec75eedULL);
  for (std::uint64_t t = 0; t < 150; ++t) {
    const auto n = static_cast<NodeId>(1 + shapes.bounded(t, 0, 300));
    const auto delta = static_cast<std::uint32_t>(1 + shapes.bounded(t, 1, n));
    expect_select_matches(n, delta, shapes.at(t, 2), n);
  }
}

TEST(ImplicitRowSampler, SelectMatchesOnBoundaryAndCollisionHeavyShapes) {
  for (const std::uint64_t seed : kOracleSeeds) {
    // delta = 1 and delta = n.
    for (const NodeId n : {NodeId{1}, NodeId{2}, NodeId{1024}}) {
      expect_select_matches(n, 1, seed, n);
    }
    for (const NodeId n : {NodeId{2}, NodeId{16}, NodeId{64}}) {
      expect_select_matches(n, n, seed, n);
    }
    // n close to delta: Floyd's fallback fires for most late draws.
    for (const NodeId n : {16u, 17u, 20u, 32u, 100u}) {
      expect_select_matches(n, 16, seed, n);
    }
    for (const std::uint32_t delta : {8u, 64u}) {
      for (const NodeId n : {delta, delta + 1, 2 * delta}) {
        expect_select_matches(n, delta, seed, n);
      }
    }
  }
}

TEST(ImplicitRowSampler, SelectMatchesOnBothSidesOfTheCutoff) {
  // kCutoff takes the rank-count path, kCutoff + 1 the sorted fallback.
  for (const std::uint32_t delta : {kCutoff - 1, kCutoff, kCutoff + 1}) {
    for (const NodeId n : {delta, delta + 1, 2 * delta}) {
      expect_select_matches(n, delta, 2026, n);
    }
    expect_select_matches(NodeId{1} << 22, delta, 7, 64);
  }
}

TEST(ImplicitRowSampler, SelectMatchesAtScale) {
  // The perfbench and BM shapes (n = 2^22, delta = 16) and the cutoff
  // microbenchmark's widths.
  for (const std::uint32_t delta : {16u, 32u, 64u}) {
    for (const std::uint64_t seed : kOracleSeeds) {
      expect_select_matches(NodeId{1} << 22, delta, seed, 2048);
    }
  }
}

TEST(ImplicitRowSampler, CopiesAreIndependent) {
  // The engines copy a loaded sampler into every scatter chunk; a copy's
  // loads must not disturb the original's row.
  for (const std::uint32_t delta : {12u, kCutoff + 1}) {
    const ImplicitRegularTopology topo(4096, delta, 5);
    ImplicitRowSampler a(topo);
    a.load(17);
    ImplicitRowSampler b = a;
    b.load(18);
    const std::vector<NodeId> row17 = row_of(topo, 17);
    const std::vector<NodeId> row18 = row_of(topo, 18);
    for (std::uint32_t k = 0; k < delta; ++k) {
      ASSERT_EQ(a[k], row17[k]) << "delta=" << delta << " k=" << k;
      ASSERT_EQ(b[k], row18[k]) << "delta=" << delta << " k=" << k;
    }
  }
}

// ---------------------------------------------------------------------------
// The ranked-load kernels (detail::RowKernel), called directly: the scalar
// kernel always, so an AVX-512 host still tests the fallback, and the
// AVX-512 kernel wherever the CPU has it.  Each must leave the set, the
// ranks and every [k] equal to neighbors(v).
// ---------------------------------------------------------------------------

using detail::RowKernel;

/// Loads client v through `kernel`'s entry point into `set`/`rank` and
/// checks them against neighbors(v): the set is the row in some order,
/// each lane's rank is its index in the sorted row, lanes from delta on
/// stay 0 with rank 0, and the lane of rank k -- what
/// ImplicitRowSampler::operator[] reads -- is sorted[k] for every k.
void expect_kernel_row_matches(RowKernel kernel,
                               const ImplicitRegularTopology& topo, NodeId v,
                               std::array<NodeId, kCutoff>& set,
                               std::array<std::uint32_t, kCutoff>& rank) {
  const NodeId n = topo.num_clients();
  const std::uint32_t delta = topo.degree();
  const CounterRng rng(topo.graph_seed());
  const std::vector<NodeId> sorted = row_of(topo, v);
  detail::ranked_load(kernel)(rng, v, n - delta, delta, set.data(),
                              rank.data());
  const auto where = [&] {
    return std::string(detail::row_kernel_name(kernel)) +
           " n=" + std::to_string(n) + " delta=" + std::to_string(delta) +
           " seed=" + std::to_string(topo.graph_seed()) +
           " v=" + std::to_string(v);
  };
  std::vector<NodeId> drawn(set.begin(), set.begin() + delta);
  std::sort(drawn.begin(), drawn.end());
  ASSERT_EQ(drawn, sorted) << where();
  const std::uint32_t width = (delta + 7) & ~7u;
  for (std::uint32_t i = 0; i < width; ++i) {
    if (i < delta) {
      ASSERT_LT(rank[i], delta) << where() << " lane " << i;
      ASSERT_EQ(sorted[rank[i]], set[i]) << where() << " lane " << i;
    } else {
      ASSERT_EQ(set[i], 0u) << where() << " tail lane " << i;
      ASSERT_EQ(rank[i], 0u) << where() << " tail lane " << i;
    }
  }
  for (std::uint32_t k = 0; k < delta; ++k) {
    NodeId at_k = 0;
    for (std::uint32_t i = 0; i < width; ++i) {
      at_k |= rank[i] == k ? set[i] : NodeId{0};
    }
    ASSERT_EQ(at_k, sorted[k]) << where() << " k=" << k;
  }
}

/// expect_kernel_row_matches over `clients` clients of the shape (all of
/// them when clients >= n, else a seeded sample including 0 and n - 1),
/// one after another into the same arrays so stale state would show.
void expect_kernel_matches(RowKernel kernel, NodeId n, std::uint32_t delta,
                           std::uint64_t seed, NodeId clients) {
  ASSERT_NE(detail::ranked_load(kernel), nullptr);
  const ImplicitRegularTopology topo(n, delta, seed);
  std::array<NodeId, kCutoff> set{};
  std::array<std::uint32_t, kCutoff> rank{};
  const CounterRng pick(seed ^ 0xca11ab1eULL);
  const NodeId count = std::min(n, clients);
  for (NodeId t = 0; t < count; ++t) {
    NodeId v = t;
    if (clients < n && t > 0) {
      v = t == 1 ? n - 1 : static_cast<NodeId>(pick.bounded(t, delta, n));
    }
    expect_kernel_row_matches(kernel, topo, v, set, rank);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

void expect_kernel_matches_all_shapes(RowKernel kernel) {
  // Random shapes, every client and rank.
  const CounterRng shapes(0x6e7e15eedULL);
  for (std::uint64_t t = 0; t < 60; ++t) {
    const auto n = static_cast<NodeId>(1 + shapes.bounded(t, 0, 300));
    const auto delta = static_cast<std::uint32_t>(
        1 + shapes.bounded(t, 1, std::min<NodeId>(n, kCutoff)));
    expect_kernel_matches(kernel, n, delta, shapes.at(t, 2), n);
  }
  // The vector kernel's block edges: one lane, a block short, exact and
  // one over, and the cutoff.  At n = delta + 3 most late draws collide;
  // at n = 2^22 they almost never do.
  for (const std::uint32_t delta : {1u, 15u, 16u, 17u, 31u, 33u, 255u, 256u}) {
    for (const std::uint64_t seed : kOracleSeeds) {
      expect_kernel_matches(kernel, delta + 3, delta, seed, 64);
      expect_kernel_matches(kernel, NodeId{1} << 22, delta, seed, 64);
    }
  }
  // Collision-heavy shapes: delta = n, and n close to delta.
  for (const std::uint64_t seed : kOracleSeeds) {
    for (const NodeId n : {NodeId{1}, NodeId{2}, NodeId{16}, NodeId{64}}) {
      expect_kernel_matches(kernel, n, n, seed, n);
    }
    for (const NodeId n : {16u, 17u, 20u, 32u, 100u}) {
      expect_kernel_matches(kernel, n, 16, seed, n);
    }
  }
}

TEST(ImplicitRowKernel, ReportsTheDispatchedKernel) {
  const RowKernel dispatched = detail::dispatched_row_kernel();
  std::printf("[          ] implicit row kernel: %s\n",
              detail::row_kernel_name(dispatched));
  RecordProperty("implicit_kernel", detail::row_kernel_name(dispatched));
  EXPECT_NE(detail::ranked_load(RowKernel::kScalar), nullptr);
  EXPECT_NE(detail::ranked_load(dispatched), nullptr);
  // The AVX-512 kernel runs wherever it exists.
  const bool has_avx512 = detail::ranked_load(RowKernel::kAvx512) != nullptr;
  EXPECT_EQ(dispatched == RowKernel::kAvx512, has_avx512);
}

TEST(ImplicitRowKernel, ScalarMatchesNeighbors) {
  expect_kernel_matches_all_shapes(RowKernel::kScalar);
}

TEST(ImplicitRowKernel, Avx512MatchesNeighbors) {
  if (detail::ranked_load(RowKernel::kAvx512) == nullptr) {
    GTEST_SKIP() << "no AVX-512 kernel on this build or CPU";
  }
  expect_kernel_matches_all_shapes(RowKernel::kAvx512);
}

TEST(ImplicitRowKernel, LemireRejectionRowMatches) {
  // A row the vector kernel must hand back to the scalar draws: at
  // n = 4293950049, seed 2, client 126760119, draw 9 (j = n - 16 + 9) has
  // lo < 2^64 mod (j + 1), so bounded_from rejects the first word and the
  // split's value is not the draw.  Found by search; at this n about one
  // draw in 2^32 rejects.
  constexpr NodeId n = 4293950049u;
  constexpr NodeId v = 126760119u;
  const ImplicitRegularTopology topo(n, 16, 2);
  const CounterRng rng(2);
  const std::uint64_t j = n - 16 + 9;
  const detail::LemireWord split =
      detail::lemire_split(rng.at(v, j), static_cast<std::uint32_t>(j + 1));
  ASSERT_LT(split.lo, j + 1);
  ASSERT_NE(split.value, rng.bounded(v, j, j + 1));
  for (const RowKernel kernel : {RowKernel::kScalar, RowKernel::kAvx512}) {
    if (detail::ranked_load(kernel) == nullptr) continue;
    std::array<NodeId, kCutoff> set{};
    std::array<std::uint32_t, kCutoff> rank{};
    expect_kernel_row_matches(kernel, topo, v, set, rank);
  }
  // And through the sampler the engines hold.
  ImplicitRowSampler row(topo);
  row.load(v);
  const std::vector<NodeId> sorted = row_of(topo, v);
  for (std::uint32_t k = 0; k < 16; ++k) {
    ASSERT_EQ(row[k], sorted[k]) << "k=" << k;
  }
}

/// Words a generator hands bounded_from after the first: the split is only
/// trusted where bounded_from never asks for one.
struct NoRedraw {
  std::uint64_t operator()() {
    ADD_FAILURE() << "bounded_from drew again for a word with lo >= bound";
    return 0;
  }
};

TEST(ImplicitRowKernel, LemireSplitMatchesBoundedFrom) {
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpedantic"
  using u128 = unsigned __int128;
#pragma GCC diagnostic pop
  const CounterRng words(0x1e3117eULL);
  for (const std::uint32_t bound :
       {1u, 2u, 3u, 17u, 1000003u, (1u << 22) - 15, 1u << 22, 0x80000001u,
        0xfffffffeu, 0xffffffffu}) {
    // 0 and ceil(2^64 / bound) have lo < bound: the first two words whose
    // products land below the bound above a multiple of 2^64.
    // ceil(2^64 / bound) - 1 is the last word with value 0.
    std::vector<std::uint64_t> cases = {0, 1, ~std::uint64_t{0}};
    if (bound > 1) {
      const auto ceil = static_cast<std::uint64_t>(
          ((u128{1} << 64) + bound - 1) / bound);
      cases.insert(cases.end(), {ceil - 1, ceil, ceil + 1});
    }
    for (std::uint64_t t = 0; t < 2000; ++t) {
      cases.push_back(words.at(bound, t));
    }
    for (const std::uint64_t word : cases) {
      const detail::LemireWord split = detail::lemire_split(word, bound);
      const u128 product = u128{word} * bound;
      ASSERT_EQ(split.value, static_cast<std::uint64_t>(product >> 64))
          << "word=" << word << " bound=" << bound;
      ASSERT_EQ(split.lo, static_cast<std::uint64_t>(product))
          << "word=" << word << " bound=" << bound;
      if (split.lo >= bound) {
        NoRedraw gen;
        ASSERT_EQ(split.value, Xoshiro256ss::bounded_from(word, bound, gen))
            << "word=" << word << " bound=" << bound;
      }
    }
    EXPECT_LT(detail::lemire_split(0, bound).lo, bound);
    if (bound > 1) {
      const auto ceil = static_cast<std::uint64_t>(
          ((u128{1} << 64) + bound - 1) / bound);
      EXPECT_GE(detail::lemire_split(ceil - 1, bound).lo, bound);
      EXPECT_EQ(detail::lemire_split(ceil - 1, bound).value, 0u);
      EXPECT_LT(detail::lemire_split(ceil, bound).lo, bound);
      EXPECT_EQ(detail::lemire_split(ceil, bound).value, 1u);
    }
  }
}

TEST(ImplicitTopology, StaleOutputBufferIsOverwritten) {
  // neighbors() reuses the caller's buffer: whatever it held before --
  // more elements than delta, or fewer, with arbitrary values -- the
  // result is exactly the row.
  const ImplicitRegularTopology topo(4096, 16, 5);
  for (const std::size_t stale_size : {std::size_t{3}, std::size_t{16},
                                       std::size_t{100}}) {
    for (NodeId v = 0; v < 4096; v += 97) {
      std::vector<NodeId> out(stale_size, NodeId{0xffffffffu});
      for (std::size_t i = 0; i < out.size(); i += 2) {
        out[i] = static_cast<NodeId>(i);
      }
      topo.neighbors(v, out);
      ASSERT_EQ(out, floyd_insert_oracle(4096, 16, 5, v))
          << "stale_size=" << stale_size << " v=" << v;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine equivalence: run_protocol(topo, ...) vs run_protocol(twin, ...).
// RunResult has no operator==; compare every field explicitly.
// ---------------------------------------------------------------------------

void expect_identical(const RunResult& a, const RunResult& b,
                      const char* what) {
  EXPECT_EQ(a.completed, b.completed) << what;
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.total_balls, b.total_balls) << what;
  EXPECT_EQ(a.alive_balls, b.alive_balls) << what;
  EXPECT_EQ(a.work_messages, b.work_messages) << what;
  EXPECT_EQ(a.max_load, b.max_load) << what;
  EXPECT_EQ(a.burned_servers, b.burned_servers) << what;
  EXPECT_EQ(a.assignment, b.assignment) << what;
  EXPECT_EQ(a.loads, b.loads) << what;
  ASSERT_EQ(a.trace.size(), b.trace.size()) << what;
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    const RoundStats& x = a.trace[i];
    const RoundStats& y = b.trace[i];
    EXPECT_EQ(x.round, y.round) << what;
    EXPECT_EQ(x.alive_begin, y.alive_begin) << what;
    EXPECT_EQ(x.submitted, y.submitted) << what;
    EXPECT_EQ(x.accepted, y.accepted) << what;
    EXPECT_EQ(x.newly_burned, y.newly_burned) << what;
    EXPECT_EQ(x.burned_total, y.burned_total) << what;
    EXPECT_EQ(x.saturated, y.saturated) << what;
    EXPECT_EQ(x.r_max_server, y.r_max_server) << what;
    // Deep doubles must be bit-identical, not just close.
    EXPECT_EQ(std::memcmp(&x.s_max, &y.s_max, sizeof(double)), 0) << what;
    EXPECT_EQ(std::memcmp(&x.k_max, &y.k_max, sizeof(double)), 0) << what;
    EXPECT_EQ(x.r_max_neighborhood, y.r_max_neighborhood) << what;
  }
}

TEST(ImplicitEngine, MatchesTwinBothProtocols) {
  const ImplicitRegularTopology topo(4096, 12, 2026);
  const BipartiteGraph twin = topo.materialize();
  for (const Protocol proto : {Protocol::kSaer, Protocol::kRaes}) {
    ProtocolParams p;
    p.protocol = proto;
    p.d = 2;
    p.c = proto == Protocol::kSaer ? 2.0 : 1.5;
    p.seed = 11;
    expect_identical(run_protocol(topo, p), run_protocol(twin, p),
                     to_string(proto).c_str());
    // Audit the implicit run's assignment against the twin's adjacency:
    // every ball must have landed inside its client's neighborhood.
    check_result(twin, p, run_protocol(topo, p));
  }
}

TEST(ImplicitEngine, MatchesTwinWithDeepTrace) {
  // deep_trace drives the templated deep_scan through ImplicitSource's
  // thread_local regeneration path (and forces the Recv64 policy).
  const ImplicitRegularTopology topo(2048, 8, 31);
  const BipartiteGraph twin = topo.materialize();
  ProtocolParams p;
  p.d = 2;
  p.c = 1.2;  // low c: burning makes s_max/k_max non-trivial
  p.seed = 5;
  p.deep_trace = true;
  expect_identical(run_protocol(topo, p), run_protocol(twin, p), "deep");
}

TEST(ImplicitEngine, MatchesTwinWithoutAssignment) {
  const ImplicitRegularTopology topo(4096, 12, 2026);
  const BipartiteGraph twin = topo.materialize();
  ProtocolParams p;
  p.d = 2;
  p.c = 2.0;
  p.seed = 11;
  p.store_assignment = false;
  const RunResult imp = run_protocol(topo, p);
  EXPECT_TRUE(imp.assignment.empty());
  expect_identical(imp, run_protocol(twin, p), "no-assignment");
}

TEST(ImplicitEngine, WorkspaceReuseAcrossModesAndSizes) {
  // One workspace serving an interleaving of implicit and stored runs of
  // different shapes must leave every run bit-identical to a fresh-
  // workspace run -- the implicit cursors own their row buffers, so reuse
  // leaves no topology state behind in the workspace.
  EngineWorkspace ws;
  const ImplicitRegularTopology big(4096, 12, 2026);
  const ImplicitRegularTopology small(512, 6, 7);
  const BipartiteGraph big_twin = big.materialize();
  ProtocolParams p;
  p.d = 2;
  p.c = 2.0;
  p.seed = 11;
  const RunResult fresh_big = run_protocol(big, p);
  const RunResult fresh_small = run_protocol(small, p);
  expect_identical(run_protocol(big, p, ws), fresh_big, "big#1");
  expect_identical(run_protocol(small, p, ws), fresh_small, "small");
  expect_identical(run_protocol(big_twin, p, ws), fresh_big, "stored");
  expect_identical(run_protocol(big, p, ws), fresh_big, "big#2");
}

TEST(ImplicitEngine, MatchesTwinAcrossTeamWidths) {
  // 2^15 clients x d=2 clears kIntraRunMinBalls, so widths > 1 exercise
  // the chunked scatter with per-chunk implicit cursors and the ring.
  const ImplicitRegularTopology topo(1u << 15, 10, 404);
  const BipartiteGraph twin = topo.materialize();
  ProtocolParams p;
  p.d = 2;
  p.c = 2.0;
  p.seed = 99;
  const RunResult reference = run_protocol(twin, p);
  EngineWorkspace ws;
  for (const int threads : {1, 2, 4, 8}) {
    set_thread_count(threads);
    expect_identical(run_protocol(topo, p, ws), reference, "width");
  }
  set_thread_count(0);
}

TEST(ImplicitEngine, MatchesTwinAcrossDemandsDegreesAndWidths) {
  // d = 1 is the perfbench implicit-2e22 shape and d = 3 an odd demand;
  // the degrees straddle kMaxRankDelta, so both the rank-select path and
  // the sorted fallback run.  Every point holds >= 2^15 balls, so width 4
  // runs the chunked scatter with per-chunk cursors.
  struct Shape {
    NodeId n;
    std::uint32_t delta;
    std::uint32_t d;
    double c;
  };
  const Shape shapes[] = {
      {1u << 15, 16, 1, 4.0},
      {11000, 16, 3, 2.0},
      {1u << 15, kCutoff + 1, 1, 4.0},
      {11000, kCutoff, 3, 2.0},
      {11000, kCutoff + 1, 3, 2.0},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(::testing::Message() << "n=" << shape.n
                                      << " delta=" << shape.delta
                                      << " d=" << shape.d);
    const ImplicitRegularTopology topo(shape.n, shape.delta, 404);
    const BipartiteGraph twin = topo.materialize();
    ProtocolParams p;
    p.d = shape.d;
    p.c = shape.c;
    p.seed = 99;
    set_thread_count(1);
    const RunResult reference = run_protocol(twin, p);
    for (const int threads : {1, 4}) {
      set_thread_count(threads);
      expect_identical(run_protocol(topo, p), reference, "width");
    }
  }
  set_thread_count(0);
}

TEST(ImplicitDynamic, MatchesTwinRunDynamic) {
  const ImplicitRegularTopology topo(2048, 8, 55);
  const BipartiteGraph twin = topo.materialize();
  DynamicParams p;
  p.base.d = 2;
  p.base.c = 2.0;
  p.base.seed = 17;
  p.arrivals_per_round = 128;
  p.server_failure_rate = 0.001;
  const DynamicResult a = run_dynamic(topo, p);
  const DynamicResult b = run_dynamic(twin, p);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.total_balls, b.total_balls);
  EXPECT_EQ(a.unassigned_balls, b.unassigned_balls);
  EXPECT_EQ(a.max_load, b.max_load);
  EXPECT_EQ(a.burned_servers, b.burned_servers);
  EXPECT_EQ(a.failed_servers, b.failed_servers);
  EXPECT_EQ(a.work_messages, b.work_messages);
  EXPECT_EQ(a.latency_p50, b.latency_p50);
  EXPECT_EQ(a.latency_p99, b.latency_p99);
  EXPECT_EQ(a.latency_max, b.latency_max);
  EXPECT_EQ(a.max_load_series, b.max_load_series);
  EXPECT_EQ(a.backlog_series, b.backlog_series);
}

/// Drives an implicit DynamicEngine and its stored twin through the same
/// bursts and requires equal step stats and final snapshots.
void expect_dynamic_step_for_step(NodeId n, std::uint32_t delta,
                                  std::uint32_t d, std::uint64_t seed) {
  const ImplicitRegularTopology topo(n, delta, 77);
  const BipartiteGraph twin = topo.materialize();
  DynamicParams p;
  p.base.d = d;
  p.base.c = 2.0;
  p.base.seed = seed;
  DynamicEngine imp(topo, p);
  DynamicEngine ref(twin, p);
  EXPECT_EQ(imp.num_clients(), ref.num_clients());
  for (int burst = 0; burst < 4; ++burst) {
    imp.inject(200);
    ref.inject(200);
    for (int s = 0; s < 3; ++s) {
      const DynamicStepStats a = imp.step();
      const DynamicStepStats b = ref.step();
      EXPECT_EQ(a.round, b.round);
      EXPECT_EQ(a.activated_balls, b.activated_balls);
      EXPECT_EQ(a.settled_balls, b.settled_balls);
      EXPECT_EQ(a.backlog, b.backlog);
      EXPECT_EQ(a.max_load, b.max_load);
    }
  }
  const ServiceMetrics ma = imp.snapshot();
  const ServiceMetrics mb = ref.snapshot();
  EXPECT_EQ(ma.assigned_balls, mb.assigned_balls);
  EXPECT_EQ(ma.backlog, mb.backlog);
  EXPECT_EQ(ma.max_load, mb.max_load);
  EXPECT_EQ(ma.burned_servers, mb.burned_servers);
}

TEST(ImplicitDynamic, StepForStepAgainstTwinEngine) {
  expect_dynamic_step_for_step(1024, 6, 2, 3);
}

TEST(ImplicitDynamic, StepForStepAboveRankCutoff) {
  // kCutoff + 1 routes the shared cursor through the sorted fallback.
  expect_dynamic_step_for_step(1024, kCutoff + 1, 1, 3);
  expect_dynamic_step_for_step(1024, kCutoff + 1, 3, 4);
}

}  // namespace
}  // namespace saer
