// Tests for graph/bipartite_graph.hpp and graph/degree_stats.hpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <typeindex>
#include <typeinfo>

#include "graph/bipartite_graph.hpp"
#include "graph/degree_stats.hpp"
#include "util/rng.hpp"

namespace saer {
namespace {

BipartiteGraph small_graph() {
  // 3 clients, 4 servers.
  return BipartiteGraph::from_edges(
      3, 4, {{0, 0}, {0, 1}, {1, 1}, {1, 2}, {1, 3}, {2, 3}});
}

TEST(BipartiteGraph, BasicShape) {
  const BipartiteGraph g = small_graph();
  EXPECT_EQ(g.num_clients(), 3u);
  EXPECT_EQ(g.num_servers(), 4u);
  EXPECT_EQ(g.num_edges(), 6u);
}

TEST(BipartiteGraph, ClientAdjacencySorted) {
  const BipartiteGraph g = small_graph();
  const auto nb = g.client_neighbors(1);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(nb[0], 1u);
  EXPECT_EQ(nb[1], 2u);
  EXPECT_EQ(nb[2], 3u);
  EXPECT_EQ(g.client_degree(1), 3u);
  EXPECT_EQ(g.client_neighbor(1, 2), 3u);
}

TEST(BipartiteGraph, ServerOrientationAgrees) {
  const BipartiteGraph g = small_graph();
  const auto nb = g.server_neighbors(1);
  ASSERT_EQ(nb.size(), 2u);
  EXPECT_EQ(nb[0], 0u);
  EXPECT_EQ(nb[1], 1u);
  EXPECT_EQ(g.server_degree(3), 2u);
  EXPECT_EQ(g.server_degree(0), 1u);
}

TEST(BipartiteGraph, HasEdge) {
  const BipartiteGraph g = small_graph();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_FALSE(g.has_edge(99, 0));
  EXPECT_FALSE(g.has_edge(0, 99));
}

TEST(BipartiteGraph, EdgesRoundTrip) {
  const BipartiteGraph g = small_graph();
  const auto edges = g.edges();
  const BipartiteGraph g2 = BipartiteGraph::from_edges(3, 4, edges);
  EXPECT_EQ(g, g2);
}

TEST(BipartiteGraph, OutOfRangeIdsRejected) {
  EXPECT_THROW(BipartiteGraph::from_edges(2, 2, {{2, 0}}), std::invalid_argument);
  EXPECT_THROW(BipartiteGraph::from_edges(2, 2, {{0, 2}}), std::invalid_argument);
}

TEST(BipartiteGraph, DuplicateEdgeRejected) {
  EXPECT_THROW(BipartiteGraph::from_edges(2, 2, {{0, 0}, {0, 0}}),
               std::invalid_argument);
}

TEST(BipartiteGraph, DuplicateEdgeAllowedWhenRequested) {
  const BipartiteGraph g =
      BipartiteGraph::from_edges(2, 2, {{0, 0}, {0, 0}}, true);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.client_degree(0), 2u);
}

TEST(BipartiteGraph, EmptyGraphIsValid) {
  const BipartiteGraph g = BipartiteGraph::from_edges(0, 0, {});
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_NO_THROW(g.validate());
}

TEST(BipartiteGraph, IsolatedNodesAllowed) {
  const BipartiteGraph g = BipartiteGraph::from_edges(3, 3, {{0, 0}});
  EXPECT_EQ(g.client_degree(1), 0u);
  EXPECT_EQ(g.server_degree(2), 0u);
  EXPECT_NO_THROW(g.validate());
}

TEST(BipartiteGraph, ValidatePassesOnWellFormed) {
  EXPECT_NO_THROW(small_graph().validate());
}

// ---------------------------------------------------------------------------
// Build-path oracle: the former from_edges, verbatim apart from writing the
// four CSR arrays into a plain struct instead of the graph's members.  It
// sorted the Edge list by (client, server) with a two-pass counting sort
// through a `by_server` copy and then filled both orientations.  The
// double-scatter from_rows, and from_edges on top of it, must produce the
// same arrays and throw the same exceptions.

struct OracleCsr {
  NodeId num_clients = 0;
  NodeId num_servers = 0;
  std::vector<EdgeId> client_off;
  std::vector<NodeId> client_adj;
  std::vector<EdgeId> server_off;
  std::vector<NodeId> server_adj;
  friend bool operator==(const OracleCsr&, const OracleCsr&) = default;
};

OracleCsr oracle_from_edges(NodeId num_clients, NodeId num_servers,
                            std::vector<Edge> edges, bool allow_multi_edges) {
  for (const Edge& e : edges) {
    if (e.client >= num_clients)
      throw std::invalid_argument("BipartiteGraph: client id out of range");
    if (e.server >= num_servers)
      throw std::invalid_argument("BipartiteGraph: server id out of range");
  }
  OracleCsr g;
  g.num_clients = num_clients;
  g.num_servers = num_servers;
  g.client_off.assign(static_cast<std::size_t>(num_clients) + 1, 0);
  g.server_off.assign(static_cast<std::size_t>(num_servers) + 1, 0);

  for (const Edge& e : edges) {
    ++g.client_off[e.client + 1];
    ++g.server_off[e.server + 1];
  }
  for (std::size_t i = 1; i < g.client_off.size(); ++i)
    g.client_off[i] += g.client_off[i - 1];
  for (std::size_t i = 1; i < g.server_off.size(); ++i)
    g.server_off[i] += g.server_off[i - 1];

  std::vector<Edge> by_server(edges.size());
  std::vector<EdgeId> cursor(g.server_off.begin(), g.server_off.end() - 1);
  for (const Edge& e : edges) by_server[cursor[e.server]++] = e;
  cursor.assign(g.client_off.begin(), g.client_off.end() - 1);
  for (const Edge& e : by_server) edges[cursor[e.client]++] = e;

  if (!allow_multi_edges) {
    const auto dup = std::adjacent_find(edges.begin(), edges.end());
    if (dup != edges.end())
      throw std::invalid_argument("BipartiteGraph: duplicate edge");
  }

  g.client_adj.resize(edges.size());
  g.server_adj.resize(edges.size());

  cursor.assign(g.server_off.begin(), g.server_off.end() - 1);
  std::size_t pos = 0;
  for (const Edge& e : edges) {
    g.client_adj[pos++] = e.server;
    g.server_adj[cursor[e.server]++] = e.client;
  }
  return g;
}

/// The graph's four CSR arrays, read back through the public accessors.
OracleCsr csr_of(const BipartiteGraph& g) {
  OracleCsr out{g.num_clients(), g.num_servers(), {0}, {}, {0}, {}};
  for (NodeId v = 0; v < g.num_clients(); ++v) {
    const auto nb = g.client_neighbors(v);
    out.client_adj.insert(out.client_adj.end(), nb.begin(), nb.end());
    out.client_off.push_back(out.client_adj.size());
  }
  for (NodeId u = 0; u < g.num_servers(); ++u) {
    const auto nb = g.server_neighbors(u);
    out.server_adj.insert(out.server_adj.end(), nb.begin(), nb.end());
    out.server_off.push_back(out.server_adj.size());
  }
  return out;
}

/// Client rows of `edges` for from_rows, each row in edge-list order (so
/// unsorted when the list is shuffled).
std::pair<std::vector<EdgeId>, std::vector<NodeId>> rows_of(
    NodeId num_clients, const std::vector<Edge>& edges) {
  std::vector<EdgeId> off(static_cast<std::size_t>(num_clients) + 1, 0);
  for (const Edge& e : edges) ++off[e.client + 1];
  for (std::size_t i = 1; i < off.size(); ++i) off[i] += off[i - 1];
  std::vector<NodeId> adj(edges.size());
  std::vector<EdgeId> cursor(off.begin(), off.end() - 1);
  for (const Edge& e : edges) adj[cursor[e.client]++] = e.server;
  return {std::move(off), std::move(adj)};
}

void shuffle_edges(std::vector<Edge>& edges, Xoshiro256ss& rng) {
  for (std::size_t i = edges.size(); i > 1; --i)
    std::swap(edges[i - 1], edges[rng.bounded(i)]);
}

/// A shuffled edge list on num_clients x num_servers.  Without
/// `allow_multi`, each pair is kept with probability `density` (a simple
/// graph; low densities leave empty rows on both sides).  With it, `count`
/// pairs are drawn with replacement, so duplicates occur.
std::vector<Edge> random_edges(NodeId num_clients, NodeId num_servers,
                               double density, bool allow_multi,
                               Xoshiro256ss& rng) {
  std::vector<Edge> edges;
  if (allow_multi) {
    const auto count = static_cast<std::uint64_t>(
        density * num_clients * num_servers * 2.0);
    for (std::uint64_t i = 0; i < count; ++i)
      edges.push_back({static_cast<NodeId>(rng.bounded(num_clients)),
                       static_cast<NodeId>(rng.bounded(num_servers))});
  } else {
    for (NodeId v = 0; v < num_clients; ++v)
      for (NodeId u = 0; u < num_servers; ++u)
        if (rng.bernoulli(density)) edges.push_back({v, u});
  }
  shuffle_edges(edges, rng);
  return edges;
}

/// The dynamic type and message of the exception `build` throws ("" and
/// typeid(void) when it throws none).
std::pair<std::type_index, std::string> thrown_by(
    const std::function<void()>& build) {
  try {
    build();
  } catch (const std::exception& err) {
    return {std::type_index(typeid(err)), err.what()};
  }
  return {std::type_index(typeid(void)), ""};
}

TEST(BipartiteGraphBuild, FromEdgesAndFromRowsMatchFormerSort) {
  Xoshiro256ss rng(20260515);
  int graphs = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const bool multi = trial % 4 == 3;
    const auto nc = static_cast<NodeId>(rng.bounded(40));
    const auto ns = static_cast<NodeId>(trial % 8 == 0 ? nc : rng.bounded(40));
    if (multi && (nc == 0 || ns == 0)) continue;
    constexpr double kDensity[] = {0.02, 0.1, 0.4, 0.9};
    const double density = kDensity[trial % 4];
    const std::vector<Edge> edges = random_edges(nc, ns, density, multi, rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + std::to_string(nc) +
                 "x" + std::to_string(ns) + ", " +
                 std::to_string(edges.size()) + " edges");

    const OracleCsr want = oracle_from_edges(nc, ns, edges, multi);
    const BipartiteGraph via_edges =
        BipartiteGraph::from_edges(nc, ns, edges, multi);
    auto [off, adj] = rows_of(nc, edges);
    const BipartiteGraph via_rows =
        BipartiteGraph::from_rows(nc, ns, std::move(off), std::move(adj), multi);
    EXPECT_EQ(csr_of(via_edges), want);
    EXPECT_EQ(via_rows, via_edges);
    if (!multi) {
      EXPECT_NO_THROW(via_rows.validate());
    }
    ++graphs;
  }
  EXPECT_GT(graphs, 100);
}

TEST(BipartiteGraphBuild, MultiEdgesKeepTheFormerLayout) {
  // Three copies of (1, 2) and two of (0, 0), shuffled among simple edges.
  std::vector<Edge> edges = {{1, 2}, {0, 0}, {2, 1}, {1, 2}, {0, 3},
                             {1, 2}, {0, 0}, {2, 3}, {1, 0}};
  Xoshiro256ss rng(7);
  for (int round = 0; round < 10; ++round) {
    shuffle_edges(edges, rng);
    const OracleCsr want = oracle_from_edges(3, 4, edges, true);
    const BipartiteGraph g = BipartiteGraph::from_edges(3, 4, edges, true);
    EXPECT_EQ(csr_of(g), want);
    auto [off, adj] = rows_of(3, edges);
    EXPECT_EQ(BipartiteGraph::from_rows(3, 4, std::move(off), std::move(adj),
                                        true),
              g);
  }
}

TEST(BipartiteGraphBuild, RejectsLikeTheFormerSort) {
  Xoshiro256ss rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    const auto nc = static_cast<NodeId>(1 + rng.bounded(20));
    const auto ns = static_cast<NodeId>(1 + rng.bounded(20));
    std::vector<Edge> edges = random_edges(nc, ns, 0.3, false, rng);
    if (edges.empty()) continue;
    const std::size_t at = rng.bounded(edges.size());
    switch (trial % 3) {
      case 0:  // out-of-range client
        edges[at].client = nc + static_cast<NodeId>(rng.bounded(3));
        break;
      case 1:  // out-of-range server
        edges[at].server = ns + static_cast<NodeId>(rng.bounded(3));
        break;
      default:  // duplicate edge
        edges.insert(edges.begin() + static_cast<std::ptrdiff_t>(
                                         rng.bounded(edges.size() + 1)),
                     edges[at]);
        break;
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto want = thrown_by(
        [&] { (void)oracle_from_edges(nc, ns, edges, false); });
    ASSERT_EQ(want.first, std::type_index(typeid(std::invalid_argument)));
    EXPECT_EQ(thrown_by([&] {
                (void)BipartiteGraph::from_edges(nc, ns, edges);
              }),
              want);
    if (trial % 3 != 0) {  // from_rows has no client ids to get wrong
      auto [off, adj] = rows_of(nc, edges);
      EXPECT_EQ(thrown_by([&] {
                  (void)BipartiteGraph::from_rows(nc, ns, off, adj);
                }),
                want);
    }
  }
}

TEST(BipartiteGraphBuild, FromRowsRejectsMalformedOffsets) {
  // Rejected as malformed offsets, not by a later check that happens to
  // trip over them.
  const std::vector<NodeId> adj = {1, 0, 2};
  const auto rejects = [&](std::vector<EdgeId> off) {
    const auto [type, what] = thrown_by([&] {
      (void)BipartiteGraph::from_rows(3, 3, std::move(off), adj);
    });
    return type == std::type_index(typeid(std::invalid_argument)) &&
           what.find("client_off") != std::string::npos;
  };
  EXPECT_TRUE(rejects({0, 2, 3}));        // num_clients offsets, not + 1
  EXPECT_TRUE(rejects({0, 1, 2, 3, 3}));  // one offset too many
  EXPECT_TRUE(rejects({1, 1, 2, 3}));     // first offset not 0
  EXPECT_TRUE(rejects({0, 2, 1, 3}));     // not monotone
  EXPECT_TRUE(rejects({0, 1, 2, 2}));     // ends short of client_adj
  EXPECT_TRUE(rejects({0, 1, 2, 4}));     // ends past client_adj
  EXPECT_FALSE(rejects({0, 2, 2, 3}));    // the well-formed control
  EXPECT_THROW((void)BipartiteGraph::from_rows(0, 0, {}, {}),
               std::invalid_argument);
  EXPECT_EQ(BipartiteGraph::from_rows(0, 0, {0}, {}),
            BipartiteGraph::from_edges(0, 0, {}));
}

TEST(BipartiteGraphBuild, FromRowsSortsRowsInPlace) {
  const BipartiteGraph g =
      BipartiteGraph::from_rows(2, 5, {0, 3, 5}, {4, 0, 2, 3, 1});
  EXPECT_EQ(g, BipartiteGraph::from_edges(
                   2, 5, {{0, 0}, {0, 2}, {0, 4}, {1, 1}, {1, 3}}));
  EXPECT_NO_THROW(g.validate());
}

TEST(DegreeStats, ComputesExtremesAndRho) {
  const BipartiteGraph g = small_graph();
  const DegreeStats s = degree_stats(g);
  EXPECT_EQ(s.client_min, 1u);
  EXPECT_EQ(s.client_max, 3u);
  EXPECT_EQ(s.server_min, 1u);
  EXPECT_EQ(s.server_max, 2u);
  EXPECT_DOUBLE_EQ(s.rho, 2.0);
  EXPECT_DOUBLE_EQ(s.client_mean, 2.0);
  EXPECT_DOUBLE_EQ(s.server_mean, 1.5);
}

TEST(DegreeStats, IsolatedClientGivesInfiniteRho) {
  const BipartiteGraph g = BipartiteGraph::from_edges(2, 2, {{0, 0}});
  const DegreeStats s = degree_stats(g);
  EXPECT_TRUE(std::isinf(s.rho));
}

TEST(DegreeStats, Theorem1Check) {
  // n = 16: log2(n)^2 = 16, so a 16-regular complete-ish graph qualifies
  // with eta = 1 and any rho >= 1.
  std::vector<Edge> edges;
  for (NodeId v = 0; v < 16; ++v)
    for (NodeId u = 0; u < 16; ++u) edges.push_back({v, u});
  const BipartiteGraph g = BipartiteGraph::from_edges(16, 16, edges);
  EXPECT_TRUE(satisfies_theorem1(g, 1.0, 1.0));
  EXPECT_FALSE(satisfies_theorem1(g, 2.0, 1.0));
}

TEST(DegreeStats, DescribeMentionsCounts) {
  const std::string text = describe(small_graph());
  EXPECT_NE(text.find("3 clients"), std::string::npos);
  EXPECT_NE(text.find("4 servers"), std::string::npos);
  EXPECT_NE(text.find("6 edges"), std::string::npos);
}

}  // namespace
}  // namespace saer
