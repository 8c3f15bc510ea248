#pragma once
// Immutable bipartite client-server graph in CSR form, stored in both
// orientations.  The engine reads only client adjacency: Phase 1 samples
// from it, and the deep-trace metrics (r_t(N(v)), S_t(v)) walk client rows
// too.  Server adjacency serves the graph analyses (spectral, degree
// statistics, subgraphs, the configuration model, `saer stats`).
//
// Node ids are 32-bit and local to each side: clients are 0..num_clients-1,
// servers are 0..num_servers-1.  This matches the paper's model where nodes
// only hold local labels of their links (Section 2.1).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace saer {

using NodeId = std::uint32_t;
using EdgeId = std::uint64_t;

/// Edge in builder form (client, server).
struct Edge {
  NodeId client;
  NodeId server;
  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Offsets of `num_rows` rows of `degree` entries each (row v starts at
/// v * degree): the `client_off` argument of BipartiteGraph::from_rows for
/// a graph whose clients all have the same degree.
std::vector<EdgeId> uniform_row_offsets(NodeId num_rows, std::uint32_t degree);

class BipartiteGraph {
 public:
  BipartiteGraph() = default;

  /// Builds from client rows: client v's servers are
  /// client_adj[client_off[v], client_off[v + 1]), in any order.  This is
  /// the one CSR build path.  It counts server degrees, scatters client ids
  /// into the server rows (visiting clients in order, so server rows come
  /// out sorted), then scatters server ids back into `client_adj` in place
  /// (visiting servers in order, so client rows come out sorted): O(E + n),
  /// no comparison sort, and no memory beyond the two CSR orientations and
  /// one max(num_clients, num_servers) cursor array.
  ///
  /// Duplicate edges are rejected (the protocol's uniform sampling over
  /// N(v) assumes a simple graph) unless `allow_multi_edges` is set, which
  /// keeps duplicates (used by tests of the repair logic in the
  /// generators).  Throws std::invalid_argument when `client_off` does not
  /// have num_clients + 1 entries, does not start at 0, is not monotone or
  /// does not end at client_adj.size(), when a server id is out of range,
  /// and on a duplicate edge.
  static BipartiteGraph from_rows(NodeId num_clients, NodeId num_servers,
                                  std::vector<EdgeId> client_off,
                                  std::vector<NodeId> client_adj,
                                  bool allow_multi_edges = false);

  /// Builds from an edge list in any order: one pass buckets the server
  /// ids by client, the 8-byte edge list is freed, and from_rows does the
  /// rest.  Same result, checks and exceptions as from_rows, plus
  /// std::invalid_argument for an out-of-range client id.  Callers that
  /// already hold rows (fixed-degree generators, the implicit topology's
  /// materialize) call from_rows directly and never build an Edge list.
  static BipartiteGraph from_edges(NodeId num_clients, NodeId num_servers,
                                   std::vector<Edge> edges,
                                   bool allow_multi_edges = false);

  [[nodiscard]] NodeId num_clients() const noexcept { return num_clients_; }
  [[nodiscard]] NodeId num_servers() const noexcept { return num_servers_; }
  [[nodiscard]] EdgeId num_edges() const noexcept {
    return static_cast<EdgeId>(client_adj_.size());
  }

  [[nodiscard]] std::uint32_t client_degree(NodeId v) const noexcept {
    return static_cast<std::uint32_t>(client_off_[v + 1] - client_off_[v]);
  }
  [[nodiscard]] std::uint32_t server_degree(NodeId u) const noexcept {
    return static_cast<std::uint32_t>(server_off_[u + 1] - server_off_[u]);
  }

  /// Servers adjacent to client v (sorted ascending).
  [[nodiscard]] std::span<const NodeId> client_neighbors(NodeId v) const noexcept {
    return {client_adj_.data() + client_off_[v],
            client_adj_.data() + client_off_[v + 1]};
  }
  /// Clients adjacent to server u (sorted ascending).
  [[nodiscard]] std::span<const NodeId> server_neighbors(NodeId u) const noexcept {
    return {server_adj_.data() + server_off_[u],
            server_adj_.data() + server_off_[u + 1]};
  }

  /// k-th neighbor of client v (no bounds check in release builds).
  [[nodiscard]] NodeId client_neighbor(NodeId v, std::uint64_t k) const noexcept {
    return client_adj_[client_off_[v] + k];
  }

  [[nodiscard]] bool has_edge(NodeId client, NodeId server) const noexcept;

  /// All edges in (client, server) lexicographic order.
  [[nodiscard]] std::vector<Edge> edges() const;

  /// Structural sanity checks (offsets consistent, adjacency sorted, both
  /// orientations agree). Throws std::logic_error on violation; meant for
  /// generator tests and after deserialization.
  void validate() const;

  friend bool operator==(const BipartiteGraph& a, const BipartiteGraph& b) = default;

 private:
  NodeId num_clients_ = 0;
  NodeId num_servers_ = 0;
  std::vector<EdgeId> client_off_;   // size num_clients_+1
  std::vector<NodeId> client_adj_;   // server ids
  std::vector<EdgeId> server_off_;   // size num_servers_+1
  std::vector<NodeId> server_adj_;   // client ids
};

}  // namespace saer
