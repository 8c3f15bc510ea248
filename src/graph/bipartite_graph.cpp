#include "graph/bipartite_graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace saer {

std::vector<EdgeId> uniform_row_offsets(NodeId num_rows, std::uint32_t degree) {
  std::vector<EdgeId> off(static_cast<std::size_t>(num_rows) + 1);
  for (std::size_t v = 0; v < off.size(); ++v) off[v] = v * degree;
  return off;
}

BipartiteGraph BipartiteGraph::from_edges(NodeId num_clients, NodeId num_servers,
                                          std::vector<Edge> edges,
                                          bool allow_multi_edges) {
  // Bucket the server ids by client (one 4-byte pass), free the 8-byte edge
  // list, and let from_rows sort the rows and build the server side.
  std::vector<EdgeId> off(static_cast<std::size_t>(num_clients) + 1, 0);
  for (const Edge& e : edges) {
    if (e.client >= num_clients)
      throw std::invalid_argument("BipartiteGraph: client id out of range");
    if (e.server >= num_servers)
      throw std::invalid_argument("BipartiteGraph: server id out of range");
    ++off[e.client + 1];
  }
  for (std::size_t i = 1; i < off.size(); ++i) off[i] += off[i - 1];
  std::vector<NodeId> adj(edges.size());
  std::vector<EdgeId> cursor(off.begin(), off.end() - 1);
  for (const Edge& e : edges) adj[cursor[e.client]++] = e.server;
  std::vector<Edge>().swap(edges);
  std::vector<EdgeId>().swap(cursor);
  return from_rows(num_clients, num_servers, std::move(off), std::move(adj),
                   allow_multi_edges);
}

BipartiteGraph BipartiteGraph::from_rows(NodeId num_clients, NodeId num_servers,
                                         std::vector<EdgeId> client_off,
                                         std::vector<NodeId> client_adj,
                                         bool allow_multi_edges) {
  if (client_off.size() != static_cast<std::size_t>(num_clients) + 1)
    throw std::invalid_argument(
        "BipartiteGraph: client_off must hold num_clients + 1 offsets");
  if (client_off.front() != 0)
    throw std::invalid_argument("BipartiteGraph: client_off must start at 0");
  if (!std::is_sorted(client_off.begin(), client_off.end()))
    throw std::invalid_argument("BipartiteGraph: client_off not monotone");
  if (client_off.back() != client_adj.size())
    throw std::invalid_argument(
        "BipartiteGraph: client_off must end at client_adj.size()");

  BipartiteGraph g;
  g.num_clients_ = num_clients;
  g.num_servers_ = num_servers;
  g.server_off_.assign(static_cast<std::size_t>(num_servers) + 1, 0);
  for (const NodeId u : client_adj) {
    if (u >= num_servers)
      throw std::invalid_argument("BipartiteGraph: server id out of range");
    ++g.server_off_[u + 1];
  }
  for (std::size_t i = 1; i < g.server_off_.size(); ++i)
    g.server_off_[i] += g.server_off_[i - 1];

  // Double scatter, O(E + n) and no comparison sort.  Visiting clients in
  // order appends each client id to its servers' rows, so server rows come
  // out sorted; visiting those server rows in order then appends each
  // server id to its clients' rows, so client rows come out sorted too --
  // written back over client_adj, which the first pass has finished with.
  // Duplicate pairs stay adjacent, exactly as a (client, server) sort of
  // the edge list leaves them.
  g.server_adj_.resize(client_adj.size());
  std::vector<EdgeId> cursor(
      std::max<std::size_t>(num_clients, num_servers), 0);
  std::copy(g.server_off_.begin(), g.server_off_.end() - 1, cursor.begin());
  for (NodeId v = 0; v < num_clients; ++v)
    for (EdgeId k = client_off[v]; k < client_off[v + 1]; ++k)
      g.server_adj_[cursor[client_adj[k]]++] = v;
  std::copy(client_off.begin(), client_off.end() - 1, cursor.begin());
  for (NodeId u = 0; u < num_servers; ++u)
    for (EdgeId k = g.server_off_[u]; k < g.server_off_[u + 1]; ++k)
      client_adj[cursor[g.server_adj_[k]]++] = u;

  if (!allow_multi_edges) {
    for (NodeId v = 0; v < num_clients; ++v) {
      const NodeId* first = client_adj.data() + client_off[v];
      const NodeId* last = client_adj.data() + client_off[v + 1];
      if (std::adjacent_find(first, last) != last)
        throw std::invalid_argument("BipartiteGraph: duplicate edge");
    }
  }
  g.client_off_ = std::move(client_off);
  g.client_adj_ = std::move(client_adj);
  return g;
}

bool BipartiteGraph::has_edge(NodeId client, NodeId server) const noexcept {
  if (client >= num_clients_ || server >= num_servers_) return false;
  const auto nb = client_neighbors(client);
  return std::binary_search(nb.begin(), nb.end(), server);
}

std::vector<Edge> BipartiteGraph::edges() const {
  std::vector<Edge> out;
  out.reserve(client_adj_.size());
  for (NodeId v = 0; v < num_clients_; ++v)
    for (NodeId u : client_neighbors(v)) out.push_back({v, u});
  return out;
}

void BipartiteGraph::validate() const {
  if (client_off_.size() != static_cast<std::size_t>(num_clients_) + 1 ||
      server_off_.size() != static_cast<std::size_t>(num_servers_) + 1)
    throw std::logic_error("BipartiteGraph: offset array size mismatch");
  if (client_off_.front() != 0 || server_off_.front() != 0)
    throw std::logic_error("BipartiteGraph: offsets must start at 0");
  if (client_off_.back() != client_adj_.size() ||
      server_off_.back() != server_adj_.size() ||
      client_adj_.size() != server_adj_.size())
    throw std::logic_error("BipartiteGraph: offset/adjacency size mismatch");
  if (!std::is_sorted(client_off_.begin(), client_off_.end()) ||
      !std::is_sorted(server_off_.begin(), server_off_.end()))
    throw std::logic_error("BipartiteGraph: offsets not monotone");

  std::vector<EdgeId> server_seen(num_servers_, 0);
  for (NodeId v = 0; v < num_clients_; ++v) {
    const auto nb = client_neighbors(v);
    if (!std::is_sorted(nb.begin(), nb.end()))
      throw std::logic_error("BipartiteGraph: client adjacency not sorted");
    for (NodeId u : nb) {
      if (u >= num_servers_)
        throw std::logic_error("BipartiteGraph: server id out of range");
      ++server_seen[u];
    }
  }
  for (NodeId u = 0; u < num_servers_; ++u) {
    if (server_seen[u] != server_degree(u))
      throw std::logic_error("BipartiteGraph: orientations disagree on degree");
    const auto nb = server_neighbors(u);
    if (!std::is_sorted(nb.begin(), nb.end()))
      throw std::logic_error("BipartiteGraph: server adjacency not sorted");
    for (NodeId v : nb) {
      if (v >= num_clients_)
        throw std::logic_error("BipartiteGraph: client id out of range");
      if (!has_edge(v, u))
        throw std::logic_error("BipartiteGraph: server edge missing from client side");
    }
  }
}

}  // namespace saer
