#include "graph/graph_io.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace saer {

void write_graph(std::ostream& os, const BipartiteGraph& g) {
  os << "saer-bipartite 1\n";
  os << g.num_clients() << ' ' << g.num_servers() << ' ' << g.num_edges()
     << '\n';
  for (NodeId v = 0; v < g.num_clients(); ++v)
    for (NodeId u : g.client_neighbors(v)) os << v << ' ' << u << '\n';
  if (!os) throw std::runtime_error("write_graph: stream failure");
}

void save_graph(const std::string& path, const BipartiteGraph& g) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("save_graph: cannot open " + path);
  write_graph(file, g);
}

BipartiteGraph read_graph(std::istream& is) {
  std::string line;
  std::uint64_t line_no = 0;
  auto next_content_line = [&]() -> std::string {
    while (std::getline(is, line)) {
      ++line_no;
      if (!line.empty() && line[0] != '#') return line;
    }
    throw std::runtime_error("read_graph: unexpected end of input");
  };
  auto fail = [&](const std::string& what) {
    throw std::runtime_error("read_graph: line " + std::to_string(line_no) +
                             ": " + what);
  };
  // Every id and count is checked before it is narrowed to NodeId.
  auto node_id = [&](std::uint64_t value, std::uint64_t bound,
                     const char* what) {
    if (value >= bound)
      fail(std::string(what) + " " + std::to_string(value) +
           " out of range (must be < " + std::to_string(bound) + ")");
    return static_cast<NodeId>(value);
  };
  constexpr std::uint64_t kNodeIdLimit =
      std::uint64_t{std::numeric_limits<NodeId>::max()} + 1;

  std::istringstream header(next_content_line());
  std::string magic;
  int version = 0;
  header >> magic >> version;
  if (magic != "saer-bipartite" || version != 1)
    fail("bad header");

  std::istringstream sizes(next_content_line());
  std::uint64_t nc = 0, ns = 0, m = 0;
  sizes >> nc >> ns >> m;
  if (!sizes) fail("bad size line");
  const NodeId num_clients = node_id(nc, kNodeIdLimit, "client count");
  const NodeId num_servers = node_id(ns, kNodeIdLimit, "server count");
  // A simple graph has at most nc * ns edges (< 2^64 after the checks
  // above); a larger count cannot load, so reject it before reading on.
  if (m > std::uint64_t{num_clients} * num_servers)
    fail("edge count " + std::to_string(m) + " exceeds clients * servers");

  // The header's count is a claim, not a fact: reserve at most a bounded
  // prefix of it and let the vector grow with the lines actually read.
  constexpr std::uint64_t kMaxReserve = std::uint64_t{1} << 20;
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(std::min(m, kMaxReserve)));
  for (std::uint64_t i = 0; i < m; ++i) {
    std::istringstream row(next_content_line());
    std::uint64_t v = 0, u = 0;
    row >> v >> u;
    if (!row) fail("bad edge line");
    edges.push_back({node_id(v, nc, "client id"), node_id(u, ns, "server id")});
  }
  return BipartiteGraph::from_edges(num_clients, num_servers, std::move(edges));
}

BipartiteGraph load_graph(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("load_graph: cannot open " + path);
  return read_graph(file);
}

}  // namespace saer
