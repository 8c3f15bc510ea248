#pragma once
// Plain-text edge-list persistence so experiment topologies can be frozen
// and replayed.  Format:
//
//   saer-bipartite 1
//   <num_clients> <num_servers> <num_edges>
//   <client> <server>      (one edge per line, any order)
//
// Lines starting with '#' are comments.
//
// read_graph treats the file as untrusted: a malformed line, a count or id
// that does not fit NodeId or exceeds the header's sizes, an edge count
// above num_clients * num_servers, or missing edge lines throw
// std::runtime_error naming the line.  The header's edge count never sizes
// an allocation on its own.  A duplicate edge is still rejected by
// BipartiteGraph::from_edges (std::invalid_argument).

#include <iosfwd>
#include <string>

#include "graph/bipartite_graph.hpp"

namespace saer {

void write_graph(std::ostream& os, const BipartiteGraph& g);
void save_graph(const std::string& path, const BipartiteGraph& g);

[[nodiscard]] BipartiteGraph read_graph(std::istream& is);
[[nodiscard]] BipartiteGraph load_graph(const std::string& path);

}  // namespace saer
