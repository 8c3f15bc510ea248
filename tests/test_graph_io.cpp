// Tests for graph/graph_io.hpp.

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "graph/generators.hpp"
#include "graph/graph_io.hpp"

namespace saer {
namespace {

TEST(GraphIo, StreamRoundTrip) {
  const BipartiteGraph g = ring_proximity(12, 4);
  std::stringstream buffer;
  write_graph(buffer, g);
  const BipartiteGraph g2 = read_graph(buffer);
  EXPECT_EQ(g, g2);
}

TEST(GraphIo, FileRoundTrip) {
  const BipartiteGraph g = random_regular(32, 4, 5);
  const auto path = std::filesystem::temp_directory_path() / "saer_graph_test.txt";
  save_graph(path.string(), g);
  const BipartiteGraph g2 = load_graph(path.string());
  EXPECT_EQ(g, g2);
  std::filesystem::remove(path);
}

TEST(GraphIo, CommentsSkipped) {
  std::stringstream in(
      "# a comment\nsaer-bipartite 1\n# another\n2 2 2\n0 0\n# mid\n1 1\n");
  const BipartiteGraph g = read_graph(in);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 0));
  EXPECT_TRUE(g.has_edge(1, 1));
}

TEST(GraphIo, BadHeaderRejected) {
  std::stringstream in("wrong-magic 1\n1 1 0\n");
  EXPECT_THROW(read_graph(in), std::runtime_error);
}

TEST(GraphIo, BadVersionRejected) {
  std::stringstream in("saer-bipartite 99\n1 1 0\n");
  EXPECT_THROW(read_graph(in), std::runtime_error);
}

TEST(GraphIo, TruncatedEdgesRejected) {
  std::stringstream in("saer-bipartite 1\n2 2 3\n0 0\n");
  EXPECT_THROW(read_graph(in), std::runtime_error);
}

/// The message read_graph throws for `text` ("" if it loads).
std::string read_error(const std::string& text) {
  std::stringstream in(text);
  try {
    (void)read_graph(in);
  } catch (const std::runtime_error& err) {
    return err.what();
  }
  return "";
}

TEST(GraphIo, HeaderCountsWiderThanNodeIdRejected) {
  // 2^32 + 2 clients and servers, and a client id of 2^32: narrowing to
  // 32 bits used to load this as a 2-client graph with edge (0, 1).
  const std::string err =
      read_error("saer-bipartite 1\n4294967298 4294967298 1\n4294967296 1\n");
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_NE(err.find("client count"), std::string::npos) << err;
}

TEST(GraphIo, EdgeIdsOutsideTheHeaderRejected) {
  // Ids that fit the header's counts only after narrowing, ids past the
  // counts, and a negative id (which stream extraction wraps to 2^64 - 1).
  for (const char* edge : {"4294967296 1", "1 4294967297", "2 0", "0 2",
                           "-1 0"}) {
    SCOPED_TRACE(edge);
    const std::string err = read_error(
        std::string("saer-bipartite 1\n2 2 2\n# c\n0 0\n") + edge + "\n");
    EXPECT_NE(err.find("line 5"), std::string::npos) << err;
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;
  }
}

TEST(GraphIo, HugeEdgeCountDoesNotAllocateUpFront) {
  // 4e12 edges cannot be a simple 2x2 graph: rejected from the header.
  const std::string small =
      read_error("saer-bipartite 1\n2 2 4000000000000\n0 0\n");
  EXPECT_NE(small.find("line 2"), std::string::npos) << small;
  EXPECT_NE(small.find("edge count"), std::string::npos) << small;
  // With counts large enough to allow it, the claim is not reserved up
  // front (that died with std::bad_alloc): the edge lines simply run out.
  const std::string big = read_error(
      "saer-bipartite 1\n4000000 4000000 4000000000000\n0 0\n1 1\n");
  EXPECT_NE(big.find("unexpected end of input"), std::string::npos) << big;
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW(load_graph("/nonexistent/saer.txt"), std::runtime_error);
}

TEST(GraphIo, EmptyGraphRoundTrip) {
  const BipartiteGraph g = BipartiteGraph::from_edges(3, 3, {});
  std::stringstream buffer;
  write_graph(buffer, g);
  const BipartiteGraph g2 = read_graph(buffer);
  EXPECT_EQ(g, g2);
  EXPECT_EQ(g2.num_clients(), 3u);
}

}  // namespace
}  // namespace saer
