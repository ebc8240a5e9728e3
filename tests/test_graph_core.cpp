#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "graph/builder.hpp"
#include "graph/graph.hpp"

namespace hsbp::graph {
namespace {

std::vector<Vertex> sorted(std::span<const Vertex> values) {
  std::vector<Vertex> out(values.begin(), values.end());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Graph, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.num_self_loops(), 0);
  EXPECT_TRUE(g.edges().empty());
}

TEST(Graph, VerticesWithoutEdges) {
  const Graph g = Graph::from_edges(5, {});
  EXPECT_EQ(g.num_vertices(), 5);
  EXPECT_EQ(g.num_edges(), 0);
  for (Vertex v = 0; v < 5; ++v) {
    EXPECT_TRUE(g.out_neighbors(v).empty());
    EXPECT_TRUE(g.in_neighbors(v).empty());
    EXPECT_EQ(g.degree(v), 0);
  }
}

TEST(Graph, SmallDirectedGraph) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}, {0, 2}};
  const Graph g = Graph::from_edges(3, edges);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(sorted(g.out_neighbors(0)), (std::vector<Vertex>{1, 2}));
  EXPECT_EQ(sorted(g.in_neighbors(0)), (std::vector<Vertex>{2}));
  EXPECT_EQ(g.out_degree(0), 2);
  EXPECT_EQ(g.in_degree(0), 1);
  EXPECT_EQ(g.degree(0), 3);
  EXPECT_EQ(g.out_degree(2), 1);
  EXPECT_EQ(g.in_degree(2), 2);
}

TEST(Graph, SelfLoopCountsTwiceInDegree) {
  const std::vector<Edge> edges = {{0, 0}, {0, 1}};
  const Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.num_self_loops(), 1);
  EXPECT_EQ(g.out_degree(0), 2);
  EXPECT_EQ(g.in_degree(0), 1);
  EXPECT_EQ(g.degree(0), 3);  // self-loop contributes out + in
}

TEST(Graph, ParallelEdgesKeepMultiplicity) {
  const std::vector<Edge> edges = {{0, 1}, {0, 1}, {0, 1}};
  const Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.out_degree(0), 3);
  EXPECT_EQ(g.in_degree(1), 3);
  EXPECT_EQ(g.out_neighbors(0).size(), 3u);
}

TEST(Graph, EdgesRoundTrip) {
  const std::vector<Edge> edges = {{2, 0}, {0, 1}, {1, 1}, {0, 1}};
  const Graph g = Graph::from_edges(3, edges);
  auto out = g.edges();
  auto expected = edges;
  std::sort(out.begin(), out.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(out, expected);
}

TEST(Graph, RejectsOutOfRangeEdges) {
  const std::vector<Edge> bad1 = {{0, 3}};
  EXPECT_THROW(Graph::from_edges(3, bad1), std::invalid_argument);
  const std::vector<Edge> bad2 = {{-1, 0}};
  EXPECT_THROW(Graph::from_edges(3, bad2), std::invalid_argument);
}

TEST(Graph, RejectsNegativeVertexCount) {
  EXPECT_THROW(Graph::from_edges(-1, {}), std::invalid_argument);
}

TEST(Graph, FromCsrKeepsNeighbourOrder) {
  // 0→1, 0→2, 2→1, 1→1: the in-list of 1 given as 1, 2, 0 stays so.
  const Graph g = Graph::from_csr({0, 2, 3, 4}, {2, 1, 1, 1},
                                  {0, 0, 3, 4}, {1, 2, 0, 0});
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.num_self_loops(), 1);
  const auto out0 = g.out_neighbors(0);
  EXPECT_EQ(std::vector<Vertex>(out0.begin(), out0.end()),
            (std::vector<Vertex>{2, 1}));
  const auto in1 = g.in_neighbors(1);
  EXPECT_EQ(std::vector<Vertex>(in1.begin(), in1.end()),
            (std::vector<Vertex>{1, 2, 0}));
  EXPECT_EQ(g.degree(1), 4);
}

TEST(Graph, FromCsrRejectsMalformedArrays) {
  // Offsets that do not end at the target count.
  EXPECT_THROW(Graph::from_csr({0, 2}, {0}, {0, 1}, {0}),
               std::invalid_argument);
  // Neighbour id out of range.
  EXPECT_THROW(Graph::from_csr({0, 1}, {1}, {0, 1}, {0}),
               std::invalid_argument);
  // Directions disagree: out says 0→1, in says 1→0.
  EXPECT_THROW(Graph::from_csr({0, 1, 1}, {1}, {0, 1, 1}, {1}),
               std::invalid_argument);
  // Different vertex counts.
  EXPECT_THROW(Graph::from_csr({0, 0}, {}, {0, 0, 0}, {}),
               std::invalid_argument);
}

TEST(GraphBuilder, GrowsVertexCount) {
  GraphBuilder builder;
  builder.add_edge(0, 5).add_edge(3, 1);
  EXPECT_EQ(builder.num_vertices(), 6);
  EXPECT_EQ(builder.num_edges(), 2u);
  const Graph g = builder.build();
  EXPECT_EQ(g.num_vertices(), 6);
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(GraphBuilder, ReserveKeepsIsolatedVertices) {
  GraphBuilder builder;
  builder.add_edge(0, 1).reserve_vertices(10);
  const Graph g = builder.build();
  EXPECT_EQ(g.num_vertices(), 10);
  EXPECT_EQ(g.degree(9), 0);
}

TEST(GraphBuilder, ReserveNeverShrinks) {
  GraphBuilder builder(8);
  builder.reserve_vertices(3);
  EXPECT_EQ(builder.num_vertices(), 8);
}

TEST(GraphBuilder, RejectsNegativeEndpoints) {
  GraphBuilder builder;
  EXPECT_THROW(builder.add_edge(-1, 0), std::invalid_argument);
  EXPECT_THROW(builder.add_edge(0, -2), std::invalid_argument);
}

TEST(GraphBuilder, ReusableAfterBuild) {
  GraphBuilder builder;
  builder.add_edge(0, 1);
  const Graph first = builder.build();
  builder.add_edge(1, 2);
  const Graph second = builder.build();
  EXPECT_EQ(first.num_edges(), 1);
  EXPECT_EQ(second.num_edges(), 2);
}

TEST(Graph, DegreeSumEqualsTwiceEdges) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 2}, {3, 0}, {1, 3}};
  const Graph g = Graph::from_edges(4, edges);
  EdgeCount total = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) total += g.degree(v);
  EXPECT_EQ(total, 2 * g.num_edges());
}

}  // namespace
}  // namespace hsbp::graph
