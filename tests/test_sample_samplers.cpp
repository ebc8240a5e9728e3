#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "generator/dcsbm.hpp"
#include "graph/builder.hpp"
#include "sample/samplers.hpp"

namespace hsbp::sample {
namespace {

using graph::Edge;
using graph::Graph;
using graph::Vertex;

generator::GeneratedGraph planted(std::uint64_t seed) {
  generator::DcsbmParams p;
  p.num_vertices = 200;
  p.num_communities = 4;
  p.num_edges = 1600;
  p.ratio_within_between = 4.0;
  p.seed = seed;
  return generator::generate_dcsbm(p);
}

TEST(SampleSize, CeilClampedBounds) {
  EXPECT_EQ(sample_size(100, 0.5), 50);
  EXPECT_EQ(sample_size(100, 0.301), 31);  // ceil
  EXPECT_EQ(sample_size(100, 1.0), 100);
  EXPECT_EQ(sample_size(100, 1e-9), 1);  // clamped up to 1
  EXPECT_EQ(sample_size(3, 0.34), 2);
  EXPECT_THROW(sample_size(100, 0.0), std::invalid_argument);
  EXPECT_THROW(sample_size(100, 1.5), std::invalid_argument);
  EXPECT_THROW(sample_size(0, 0.5), std::invalid_argument);
}

TEST(SamplerNames, RoundTripAndRejects) {
  for (const SamplerKind kind : all_sampler_kinds()) {
    EXPECT_EQ(parse_sampler(sampler_name(kind)), kind);
  }
  EXPECT_THROW(parse_sampler("frontier"), std::invalid_argument);
}

class SamplerSweep : public ::testing::TestWithParam<SamplerKind> {};

TEST_P(SamplerSweep, SelectsExactlyTargetDistinctVertices) {
  const auto g = planted(11);
  for (const double fraction : {0.05, 0.3, 0.5, 0.9, 1.0}) {
    const Vertex target = sample_size(g.graph.num_vertices(), fraction);
    util::Rng rng(7);
    const auto ids = make_sampler(GetParam())->select(g.graph, target, rng);
    EXPECT_EQ(static_cast<Vertex>(ids.size()), target);
    std::set<Vertex> distinct(ids.begin(), ids.end());
    EXPECT_EQ(distinct.size(), ids.size());
    for (const Vertex v : ids) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, g.graph.num_vertices());
    }
  }
}

TEST_P(SamplerSweep, IdMapIsBijective) {
  const auto g = planted(12);
  const auto sampled = sample_graph(g.graph, GetParam(), 0.4, 99);
  ASSERT_EQ(sampled.to_sample.size(),
            static_cast<std::size_t>(g.graph.num_vertices()));
  // to_full strictly ascending full ids, inverted exactly by to_sample.
  for (std::size_t s = 0; s < sampled.to_full.size(); ++s) {
    if (s > 0) EXPECT_LT(sampled.to_full[s - 1], sampled.to_full[s]);
    EXPECT_EQ(sampled.to_sample[static_cast<std::size_t>(
                  sampled.to_full[s])],
              static_cast<Vertex>(s));
  }
  // Unsampled vertices map to −1; sampled count matches the subgraph.
  std::size_t mapped = 0;
  for (const Vertex s : sampled.to_sample) {
    if (s >= 0) {
      ++mapped;
    } else {
      EXPECT_EQ(s, -1);
    }
  }
  EXPECT_EQ(mapped, sampled.to_full.size());
  EXPECT_EQ(static_cast<std::size_t>(sampled.subgraph.num_vertices()),
            sampled.to_full.size());
}

TEST_P(SamplerSweep, SeedDeterminism) {
  const auto g = planted(13);
  const auto a = sample_graph(g.graph, GetParam(), 0.35, 1234);
  const auto b = sample_graph(g.graph, GetParam(), 0.35, 1234);
  EXPECT_EQ(a.to_full, b.to_full);
  EXPECT_EQ(a.subgraph.edges(), b.subgraph.edges());
}

TEST_P(SamplerSweep, InducedEdgesMatchBruteForce) {
  const auto g = planted(14);
  const auto sampled = sample_graph(g.graph, GetParam(), 0.5, 5);

  // Brute force: every full-graph edge with both endpoints sampled,
  // relabeled, with multiplicity.
  std::multiset<Edge> expected;
  for (const auto& [source, target] : g.graph.edges()) {
    const Vertex s = sampled.to_sample[static_cast<std::size_t>(source)];
    const Vertex t = sampled.to_sample[static_cast<std::size_t>(target)];
    if (s >= 0 && t >= 0) expected.insert({s, t});
  }
  const auto actual_edges = sampled.subgraph.edges();
  const std::multiset<Edge> actual(actual_edges.begin(), actual_edges.end());
  EXPECT_EQ(actual, expected);
}

TEST_P(SamplerSweep, FullFractionIsIdentity) {
  const auto g = planted(15);
  const auto sampled = sample_graph(g.graph, GetParam(), 1.0, 3);
  ASSERT_EQ(sampled.subgraph.num_vertices(), g.graph.num_vertices());
  for (Vertex v = 0; v < g.graph.num_vertices(); ++v) {
    EXPECT_EQ(sampled.to_full[static_cast<std::size_t>(v)], v);
    EXPECT_EQ(sampled.to_sample[static_cast<std::size_t>(v)], v);
  }
  EXPECT_EQ(sampled.subgraph.edges(), g.graph.edges());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SamplerSweep,
    ::testing::Values(SamplerKind::UniformRandom,
                      SamplerKind::DegreeWeighted, SamplerKind::RandomEdge,
                      SamplerKind::ExpansionSnowball),
    [](const auto& info) { return sampler_name(info.param); });

TEST(DegreeWeightedSampler, PrefersHubs) {
  // Star graph: the hub should essentially always be sampled.
  graph::GraphBuilder builder(41);
  for (Vertex leaf = 1; leaf < 41; ++leaf) builder.add_edge(0, leaf);
  const Graph star = builder.build();
  int hub_hits = 0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const auto sampled =
        sample_graph(star, SamplerKind::DegreeWeighted, 0.25, seed);
    hub_hits += sampled.to_sample[0] >= 0 ? 1 : 0;
  }
  EXPECT_GE(hub_hits, 45);
}

TEST(ExpansionSnowballSampler, StaysConnectedOnAPath) {
  // Path graph: a snowball sample of any prefix size is one interval,
  // so the induced subgraph has sample_size − 1 edges (plus restarts
  // never happen while the frontier is alive).
  graph::GraphBuilder builder(60);
  for (Vertex v = 0; v + 1 < 60; ++v) builder.add_edge(v, v + 1);
  const Graph path = builder.build();
  const auto sampled =
      sample_graph(path, SamplerKind::ExpansionSnowball, 0.5, 17);
  EXPECT_EQ(sampled.subgraph.num_vertices(), 30);
  EXPECT_GE(sampled.subgraph.num_edges(), 25);  // near-interval sample
}

TEST(RandomEdgeSampler, CoversIsolatedVerticesViaFallback) {
  // 4 isolated vertices + one triangle; a 100% "edge" sample must still
  // return every vertex.
  graph::GraphBuilder builder(7);
  builder.add_edge(0, 1).add_edge(1, 2).add_edge(2, 0);
  const Graph g = builder.build();
  const auto sampled = sample_graph(g, SamplerKind::RandomEdge, 1.0, 2);
  EXPECT_EQ(sampled.subgraph.num_vertices(), 7);
}

TEST(InducedSubgraph, RejectsBadIds) {
  const Graph g = Graph::from_edges(3, {{{0, 1}, {1, 2}}});
  EXPECT_THROW(induced_subgraph(g, {0, 3}), std::invalid_argument);
  EXPECT_THROW(induced_subgraph(g, {0, 0}), std::invalid_argument);
  EXPECT_THROW(induced_subgraph(g, {-1}), std::invalid_argument);
}

TEST(InducedSubgraph, KeepsSelfLoopsAndMultiplicity) {
  const Graph g =
      Graph::from_edges(4, {{{0, 0}, {0, 1}, {0, 1}, {1, 2}, {3, 0}}});
  const auto sampled = induced_subgraph(g, {0, 1});
  EXPECT_EQ(sampled.subgraph.num_vertices(), 2);
  EXPECT_EQ(sampled.subgraph.num_edges(), 3);  // loop + double edge
  EXPECT_EQ(sampled.subgraph.num_self_loops(), 1);
}

TEST(InducedSubgraph, FullSampleIsTheSameGraph) {
  // Every neighbour list keeps the parent's order, so a full sample is
  // the graph itself — in-lists included, whose order from_edges takes
  // from the edge list rather than from the source ids.
  const auto g = planted(9);
  std::vector<Vertex> all(static_cast<std::size_t>(g.graph.num_vertices()));
  for (std::size_t v = 0; v < all.size(); ++v) {
    all[v] = static_cast<Vertex>(v);
  }
  const auto sampled = induced_subgraph(g.graph, all);
  ASSERT_EQ(sampled.subgraph.num_vertices(), g.graph.num_vertices());
  EXPECT_EQ(sampled.subgraph.num_edges(), g.graph.num_edges());
  EXPECT_EQ(sampled.subgraph.num_self_loops(), g.graph.num_self_loops());
  for (Vertex v = 0; v < g.graph.num_vertices(); ++v) {
    const auto out = sampled.subgraph.out_neighbors(v);
    const auto in = sampled.subgraph.in_neighbors(v);
    EXPECT_TRUE(std::ranges::equal(out, g.graph.out_neighbors(v))) << v;
    EXPECT_TRUE(std::ranges::equal(in, g.graph.in_neighbors(v))) << v;
  }
}

TEST(InducedSubgraph, KeepsParentNeighbourOrder) {
  // In-list of 2 in the parent: 3, 0, 1 (edge-list order).
  const Graph g = Graph::from_edges(4, {{{3, 2}, {0, 2}, {1, 2}, {0, 1}}});
  const auto sampled = induced_subgraph(g, {0, 2, 3});
  // Relabelled 0→0, 2→1, 3→2: the in-list of 1 is 2, 0 — still parent
  // order, although the sources are visited in id order.
  const auto in = sampled.subgraph.in_neighbors(1);
  EXPECT_EQ(std::vector<Vertex>(in.begin(), in.end()),
            (std::vector<Vertex>{2, 0}));
  EXPECT_EQ(sampled.subgraph.num_edges(), 2);
}

}  // namespace
}  // namespace hsbp::sample
