/// Exactness of H-SBP's high-degree sweep (sbp/ordered_sweep.hpp): the
/// speculative rounds must reproduce the plain in-order
/// Metropolis-Hastings loop with the same keyed draws, move for move,
/// at every thread count — also when most proposals are accepted and
/// most speculative evaluations are discarded.
#include <gtest/gtest.h>
#include <omp.h>

#include <cstdint>
#include <string>
#include <vector>

#include "blockmodel/blockmodel.hpp"
#include "blockmodel/mdl.hpp"
#include "generator/dcsbm.hpp"
#include "graph/degree.hpp"
#include "sbp/mcmc_common.hpp"
#include "sbp/mcmc_phases.hpp"
#include "util/rng.hpp"

namespace hsbp::sbp {
namespace {

using blockmodel::BlockId;
using blockmodel::Blockmodel;
using graph::Vertex;

constexpr BlockId kBlocks = 12;
constexpr int kPasses = 3;
constexpr std::uint64_t kPoolSeed = 41;

struct SweepResult {
  std::vector<std::int32_t> assignment;
  double mdl = 0.0;
  std::int64_t proposals = 0;
  std::int64_t accepted = 0;
};

generator::GeneratedGraph planted() {
  generator::DcsbmParams p;
  p.num_vertices = 300;
  p.num_communities = 6;
  p.num_edges = 3000;
  p.ratio_within_between = 3.0;
  p.seed = 61;
  return generator::generate_dcsbm(p);
}

/// Random over-clustered start, so the chain has moves to make. Built
/// at the caller's thread count.
Blockmodel start_model(const graph::Graph& graph) {
  util::Rng rng(62);
  std::vector<std::int32_t> labels(
      static_cast<std::size_t>(graph.num_vertices()));
  for (auto& label : labels) {
    label = static_cast<std::int32_t>(rng.uniform_int(kBlocks));
  }
  return Blockmodel::from_assignment(graph, labels, kBlocks);
}

/// hybrid_phase with every vertex in the high-degree set, so each pass
/// is one ordered sweep. Threshold 0 never converges: exactly kPasses.
SweepResult run_hybrid(const generator::GeneratedGraph& g,
                       const graph::DegreeSplit& split, double beta,
                       int threads) {
  const int prev_threads = omp_get_max_threads();
  omp_set_num_threads(threads);
  auto b = start_model(g.graph);
  McmcSettings settings;
  settings.beta = beta;
  settings.threshold = 0.0;
  settings.max_iterations = kPasses;
  util::RngPool rngs(kPoolSeed, 4);
  const auto outcome = hybrid_phase(g.graph, b, settings, split, rngs);
  omp_set_num_threads(prev_threads);
  return {b.copy_assignment(), outcome.stats.final_mdl,
          outcome.stats.proposals, outcome.stats.accepted};
}

/// The plain serial loop the sweep must equal: in order, in place,
/// position i of pass p drawing from keyed_stream(phase key, p, i).
SweepResult run_reference(const generator::GeneratedGraph& g,
                          const graph::DegreeSplit& split, double beta) {
  auto b = start_model(g.graph);
  util::RngPool rngs(kPoolSeed, 4);
  const std::uint64_t phase_key = rngs.stream(0).next_u64();
  const auto view = [&b](Vertex u) { return b.block_of(u); };
  blockmodel::MoveScratch scratch;
  SweepResult result;
  for (std::uint64_t pass = 0; pass < kPasses; ++pass) {
    for (std::size_t i = 0; i < split.high.size(); ++i) {
      const Vertex v = split.high[i];
      util::Rng rng = util::keyed_stream(phase_key, pass, i);
      const auto outcome =
          evaluate_vertex(g.graph, b, view, v, b.block_size(b.block_of(v)),
                          beta, rng, scratch);
      ++result.proposals;
      if (outcome.moved) {
        b.move_vertex(g.graph, v, outcome.to);
        ++result.accepted;
      }
    }
  }
  result.assignment = b.copy_assignment();
  result.mdl = blockmodel::mdl(b, g.graph.num_vertices(), g.graph.num_edges());
  return result;
}

class OrderedSweepExactness : public ::testing::TestWithParam<double> {};

TEST_P(OrderedSweepExactness, EqualsInOrderLoopAtEveryThreadCount) {
  const double beta = GetParam();
  const auto g = planted();
  const auto split = graph::split_by_degree(g.graph, 1.0);
  ASSERT_EQ(split.high.size(),
            static_cast<std::size_t>(g.graph.num_vertices()));
  ASSERT_TRUE(split.low.empty());

  const SweepResult want = run_reference(g, split, beta);
  ASSERT_GT(want.accepted, 0);
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const SweepResult got = run_hybrid(g, split, beta, threads);
    EXPECT_EQ(got.assignment, want.assignment);
    EXPECT_EQ(got.mdl, want.mdl);
    EXPECT_EQ(got.proposals, want.proposals);
    EXPECT_EQ(got.accepted, want.accepted);
  }
}

// β = 3 is the default chain (few acceptances, speculation mostly
// kept); β = 0.05 accepts most proposals, so most windows are cut short
// and their tails re-evaluated.
INSTANTIATE_TEST_SUITE_P(Betas, OrderedSweepExactness,
                         ::testing::Values(3.0, 0.05),
                         [](const auto& info) {
                           return info.param > 1.0 ? std::string("beta3")
                                                   : std::string("beta005");
                         });

}  // namespace
}  // namespace hsbp::sbp
