/// Seed determinism and whole-chain equivalence.
///
/// Two guarantees pin down the allocation-free rewrite:
///   1. A full sbp::run is a pure function of (graph, config) for every
///      variant — running it twice yields identical partitions, MDLs,
///      and proposal/acceptance counters.
///   2. A serial Metropolis-Hastings chain driven by the optimized
///      scratch-arena kernels accepts the exact same move sequence as
///      one driven by the pre-PR reference kernels, from the same seed.
///      Since acceptance thresholds are compared against the same RNG
///      draws, this holds only if ΔMDL and the Hastings correction are
///      bit-identical — making it an end-to-end equivalence check, not
///      a statistical one.
#include <gtest/gtest.h>
#include <omp.h>

#include <cstdint>
#include <vector>

#include "blockmodel/blockmodel.hpp"
#include "blockmodel/vertex_move_delta.hpp"
#include "generator/dcsbm.hpp"
#include "reference_kernels.hpp"
#include "sbp/mcmc_common.hpp"
#include "sbp/sbp.hpp"
#include "util/rng.hpp"

namespace hsbp::sbp {
namespace {

using graph::Graph;
using graph::Vertex;

generator::GeneratedGraph planted(std::uint64_t seed) {
  generator::DcsbmParams p;
  p.num_vertices = 300;
  p.num_communities = 5;
  p.num_edges = 2400;
  p.ratio_within_between = 4.0;
  p.seed = seed;
  return generator::generate_dcsbm(p);
}

class SeedDeterminism : public ::testing::TestWithParam<Variant> {};

TEST_P(SeedDeterminism, SameSeedSameResult) {
  const auto g = planted(23);
  SbpConfig config;
  config.variant = GetParam();
  config.seed = 77;
  config.num_threads = 1;  // fixed thread count: the determinism contract

  const auto first = run(g.graph, config);
  const auto second = run(g.graph, config);

  EXPECT_EQ(first.assignment, second.assignment);
  EXPECT_EQ(first.num_blocks, second.num_blocks);
  EXPECT_EQ(first.mdl, second.mdl);
  EXPECT_EQ(first.stats.proposals, second.stats.proposals);
  EXPECT_EQ(first.stats.accepted_moves, second.stats.accepted_moves);
  EXPECT_EQ(first.stats.outer_iterations, second.stats.outer_iterations);
}

TEST_P(SeedDeterminism, SameResultAtEveryThreadCount) {
  // Every parallel step draws from streams keyed on what it evaluates
  // (vertex, block), and the asynchronous passes accept moves in list
  // order, so the team size cannot change the chain.
  const auto g = planted(24);
  const int prev_threads = omp_get_max_threads();
  SbpConfig config;
  config.variant = GetParam();
  config.seed = 78;
  config.num_threads = 1;
  const auto reference = run(g.graph, config);
  for (const int threads : {2, 4}) {
    config.num_threads = threads;
    const auto got = run(g.graph, config);
    EXPECT_EQ(got.assignment, reference.assignment) << threads << " threads";
    EXPECT_EQ(got.num_blocks, reference.num_blocks) << threads << " threads";
    EXPECT_EQ(got.mdl, reference.mdl) << threads << " threads";
    EXPECT_EQ(got.stats.proposals, reference.stats.proposals)
        << threads << " threads";
    EXPECT_EQ(got.stats.accepted_moves, reference.stats.accepted_moves)
        << threads << " threads";
  }
  omp_set_num_threads(prev_threads);
}

INSTANTIATE_TEST_SUITE_P(Variants, SeedDeterminism,
                         ::testing::Values(Variant::Metropolis,
                                           Variant::AsyncGibbs,
                                           Variant::Hybrid,
                                           Variant::BatchedGibbs));

class ChainEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChainEquivalence, OptimizedChainMatchesReferenceChain) {
  const auto g = planted(GetParam());
  const std::int32_t num_blocks = 12;

  // Random over-clustered start so both chains do real merging work.
  util::Rng init_rng(GetParam() + 5);
  std::vector<std::int32_t> start(
      static_cast<std::size_t>(g.graph.num_vertices()));
  for (auto& label : start) {
    label = static_cast<std::int32_t>(
        init_rng.uniform_int(static_cast<std::uint64_t>(num_blocks)));
  }

  auto b_opt =
      blockmodel::Blockmodel::from_assignment(g.graph, start, num_blocks);
  auto b_ref =
      blockmodel::Blockmodel::from_assignment(g.graph, start, num_blocks);

  util::Rng rng_opt(99);
  util::Rng rng_ref(99);
  const double beta = 3.0;
  blockmodel::MoveScratch& scratch = blockmodel::thread_move_scratch();

  std::int64_t moves = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (Vertex v = 0; v < g.graph.num_vertices(); ++v) {
      const auto view_opt = [&b_opt](Vertex u) { return b_opt.block_of(u); };
      const auto view_ref = [&b_ref](Vertex u) { return b_ref.block_of(u); };

      const auto opt =
          evaluate_vertex(g.graph, b_opt, view_opt, v,
                          b_opt.block_size(b_opt.block_of(v)), beta, rng_opt,
                          scratch);
      const auto ref = reference::evaluate_vertex(
          g.graph, b_ref, view_ref, v, b_ref.block_size(b_ref.block_of(v)),
          beta, rng_ref);

      ASSERT_EQ(opt.moved, ref.moved) << "pass=" << pass << " v=" << v;
      if (opt.moved) {
        ASSERT_EQ(opt.to, ref.to) << "pass=" << pass << " v=" << v;
        ASSERT_EQ(opt.delta_mdl, ref.delta_mdl) << "pass=" << pass
                                                << " v=" << v;
        b_opt.move_vertex(g.graph, v, opt.to);
        b_ref.move_vertex(g.graph, v, ref.to);
        ++moves;
      }
    }
  }

  EXPECT_GT(moves, 0);  // the chains actually did something
  EXPECT_EQ(b_opt.assignment(), b_ref.assignment());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainEquivalence,
                         ::testing::Values(41, 42, 43));

}  // namespace
}  // namespace hsbp::sbp
