#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "generator/dcsbm.hpp"
#include "sbp/async_pass.hpp"
#include "util/rng.hpp"

namespace hsbp::sbp::detail {
namespace {

using blockmodel::BlockId;
using blockmodel::Blockmodel;
using graph::Vertex;

TEST(AtomicHelpers, AssignmentRoundTrip) {
  generator::DcsbmParams p;
  p.num_vertices = 50;
  p.num_communities = 5;
  p.num_edges = 300;
  p.seed = 30;
  const auto g = generator::generate_dcsbm(p);
  const auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 5);
  PassWorkspace ws;
  ws.reset(b);
  EXPECT_EQ(ws.shared, b.assignment());
}

TEST(AtomicHelpers, SizesMatchBlockmodel) {
  generator::DcsbmParams p;
  p.num_vertices = 100;
  p.num_communities = 4;
  p.num_edges = 600;
  p.seed = 31;
  const auto g = generator::generate_dcsbm(p);
  const auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 4);
  PassWorkspace ws;
  ws.reset(b);
  ASSERT_EQ(ws.sizes.size(), 4u);
  for (BlockId r = 0; r < 4; ++r) {
    EXPECT_EQ(ws.sizes[static_cast<std::size_t>(r)], b.block_size(r));
  }
}

TEST(AtomicHelpers, ResetReusesBuffersAcrossCalls) {
  generator::DcsbmParams p;
  p.num_vertices = 80;
  p.num_communities = 4;
  p.num_edges = 500;
  p.seed = 37;
  const auto g = generator::generate_dcsbm(p);
  auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 4);
  PassWorkspace ws;
  ws.reset(b);
  const auto* shared_data = ws.shared.data();
  b.move_vertex(g.graph, 0, (b.block_of(0) + 1) % 4);
  ws.reset(b);
  // Same sizes → the vectors are reused, not reallocated, and
  // the contents track the mutated blockmodel.
  EXPECT_EQ(ws.shared.data(), shared_data);
  EXPECT_EQ(ws.shared, b.assignment());
  for (BlockId r = 0; r < 4; ++r) {
    EXPECT_EQ(ws.sizes[static_cast<std::size_t>(r)], b.block_size(r));
  }
}

TEST(AsyncPass, EvaluatesExactlyTheGivenVertices) {
  generator::DcsbmParams p;
  p.num_vertices = 120;
  p.num_communities = 4;
  p.num_edges = 900;
  p.ratio_within_between = 4.0;
  p.seed = 32;
  const auto g = generator::generate_dcsbm(p);
  const auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 4);

  PassWorkspace ws;
  ws.reset(b);
  std::vector<Vertex> subset = {0, 5, 10, 15, 20};
  util::RngPool rngs(1, 4);
  const auto counters = async_pass(g.graph, b, ws, subset, 3.0, rngs);
  EXPECT_EQ(counters.proposals, 5);
  EXPECT_LE(counters.accepted, counters.proposals);

  // Vertices outside the subset are untouched, and the move log only
  // mentions subset vertices.
  const auto result = ws.shared;
  for (Vertex v = 0; v < 120; ++v) {
    const bool in_subset =
        std::find(subset.begin(), subset.end(), v) != subset.end();
    if (!in_subset) {
      EXPECT_EQ(result[static_cast<std::size_t>(v)], b.block_of(v));
    }
  }
  for (const MoveRecord& rec : ws.moves) {
    EXPECT_NE(std::find(subset.begin(), subset.end(), rec.v), subset.end());
  }
}

TEST(AsyncPass, MoveLogIsExactlyThePassDiff) {
  generator::DcsbmParams p;
  p.num_vertices = 200;
  p.num_communities = 5;
  p.num_edges = 1500;
  p.seed = 38;
  const auto g = generator::generate_dcsbm(p);
  const auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 5);

  PassWorkspace ws;
  ws.reset(b);
  std::vector<Vertex> all(200);
  std::iota(all.begin(), all.end(), 0);
  util::RngPool rngs(7, 4);
  const auto counters = async_pass(g.graph, b, ws, all, 3.0, rngs);

  // Each vertex appears at most once in the log, the logged
  // destinations match the post-pass memberships, and every vertex
  // whose membership changed is in the log.
  const auto result = ws.shared;
  std::set<Vertex> logged;
  std::int64_t records = 0;
  for (const MoveRecord& rec : ws.moves) {
    ++records;
    EXPECT_TRUE(logged.insert(rec.v).second)
        << "vertex " << rec.v << " logged twice";
    EXPECT_EQ(result[static_cast<std::size_t>(rec.v)], rec.to);
    EXPECT_NE(rec.to, b.block_of(rec.v));
  }
  EXPECT_EQ(records, counters.accepted);
  for (Vertex v = 0; v < 200; ++v) {
    if (result[static_cast<std::size_t>(v)] != b.block_of(v)) {
      EXPECT_TRUE(logged.count(v)) << "moved vertex " << v << " not logged";
    }
  }
}

TEST(AsyncPass, SizeAccountingStaysExact) {
  generator::DcsbmParams p;
  p.num_vertices = 200;
  p.num_communities = 5;
  p.num_edges = 1500;
  p.seed = 33;
  const auto g = generator::generate_dcsbm(p);
  const auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 5);

  PassWorkspace ws;
  ws.reset(b);
  std::vector<Vertex> all(200);
  std::iota(all.begin(), all.end(), 0);
  util::RngPool rngs(2, 4);
  async_pass(g.graph, b, ws, all, 3.0, rngs);

  // Tracked sizes equal recounted sizes; all blocks stay non-empty.
  const auto result = ws.shared;
  std::vector<std::int32_t> recounted(5, 0);
  for (const std::int32_t label : result) {
    ++recounted[static_cast<std::size_t>(label)];
  }
  for (BlockId r = 0; r < 5; ++r) {
    EXPECT_EQ(ws.sizes[static_cast<std::size_t>(r)],
              recounted[static_cast<std::size_t>(r)]);
    EXPECT_GT(recounted[static_cast<std::size_t>(r)], 0);
  }
}

TEST(AsyncPass, NeverEmptiesSingletonBlocks) {
  // A state with several singleton blocks: after the pass each must
  // still have its vertex.
  generator::DcsbmParams p;
  p.num_vertices = 60;
  p.num_communities = 3;
  p.num_edges = 400;
  p.seed = 34;
  const auto g = generator::generate_dcsbm(p);
  // Labels 3,4,5 are singletons held by vertices 0,1,2.
  std::vector<std::int32_t> state = g.ground_truth;
  for (auto& label : state) label = label % 3;
  state[0] = 3;
  state[1] = 4;
  state[2] = 5;
  const auto b = Blockmodel::from_assignment(g.graph, state, 6);

  PassWorkspace ws;
  ws.reset(b);
  std::vector<Vertex> all(60);
  std::iota(all.begin(), all.end(), 0);
  util::RngPool rngs(3, 4);
  async_pass(g.graph, b, ws, all, 3.0, rngs);

  const auto result = ws.shared;
  std::vector<int> counts(6, 0);
  for (const std::int32_t label : result) {
    ++counts[static_cast<std::size_t>(label)];
  }
  for (int label = 3; label <= 5; ++label) {
    EXPECT_GE(counts[static_cast<std::size_t>(label)], 1);
  }
}

TEST(AsyncPass, DeterministicForSingleThreadTeam) {
  // Same seed, same result, replayed exactly;
  // AsyncPassSchedule.SameResultAtEveryThreadCount extends this across
  // team sizes and schedules.
  generator::DcsbmParams p;
  p.num_vertices = 150;
  p.num_communities = 4;
  p.num_edges = 1000;
  p.seed = 35;
  const auto g = generator::generate_dcsbm(p);
  const auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 4);
  std::vector<Vertex> all(150);
  std::iota(all.begin(), all.end(), 0);

  const int prev_threads = omp_get_max_threads();
  omp_set_num_threads(1);
  const auto run_once = [&]() {
    PassWorkspace ws;
    ws.reset(b);
    util::RngPool rngs(9, 4);
    async_pass(g.graph, b, ws, all, 3.0, rngs);
    return ws.shared;
  };
  const auto first = run_once();
  const auto second = run_once();
  omp_set_num_threads(prev_threads);
  EXPECT_EQ(first, second);
}

TEST(AsyncPass, EmptyVertexSetIsNoop) {
  generator::DcsbmParams p;
  p.num_vertices = 50;
  p.num_communities = 2;
  p.num_edges = 300;
  p.seed = 36;
  const auto g = generator::generate_dcsbm(p);
  auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 2);
  PassWorkspace ws;
  ws.reset(b);
  util::RngPool rngs(1, 2);
  const auto counters = async_pass(g.graph, b, ws, {}, 3.0, rngs);
  EXPECT_EQ(counters.proposals, 0);
  EXPECT_EQ(counters.accepted, 0);
  EXPECT_EQ(ws.shared, b.assignment());
  const auto apply = finish_pass(g.graph, b, ws);
  EXPECT_EQ(apply.moved, 0);
  EXPECT_EQ(apply.moved_degree, 0);
  EXPECT_FALSE(apply.rebuilt);
}

TEST(AsyncPass, SyncMoveKeepsWorkspaceInvariant) {
  generator::DcsbmParams p;
  p.num_vertices = 90;
  p.num_communities = 3;
  p.num_edges = 600;
  p.seed = 39;
  const auto g = generator::generate_dcsbm(p);
  auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 3);
  PassWorkspace ws;
  ws.reset(b);

  // Serial-style moves mirrored through sync_move, as the hybrid
  // phase's high-degree sweep does.
  for (Vertex v = 0; v < 10; ++v) {
    const BlockId from = b.block_of(v);
    if (b.block_size(from) <= 1) continue;
    const auto to = static_cast<BlockId>((from + 1) % 3);
    b.move_vertex(g.graph, v, to);
    ws.sync_move(v, from, to);
  }
  EXPECT_EQ(ws.shared, b.assignment());
  for (BlockId r = 0; r < 3; ++r) {
    EXPECT_EQ(ws.sizes[static_cast<std::size_t>(r)], b.block_size(r));
  }
}

TEST(Schedule, NamesRoundTrip) {
  for (const PassSchedule s :
       {PassSchedule::Static, PassSchedule::Dynamic, PassSchedule::Guided,
        PassSchedule::DegreeSorted}) {
    const auto parsed = parse_schedule(schedule_name(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_EQ(parse_schedule("degree_sorted"), PassSchedule::DegreeSorted);
  EXPECT_FALSE(parse_schedule("auto").has_value());
}

TEST(Schedule, DegreeSortedOrderIsDescendingAndStable) {
  generator::DcsbmParams p;
  p.num_vertices = 120;
  p.num_communities = 4;
  p.num_edges = 900;
  p.seed = 41;
  const auto g = generator::generate_dcsbm(p);
  std::vector<Vertex> all(120);
  std::iota(all.begin(), all.end(), 0);

  std::vector<Vertex> order;
  degree_sorted_order(g.graph, all, order);
  ASSERT_EQ(order.size(), all.size());
  std::vector<Vertex> sorted_copy = order;
  std::sort(sorted_copy.begin(), sorted_copy.end());
  EXPECT_EQ(sorted_copy, all);  // a permutation
  for (std::size_t i = 1; i < order.size(); ++i) {
    const auto prev = g.graph.degree(order[i - 1]);
    const auto cur = g.graph.degree(order[i]);
    EXPECT_GE(prev, cur);
    // Stability: equal degrees keep their input (ascending-id) order.
    if (prev == cur) EXPECT_LT(order[i - 1], order[i]);
  }

  // Sorting within runs of 50 (the async pass sorts each round): every
  // run is a descending permutation of the same run of the input.
  degree_sorted_order(g.graph, all, order, 50);
  ASSERT_EQ(order.size(), all.size());
  for (std::size_t begin = 0; begin < order.size(); begin += 50) {
    const std::size_t end = std::min(begin + 50, order.size());
    std::vector<Vertex> run(order.begin() + static_cast<std::ptrdiff_t>(begin),
                            order.begin() + static_cast<std::ptrdiff_t>(end));
    for (std::size_t i = 1; i < run.size(); ++i) {
      EXPECT_GE(g.graph.degree(run[i - 1]), g.graph.degree(run[i]));
    }
    std::sort(run.begin(), run.end());
    EXPECT_EQ(run, std::vector<Vertex>(
                       all.begin() + static_cast<std::ptrdiff_t>(begin),
                       all.begin() + static_cast<std::ptrdiff_t>(end)));
  }
}

/// One pass + apply under every schedule: the work distribution must
/// not affect any workspace or blockmodel invariant, nor the result.
/// Running this suite under TSan (ctest -L async in check_tier1.sh)
/// exercises the chunk-stealing interleavings the static schedule never
/// produces.
class AsyncPassSchedule : public ::testing::TestWithParam<PassSchedule> {};

TEST_P(AsyncPassSchedule, PassAndApplyKeepInvariants) {
  generator::DcsbmParams p;
  p.num_vertices = 300;
  p.num_communities = 5;
  p.num_edges = 2400;
  p.seed = 42;
  const auto g = generator::generate_dcsbm(p);
  auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 5);

  PassWorkspace ws;
  ws.reset(b);
  std::vector<Vertex> all(300);
  std::iota(all.begin(), all.end(), 0);
  util::RngPool rngs(11, 4);
  const auto counters =
      async_pass(g.graph, b, ws, all, 3.0, rngs, GetParam());
  EXPECT_EQ(counters.proposals, 300);
  EXPECT_LE(counters.accepted, counters.proposals);

  // Size accounting stays exact and no block empties, regardless of
  // which thread evaluated which vertex.
  const auto result = ws.shared;
  std::vector<std::int32_t> recounted(5, 0);
  for (const std::int32_t label : result) {
    ++recounted[static_cast<std::size_t>(label)];
  }
  for (BlockId r = 0; r < 5; ++r) {
    EXPECT_EQ(ws.sizes[static_cast<std::size_t>(r)],
              recounted[static_cast<std::size_t>(r)]);
    EXPECT_GT(recounted[static_cast<std::size_t>(r)], 0);
  }

  // The applied blockmodel lands exactly on the shared memberships.
  finish_pass(g.graph, b, ws);
  EXPECT_EQ(b.assignment(), result);
}

TEST_P(AsyncPassSchedule, DeterministicForSingleThreadTeam) {
  // Every schedule must replay a single-thread team exactly.
  generator::DcsbmParams p;
  p.num_vertices = 150;
  p.num_communities = 4;
  p.num_edges = 1000;
  p.seed = 43;
  const auto g = generator::generate_dcsbm(p);
  const auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 4);
  std::vector<Vertex> all(150);
  std::iota(all.begin(), all.end(), 0);

  const int prev_threads = omp_get_max_threads();
  omp_set_num_threads(1);
  const auto run_once = [&]() {
    PassWorkspace ws;
    ws.reset(b);
    util::RngPool rngs(9, 4);
    async_pass(g.graph, b, ws, all, 3.0, rngs, GetParam());
    return ws.shared;
  };
  const auto first = run_once();
  const auto second = run_once();
  omp_set_num_threads(prev_threads);
  EXPECT_EQ(first, second);
}

TEST_P(AsyncPassSchedule, SameResultAtEveryThreadCount) {
  // A pass reads the pass-start memberships and draws keyed on the
  // vertex, so neither the team size nor the schedule may change which
  // moves it accepts. The Static single-thread pass is the reference.
  generator::DcsbmParams p;
  p.num_vertices = 400;
  p.num_communities = 6;
  p.num_edges = 3200;
  p.seed = 44;
  const auto g = generator::generate_dcsbm(p);
  std::vector<std::int32_t> start = g.ground_truth;
  for (std::size_t v = 0; v < start.size(); v += 3) {
    start[v] = static_cast<std::int32_t>((start[v] + 1) % 6);
  }
  const auto b = Blockmodel::from_assignment(g.graph, start, 6);
  std::vector<Vertex> all(400);
  std::iota(all.begin(), all.end(), 0);

  const int prev_threads = omp_get_max_threads();
  const auto run_with = [&](int threads, PassSchedule schedule) {
    omp_set_num_threads(threads);
    PassWorkspace ws;
    ws.reset(b);
    util::RngPool rngs(13, 4);
    const auto counters = async_pass(g.graph, b, ws, all, 1.0, rngs, schedule);
    return std::make_pair(ws.shared, counters.accepted);
  };
  const auto reference = run_with(1, PassSchedule::Static);
  ASSERT_GT(reference.second, 0) << "pass moved nothing; raise acceptance";
  for (const int threads : {1, 2, 4}) {
    const auto got = run_with(threads, GetParam());
    EXPECT_EQ(got.first, reference.first) << threads << " threads";
    EXPECT_EQ(got.second, reference.second) << threads << " threads";
  }
  omp_set_num_threads(prev_threads);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedules, AsyncPassSchedule,
    ::testing::Values(PassSchedule::Static, PassSchedule::Dynamic,
                      PassSchedule::Guided, PassSchedule::DegreeSorted),
    [](const ::testing::TestParamInfo<PassSchedule>& info) {
      switch (info.param) {
        case PassSchedule::Static:
          return "Static";
        case PassSchedule::Dynamic:
          return "Dynamic";
        case PassSchedule::Guided:
          return "Guided";
        case PassSchedule::DegreeSorted:
          return "DegreeSorted";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace hsbp::sbp::detail
