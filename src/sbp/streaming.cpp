#include "sbp/streaming.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "blockmodel/labels.hpp"
#include "util/timer.hpp"

namespace hsbp::sbp {

using blockmodel::BlockId;
using graph::Graph;
using graph::Vertex;

std::vector<std::int32_t> extend_assignment(
    const Graph& graph, std::span<const std::int32_t> assignment,
    BlockId& num_blocks) {
  const auto v_count = static_cast<std::size_t>(graph.num_vertices());
  if (assignment.size() > v_count) {
    throw std::invalid_argument(
        "extend_assignment: snapshot has fewer vertices than the previous "
        "partition");
  }
  for (const std::int32_t label : assignment) {
    if (label < 0 || label >= num_blocks) {
      throw std::invalid_argument(
          "extend_assignment: previous label outside [0, num_blocks)");
    }
  }
  std::vector<std::int32_t> extended(v_count, -1);
  std::copy(assignment.begin(), assignment.end(), extended.begin());

  // New vertices in id order: adopt the plurality labeled neighbor
  // block. Earlier-extended new vertices count as labeled, so chains of
  // new vertices attach to the existing structure where possible. Each
  // new vertex opens at most one block, which bounds the label space.
  blockmodel::PluralityVote plurality(
      num_blocks + static_cast<BlockId>(v_count - assignment.size()));
  for (std::size_t v = assignment.size(); v < v_count; ++v) {
    const BlockId best =
        plurality.vote(graph, extended, static_cast<Vertex>(v));
    extended[v] = best >= 0 ? best : num_blocks++;
  }
  return extended;
}

std::vector<std::int32_t> refine_assignment(
    std::span<const std::int32_t> assignment, BlockId& num_blocks,
    int factor, std::uint64_t seed) {
  if (factor < 1) {
    throw std::invalid_argument("refine_assignment: factor >= 1");
  }
  util::Rng rng(seed);
  std::vector<std::int32_t> refined(assignment.size());
  for (std::size_t v = 0; v < assignment.size(); ++v) {
    const auto sub = static_cast<std::int32_t>(
        rng.uniform_int(static_cast<std::uint64_t>(factor)));
    refined[v] = assignment[v] * factor + sub;
  }
  num_blocks = blockmodel::compact_labels(refined, num_blocks * factor);
  return refined;
}

SbpResult warm_refit(const Graph& graph,
                     std::span<const std::int32_t> previous_assignment,
                     BlockId previous_blocks, const SbpConfig& config,
                     int refine_factor, std::uint64_t refine_seed) {
  if (graph.num_edges() == 0) {
    SbpResult trivial;
    trivial.assignment.assign(static_cast<std::size_t>(graph.num_vertices()),
                              0);
    trivial.num_blocks = graph.num_vertices() > 0 ? 1 : 0;
    return trivial;
  }
  if (previous_blocks <= 2) return run(graph, config);
  BlockId num_blocks = previous_blocks;
  const auto extended =
      extend_assignment(graph, previous_assignment, num_blocks);
  const auto warm =
      refine_assignment(extended, num_blocks, refine_factor, refine_seed);
  return run_warm(graph, config, warm, num_blocks);
}

StreamingResult run_streaming(const std::vector<Graph>& snapshots,
                              const SbpConfig& config, int refine_factor) {
  if (snapshots.empty()) {
    throw std::invalid_argument("run_streaming: no snapshots");
  }
  if (refine_factor < 1) {
    throw std::invalid_argument("run_streaming: refine_factor >= 1");
  }
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    if (snapshots[i].num_vertices() < snapshots[i - 1].num_vertices()) {
      throw std::invalid_argument(
          "run_streaming: snapshots must be cumulative (vertex count "
          "shrank)");
    }
  }

  util::Timer total;
  StreamingResult result;
  result.snapshots.reserve(snapshots.size());

  const SbpResult none;
  for (std::size_t part = 0; part < snapshots.size(); ++part) {
    const SbpResult& previous =
        part == 0 ? none : result.snapshots.back();
    result.snapshots.push_back(warm_refit(
        snapshots[part], previous.assignment, previous.num_blocks, config,
        refine_factor, config.seed + part));
  }

  result.total_seconds = total.elapsed();
  return result;
}

}  // namespace hsbp::sbp
