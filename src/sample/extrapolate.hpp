/// \file extrapolate.hpp
/// \brief Membership propagation from a partitioned sample to the full
/// graph — SamBaS's "extrapolate" stage (arXiv:2108.06651 §III-C).
///
/// Sampled vertices keep the block the subgraph fit gave them. The
/// unsampled remainder is labeled over a multi-source BFS frontier
/// rooted at the sampled core: when a vertex is first reached, it joins
/// the plurality block among its already-labeled neighbors
/// (blockmodel::PluralityVote: edge multiplicity counts, ties break
/// toward the smaller block id, so the stage is deterministic). This is
/// the greedy argmax of the ΔMDL a single-vertex attachment can change —
/// the likelihood term only moves through the vertex's edge counts into
/// each block. Unsampled vertices
/// in components with no sampled vertex have no signal at all and join
/// the globally best (largest) block; the fine-tune stage is what moves
/// them somewhere sensible.
///
/// The stage returns labels only; callers build whatever model they need
/// (sample::run an in-memory Blockmodel, ooc::fit a chunked one). This is
/// the one extrapolation in the code base: the out-of-core fit calls it
/// with a chunk callback that drops mapped pages as the frontier moves.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "blockmodel/flat_slice.hpp"
#include "graph/view.hpp"
#include "sample/samplers.hpp"

namespace hsbp::sample {

struct ExtrapolationResult {
  /// Full-graph membership: every vertex in [0, num_blocks).
  std::vector<std::int32_t> assignment;
  blockmodel::BlockId num_blocks = 0;
  /// Unsampled vertices labeled via the BFS frontier…
  std::int64_t frontier_assigned = 0;
  /// …and via the isolated-vertex fallback (no path to the core).
  std::int64_t isolated_assigned = 0;
};

/// Propagates `sample_assignment` (a partition of `sampled.subgraph`
/// into [0, num_blocks)) onto every vertex of `graph`. When `chunk` > 0,
/// `on_chunk` runs after every `chunk` vertices the BFS dequeues; it
/// cannot change the result.
/// \throws std::invalid_argument if sizes or labels are inconsistent.
ExtrapolationResult extrapolate(const graph::GraphView& graph,
                                const SampledGraph& sampled,
                                std::span<const std::int32_t> sample_assignment,
                                blockmodel::BlockId num_blocks,
                                std::int64_t chunk = 0,
                                const std::function<void()>& on_chunk = {});

}  // namespace hsbp::sample
