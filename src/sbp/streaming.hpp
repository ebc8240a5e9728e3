/// \file streaming.hpp
/// \brief Streaming stochastic block partitioning.
///
/// SBP originates from the IEEE HPEC *Streaming* Graph Challenge
/// (Kao et al. 2017 — the paper's ref [9]), where the graph arrives in
/// parts and the partition must be maintained as edges accumulate.
/// This module implements that workload on top of the paper's
/// algorithms: each cumulative snapshot is fitted by warm-starting from
/// the previous partition instead of from the identity partition, which
/// is where streaming saves its time.
///
/// Warm-start rule for vertices unseen in the previous snapshot: adopt
/// the plurality block among already-labeled neighbors
/// (blockmodel::PluralityVote, the vote sample::extrapolate uses too);
/// vertices with no labeled neighbor open a fresh singleton block (the
/// subsequent merge phase folds it wherever it belongs).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "sbp/sbp.hpp"

namespace hsbp::sbp {

/// Extends a partition of a smaller vertex set to `graph`'s vertex set
/// using the neighbor-plurality rule above. `assignment` may be empty
/// (every vertex gets its own block). Returns the extended assignment;
/// `num_blocks` is updated to include any fresh singleton blocks.
/// \throws std::invalid_argument if `assignment` covers more vertices
/// than `graph` or holds a label outside [0, num_blocks).
std::vector<std::int32_t> extend_assignment(
    const graph::Graph& graph, std::span<const std::int32_t> assignment,
    blockmodel::BlockId& num_blocks);

/// Runs the configured variant on `graph` starting from an arbitrary
/// evaluated partition instead of the identity partition (the warm-start
/// entry point streaming builds on; run() is the cold-start special
/// case). \pre assignment labels dense in [0, num_blocks).
SbpResult run_warm(const graph::Graph& graph, const SbpConfig& config,
                   std::span<const std::int32_t> assignment,
                   blockmodel::BlockId num_blocks);

/// Randomly splits every block into up to `factor` sub-blocks and
/// compacts the labels (blockmodel::compact_labels, first-appearance
/// order). Warm starts need this because the golden search only merges
/// downward: new edges may reveal that a previous block must *split*,
/// and the refined partition puts the optimum back below the starting
/// block count while keeping most of the learned structure (coherent
/// sub-blocks re-merge in one cheap merge phase). Deterministic in
/// `seed`. \throws std::invalid_argument if factor < 1 or a label lies
/// outside [0, num_blocks).
std::vector<std::int32_t> refine_assignment(
    std::span<const std::int32_t> assignment, blockmodel::BlockId& num_blocks,
    int factor, std::uint64_t seed);

/// The warm-refit policy every warm-start driver shares (run_streaming
/// between snapshots, the serve daemon after an INGEST, the streaming
/// bench): refit `graph` starting from `previous_assignment`, a
/// partition of a prefix of its vertices into `previous_blocks` blocks.
///   - An edgeless graph has no structure: every vertex in one block.
///   - Merges only coarsen, so a warm start can refine downward from its
///     block count but never split upward; a near-trivial previous
///     partition (<= 2 blocks, or none at all) would pin the search, so
///     it refits cold with run().
///   - Otherwise extend_assignment → refine_assignment(refine_factor,
///     refine_seed) → run_warm.
/// \throws std::invalid_argument as extend_assignment, refine_assignment
/// and run() do.
SbpResult warm_refit(const graph::Graph& graph,
                     std::span<const std::int32_t> previous_assignment,
                     blockmodel::BlockId previous_blocks,
                     const SbpConfig& config, int refine_factor,
                     std::uint64_t refine_seed);

struct StreamingResult {
  /// Result after each cumulative snapshot (last = final answer).
  std::vector<SbpResult> snapshots;
  double total_seconds = 0.0;
};

/// Fits each cumulative snapshot in order with warm_refit from the
/// previous snapshot's partition (refine seed `config.seed + part`; the
/// first snapshot is fitted cold). Snapshots must be cumulative: each
/// graph contains at least the vertices of its predecessor (typically
/// produced by generator::streaming_snapshots).
/// \throws std::invalid_argument on an empty snapshot list, a shrinking
/// vertex count, or refine_factor < 1.
StreamingResult run_streaming(const std::vector<graph::Graph>& snapshots,
                              const SbpConfig& config,
                              int refine_factor = 3);

}  // namespace hsbp::sbp
