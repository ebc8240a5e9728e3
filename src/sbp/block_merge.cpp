#include "sbp/block_merge.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

#include "blockmodel/labels.hpp"
#include "blockmodel/merge_delta.hpp"
#include "sbp/proposal.hpp"
#include "util/omp_region.hpp"

namespace hsbp::sbp {

using blockmodel::BlockId;
using blockmodel::Blockmodel;

namespace {

struct BestMerge {
  double delta_mdl = std::numeric_limits<double>::infinity();
  BlockId partner = -1;
};

/// Path-compressing find over the merge parent forest.
BlockId find_root(std::vector<BlockId>& parent, BlockId x) {
  while (parent[static_cast<std::size_t>(x)] != x) {
    parent[static_cast<std::size_t>(x)] =
        parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
    x = parent[static_cast<std::size_t>(x)];
  }
  return x;
}

}  // namespace

MergeOutcome block_merge_phase(const graph::GraphView& graph, const Blockmodel& b,
                               BlockId target_blocks, int proposals_per_block,
                               util::RngPool& rngs) {
  const BlockId num_blocks = b.num_blocks();
  assert(target_blocks >= 1 && target_blocks <= num_blocks);

  MergeOutcome outcome;
  if (target_blocks == num_blocks || num_blocks < 2) {
    outcome.assignment = b.assignment();
    outcome.num_blocks = num_blocks;
    return outcome;
  }

  // Parallel proposal sweep: each block evaluates `proposals_per_block`
  // candidate partners and records its best ΔMDL. Block c draws from a
  // stream keyed on (merge key, c), so the sweep's result does not
  // depend on which thread evaluates which block.
  std::vector<BestMerge> best(static_cast<std::size_t>(num_blocks));
  const std::uint64_t merge_key = rngs.stream(0).next_u64();
  util::omp_region([&] {
#pragma omp for schedule(static)
    for (BlockId c = 0; c < num_blocks; ++c) {
      util::Rng rng =
          util::keyed_stream(merge_key, static_cast<std::uint64_t>(c), 0);
      // Reuse the thread's scratch arena: the neighbor-count buffers
      // are cleared and refilled per block instead of reallocated.
      blockmodel::NeighborBlockCounts& nb =
          blockmodel::thread_move_scratch().nb;
      block_neighbor_counts_into(b, c, nb);
      BestMerge& slot = best[static_cast<std::size_t>(c)];
      for (int attempt = 0; attempt < proposals_per_block; ++attempt) {
        const BlockId partner =
            propose_block(b, nb, c, /*is_merge=*/true, rng);
        if (partner == c) continue;
        const double delta = blockmodel::merge_delta_mdl(
            b, c, partner, graph.num_vertices(), graph.num_edges());
        if (delta < slot.delta_mdl) {
          slot.delta_mdl = delta;
          slot.partner = partner;
        }
      }
    }
  });

  // Sort blocks by their best ΔMDL and apply merges greedily.
  std::vector<BlockId> order(static_cast<std::size_t>(num_blocks));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&best](BlockId a, BlockId c) {
    return best[static_cast<std::size_t>(a)].delta_mdl <
           best[static_cast<std::size_t>(c)].delta_mdl;
  });

  std::vector<BlockId> parent(static_cast<std::size_t>(num_blocks));
  std::iota(parent.begin(), parent.end(), 0);
  BlockId remaining = num_blocks;
  for (const BlockId c : order) {
    if (remaining <= target_blocks) break;
    const BestMerge& merge = best[static_cast<std::size_t>(c)];
    if (merge.partner < 0) continue;  // block had no viable partner
    const BlockId root_from = find_root(parent, c);
    const BlockId root_to = find_root(parent, merge.partner);
    if (root_from == root_to) continue;  // chain already joined them
    parent[static_cast<std::size_t>(root_from)] = root_to;
    --remaining;
  }

  // Flatten each old block to its root and densely relabel the surviving
  // roots (O(C), serial, path compression mutates `parent`) so the O(V)
  // relabel sweep below is a read-only data-parallel gather.
  std::vector<BlockId> final_label(static_cast<std::size_t>(num_blocks));
  for (BlockId c = 0; c < num_blocks; ++c) {
    final_label[static_cast<std::size_t>(c)] = find_root(parent, c);
  }
  outcome.num_blocks = blockmodel::compact_labels(final_label, num_blocks);
  outcome.assignment.resize(b.assignment().size());
  const auto& old_assignment = b.assignment();
  const auto v_count = static_cast<std::int64_t>(old_assignment.size());
  util::omp_region([&] {
#pragma omp for schedule(static)
    for (std::int64_t v = 0; v < v_count; ++v) {
      outcome.assignment[static_cast<std::size_t>(v)] =
          final_label[static_cast<std::size_t>(
              old_assignment[static_cast<std::size_t>(v)])];
    }
  });
  return outcome;
}

}  // namespace hsbp::sbp
