/// \file labels.hpp
/// \brief The label bookkeeping every warm start shares: the
/// neighbour-plurality vote that places an unlabelled vertex, and the
/// compaction that renumbers a label vector densely.
///
/// Users: the vote places new vertices in sbp::extend_assignment and the
/// unsampled remainder in sample::extrapolate (and through it the
/// out-of-core fit); the compaction closes label gaps in
/// sbp::refine_assignment, the out-of-core piece refits and stitch, and
/// dist's empty-block sweep.
///
/// Both work over bounded labels — every label lies in [0, num_labels)
/// — so they count in flat arrays instead of hash maps.
/// metrics::ContingencyTable keeps its own hash-map compaction on
/// purpose: it reads partition files from outside the program, whose
/// labels are unbounded (DESIGN §8).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "blockmodel/flat_slice.hpp"
#include "graph/view.hpp"

namespace hsbp::blockmodel {

/// Neighbour-plurality vote with a reused vote array and a touched list,
/// so one vote costs O(deg(v)) however many labels exist.
class PluralityVote {
 public:
  /// \pre every label later passed to vote() is < num_labels.
  explicit PluralityVote(BlockId num_labels)
      : votes_(static_cast<std::size_t>(num_labels), 0) {}

  /// The label held by most of v's neighbours in `labels`, counting
  /// out- and in-edges with multiplicity; negative labels mean
  /// "unlabelled" and do not vote. Ties break toward the smaller label,
  /// so the vote is deterministic. Returns −1 if no neighbour is
  /// labelled.
  BlockId vote(const graph::GraphView& graph,
               std::span<const std::int32_t> labels, graph::Vertex v);

 private:
  std::vector<std::int64_t> votes_;
  std::vector<BlockId> touched_;
};

/// Renumbers `labels` densely to [0, k) in order of first appearance
/// and returns k; labels no entry holds disappear.
/// \throws std::invalid_argument on a label outside [0, num_labels).
BlockId compact_labels(std::span<std::int32_t> labels, BlockId num_labels);

}  // namespace hsbp::blockmodel
