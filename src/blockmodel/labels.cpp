#include "blockmodel/labels.hpp"

#include <stdexcept>
#include <string>

namespace hsbp::blockmodel {

BlockId PluralityVote::vote(const graph::GraphView& graph,
                            std::span<const std::int32_t> labels,
                            graph::Vertex v) {
  touched_.clear();
  const auto tally = [&](graph::Vertex u) {
    const std::int32_t label = labels[static_cast<std::size_t>(u)];
    if (label < 0) return;
    if (votes_[static_cast<std::size_t>(label)]++ == 0) {
      touched_.push_back(label);
    }
  };
  for (const graph::Vertex u : graph.out_neighbors(v)) tally(u);
  for (const graph::Vertex u : graph.in_neighbors(v)) tally(u);

  BlockId best = -1;
  std::int64_t best_votes = 0;
  for (const BlockId label : touched_) {
    const std::int64_t count = votes_[static_cast<std::size_t>(label)];
    votes_[static_cast<std::size_t>(label)] = 0;
    if (count > best_votes || (count == best_votes && label < best)) {
      best = label;
      best_votes = count;
    }
  }
  return best;
}

BlockId compact_labels(std::span<std::int32_t> labels, BlockId num_labels) {
  std::vector<std::int32_t> dense(static_cast<std::size_t>(num_labels), -1);
  BlockId next = 0;
  for (auto& label : labels) {
    if (label < 0 || label >= num_labels) {
      throw std::invalid_argument("compact_labels: label " +
                                  std::to_string(label) +
                                  " outside [0, " +
                                  std::to_string(num_labels) + ")");
    }
    auto& d = dense[static_cast<std::size_t>(label)];
    if (d < 0) d = next++;
    label = d;
  }
  return next;
}

}  // namespace hsbp::blockmodel
