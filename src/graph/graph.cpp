#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace hsbp::graph {

Graph Graph::from_edges(Vertex num_vertices, std::span<const Edge> edges) {
  if (num_vertices < 0) {
    throw std::invalid_argument("Graph: negative vertex count");
  }
  Graph g;
  const auto v_count = static_cast<std::size_t>(num_vertices);
  g.out_offsets_.assign(v_count + 1, 0);
  g.in_offsets_.assign(v_count + 1, 0);

  for (const auto& [src, dst] : edges) {
    if (src < 0 || src >= num_vertices || dst < 0 || dst >= num_vertices) {
      throw std::invalid_argument(
          "Graph: edge (" + std::to_string(src) + ", " + std::to_string(dst) +
          ") outside vertex range [0, " + std::to_string(num_vertices) + ")");
    }
    ++g.out_offsets_[static_cast<std::size_t>(src) + 1];
    ++g.in_offsets_[static_cast<std::size_t>(dst) + 1];
    if (src == dst) ++g.self_loops_;
  }
  for (std::size_t i = 1; i <= v_count; ++i) {
    g.out_offsets_[i] += g.out_offsets_[i - 1];
    g.in_offsets_[i] += g.in_offsets_[i - 1];
  }

  g.out_targets_.resize(edges.size());
  g.in_sources_.resize(edges.size());
  std::vector<std::uint64_t> out_cursor(g.out_offsets_.begin(),
                                        g.out_offsets_.end() - 1);
  std::vector<std::uint64_t> in_cursor(g.in_offsets_.begin(),
                                       g.in_offsets_.end() - 1);
  for (const auto& [src, dst] : edges) {
    g.out_targets_[out_cursor[static_cast<std::size_t>(src)]++] = dst;
    g.in_sources_[in_cursor[static_cast<std::size_t>(dst)]++] = src;
  }
  return g;
}

Graph Graph::from_csr(std::vector<std::uint64_t> out_offsets,
                      std::vector<Vertex> out_targets,
                      std::vector<std::uint64_t> in_offsets,
                      std::vector<Vertex> in_sources) {
  const auto check_side = [](const std::vector<std::uint64_t>& offsets,
                             const std::vector<Vertex>& ids,
                             std::size_t v_count) {
    if (offsets.empty() || offsets.front() != 0 ||
        offsets.back() != ids.size() ||
        !std::is_sorted(offsets.begin(), offsets.end())) {
      throw std::invalid_argument("Graph: malformed CSR offsets");
    }
    for (const Vertex id : ids) {
      if (id < 0 || static_cast<std::size_t>(id) >= v_count) {
        throw std::invalid_argument("Graph: CSR neighbour id " +
                                    std::to_string(id) + " out of range");
      }
    }
  };
  if (out_offsets.size() != in_offsets.size()) {
    throw std::invalid_argument("Graph: CSR directions disagree on V");
  }
  const std::size_t v_count = out_offsets.empty() ? 0 : out_offsets.size() - 1;
  check_side(out_offsets, out_targets, v_count);
  check_side(in_offsets, in_sources, v_count);

  // The in-direction must be the transpose of the out-direction; the
  // O(E) check compares each vertex's degrees as both lists see them.
  std::vector<std::uint64_t> in_seen(v_count, 0);
  std::vector<std::uint64_t> out_seen(v_count, 0);
  for (const Vertex target : out_targets) {
    ++in_seen[static_cast<std::size_t>(target)];
  }
  for (const Vertex source : in_sources) {
    ++out_seen[static_cast<std::size_t>(source)];
  }
  Graph g;
  for (std::size_t v = 0; v < v_count; ++v) {
    if (in_seen[v] != in_offsets[v + 1] - in_offsets[v] ||
        out_seen[v] != out_offsets[v + 1] - out_offsets[v]) {
      throw std::invalid_argument(
          "Graph: CSR directions disagree on the degrees of vertex " +
          std::to_string(v));
    }
    for (std::uint64_t i = out_offsets[v]; i < out_offsets[v + 1]; ++i) {
      if (out_targets[i] == static_cast<Vertex>(v)) ++g.self_loops_;
    }
  }

  g.out_offsets_ = std::move(out_offsets);
  g.out_targets_ = std::move(out_targets);
  g.in_offsets_ = std::move(in_offsets);
  g.in_sources_ = std::move(in_sources);
  return g;
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(static_cast<std::size_t>(num_edges()));
  for (Vertex v = 0; v < num_vertices(); ++v) {
    for (Vertex target : out_neighbors(v)) {
      out.emplace_back(v, target);
    }
  }
  return out;
}

}  // namespace hsbp::graph
