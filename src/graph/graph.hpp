/// \file graph.hpp
/// \brief Directed multigraph in CSR form — the substrate every SBP
/// variant runs on.
///
/// SBP needs, per vertex, fast iteration over both out- and in-edges
/// (proposals and ΔMDL look at both directions), so the graph stores two
/// CSR structures: out-neighbors indexed by source and in-neighbors
/// indexed by target. Graphs are immutable after construction; use
/// GraphBuilder or Graph::from_edges to create one.
///
/// Conventions (matching the paper's setting):
///   - directed, unweighted; parallel edges and self-loops are allowed
///     and counted with multiplicity,
///   - vertices are dense ids [0, V),
///   - degree(v) = out_degree(v) + in_degree(v), so a self-loop
///     contributes 2 to degree(v).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace hsbp::graph {

using Vertex = std::int32_t;
using EdgeCount = std::int64_t;
using Edge = std::pair<Vertex, Vertex>;  ///< (source, target)

class Graph {
 public:
  /// Empty graph (0 vertices).
  Graph() = default;

  /// Builds CSR from an edge list. Edges may repeat (multiplicity kept).
  /// \throws std::invalid_argument if an endpoint is outside [0, V).
  static Graph from_edges(Vertex num_vertices, std::span<const Edge> edges);

  /// Adopts CSR arrays that already hold both directions: every edge
  /// once in `out_targets` (indexed by source) and once in `in_sources`
  /// (indexed by target). Neighbour order is kept as given, so a graph
  /// derived from another (an induced subgraph) can list neighbours in
  /// its parent's order.
  /// \throws std::invalid_argument if the arrays are malformed or the
  /// two directions disagree on a vertex's degrees.
  static Graph from_csr(std::vector<std::uint64_t> out_offsets,
                        std::vector<Vertex> out_targets,
                        std::vector<std::uint64_t> in_offsets,
                        std::vector<Vertex> in_sources);

  Vertex num_vertices() const noexcept {
    return static_cast<Vertex>(out_offsets_.empty() ? 0
                                                    : out_offsets_.size() - 1);
  }
  EdgeCount num_edges() const noexcept {
    return static_cast<EdgeCount>(out_targets_.size());
  }

  /// Targets of edges leaving v, with multiplicity.
  std::span<const Vertex> out_neighbors(Vertex v) const noexcept {
    return {out_targets_.data() + out_offsets_[static_cast<std::size_t>(v)],
            out_targets_.data() + out_offsets_[static_cast<std::size_t>(v) + 1]};
  }

  /// Sources of edges entering v, with multiplicity.
  std::span<const Vertex> in_neighbors(Vertex v) const noexcept {
    return {in_sources_.data() + in_offsets_[static_cast<std::size_t>(v)],
            in_sources_.data() + in_offsets_[static_cast<std::size_t>(v) + 1]};
  }

  EdgeCount out_degree(Vertex v) const noexcept {
    return static_cast<EdgeCount>(
        out_offsets_[static_cast<std::size_t>(v) + 1] -
        out_offsets_[static_cast<std::size_t>(v)]);
  }
  EdgeCount in_degree(Vertex v) const noexcept {
    return static_cast<EdgeCount>(
        in_offsets_[static_cast<std::size_t>(v) + 1] -
        in_offsets_[static_cast<std::size_t>(v)]);
  }
  /// Total degree: out + in (self-loops count twice).
  EdgeCount degree(Vertex v) const noexcept {
    return out_degree(v) + in_degree(v);
  }

  /// Number of self-loop edge instances.
  EdgeCount num_self_loops() const noexcept { return self_loops_; }

  /// Reconstructs the edge list (source-major order). Mostly for I/O and
  /// tests.
  std::vector<Edge> edges() const;

 private:
  friend class GraphBuilder;
  friend class GraphView;  // view.hpp: non-owning CSR view over the arrays

  std::vector<std::uint64_t> out_offsets_{0};
  std::vector<Vertex> out_targets_;
  std::vector<std::uint64_t> in_offsets_{0};
  std::vector<Vertex> in_sources_;
  EdgeCount self_loops_ = 0;
};

}  // namespace hsbp::graph
