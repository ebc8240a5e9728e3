/// \file vertex_move_delta.hpp
/// \brief O(deg(v)) ΔMDL computation for a proposed vertex move — the
/// inner kernel of every MCMC phase (paper Algs. 2–4: "compute AMDL for
/// proposed move") — plus the MoveScratch arena that makes it
/// allocation-free.
///
/// Uses the decomposition L = Σ xlogx(M_rs) − Σ xlogx(d_out) − Σ
/// xlogx(d_in): a move r→s changes only cells in rows/columns r and s
/// whose partner block is a neighbor block of v, plus the four degree
/// entries. The model-complexity term of the MDL is unchanged because
/// vertex moves never change the number of blocks (moves that would
/// empty a block are rejected upstream).
///
/// Two API layers:
///   - *_into kernels writing into a caller-owned MoveScratch — the hot
///     path. No heap allocation after warm-up, O(k) dedup through
///     persistent per-block stamp indexes instead of linear rescans.
///   - by-value wrappers (gather_neighbor_blocks, vertex_move_delta)
///     retained for cold paths and tests; they run the same kernels
///     through a thread-local scratch and copy the result out.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "blockmodel/blockmodel.hpp"
#include "util/simd.hpp"

namespace hsbp::blockmodel {

/// Edge counts from a vertex to each adjacent block, gathered under a
/// given membership vector. The membership is passed explicitly because
/// A-SBP evaluates moves against a *stale* assignment (paper Alg. 3).
struct NeighborBlockCounts {
  /// Distinct (block, multiplicity) for out-edges v→u, u != v.
  std::vector<std::pair<BlockId, Count>> out;
  /// Distinct (block, multiplicity) for in-edges u→v, u != v.
  std::vector<std::pair<BlockId, Count>> in;
  Count self_loops = 0;   ///< multiplicity of edge (v, v)
  Count degree_out = 0;   ///< out-degree of v including self-loops
  Count degree_in = 0;    ///< in-degree of v including self-loops

  Count degree_total() const noexcept { return degree_out + degree_in; }
};

/// A changed cell of M: (row, col, additive delta).
struct CellDelta {
  BlockId row;
  BlockId col;
  Count delta;
};

/// Result of evaluating a move. `cell_deltas` lists every changed cell
/// exactly once (consumed by the Hastings correction, which needs
/// post-move matrix values without applying the move).
struct MoveDelta {
  double delta_mdl = 0.0;
  std::vector<CellDelta> cell_deltas;

  /// Post-move value of cell (row, col) given the pre-move blockmodel.
  /// Linear scan over the cell list; the hot path uses move_new_value()
  /// on a MoveScratch instead, which answers in O(1).
  Count new_value(const Blockmodel& b, BlockId row, BlockId col) const;
};

/// Per-thread reusable workspace for the propose/ΔMDL/accept step.
/// Holds the gather and cell-delta buffers (cleared, never freed, so
/// steady-state passes allocate nothing) and two persistent per-block
/// stamp indexes that turn the gather dedup into one stamped increment
/// per neighbor: a block's first sighting records its position in the
/// nb list, later sightings bump the count in place. Stamps are
/// invalidated in O(1) by bumping the epoch at gather entry.
///
/// The stamp indexes double as the move-description index: after a
/// gather, out_count(t)/in_count(t) answer the vertex's edge
/// multiplicity towards block t in O(1), which is exactly the cell
/// delta of the move for any non-corner cell (see move_new_value).
/// They stay valid until the next gather, provided nb itself is not
/// mutated in between (no caller does).
class MoveScratch {
 public:
  NeighborBlockCounts nb;  ///< gather target (buffers reused)
  MoveDelta delta;         ///< ΔMDL target (cell buffer reused)

  /// Edge multiplicity from the gathered vertex to block t (out / in
  /// direction); 0 for blocks outside the neighbor lists. Valid from
  /// the end of a gather until the next gather on this scratch.
  Count out_count(BlockId block) const noexcept {
    const auto i = static_cast<std::size_t>(block);
    return i < stamp_out_.size() && stamp_out_[i] == epoch_
               ? nb.out[idx_out_[i]].second
               : 0;
  }
  Count in_count(BlockId block) const noexcept {
    const auto i = static_cast<std::size_t>(block);
    return i < stamp_in_.size() && stamp_in_[i] == epoch_
               ? nb.in[idx_in_[i]].second
               : 0;
  }

  /// Gather internals: begin_gather() invalidates the previous gather's
  /// stamps in O(1); add_out/add_in accumulate one neighbor sighting
  /// (append on first sighting, in-place increment after).
  void begin_gather() noexcept { ++epoch_; }
  void add_out(BlockId block) {
    const auto i = static_cast<std::size_t>(block);
    if (i >= stamp_out_.size()) grow(i + 1);
    if (stamp_out_[i] == epoch_) {
      ++nb.out[idx_out_[i]].second;
    } else {
      stamp_out_[i] = epoch_;
      idx_out_[i] = nb.out.size();
      nb.out.emplace_back(block, 1);
    }
  }
  void add_in(BlockId block) {
    const auto i = static_cast<std::size_t>(block);
    if (i >= stamp_in_.size()) grow(i + 1);
    if (stamp_in_[i] == epoch_) {
      ++nb.in[idx_in_[i]].second;
    } else {
      stamp_in_[i] = epoch_;
      idx_in_[i] = nb.in.size();
      nb.in.emplace_back(block, 1);
    }
  }

  /// Endpoints of the move the `delta` buffer currently describes (set
  /// by vertex_move_delta_into; consumed by move_new_value), and the
  /// deltas of the four corner cells {from,to}×{from,to} — the only
  /// cells where out-, in- and self-loop contributions can overlap.
  BlockId move_from() const noexcept { return move_from_; }
  BlockId move_to() const noexcept { return move_to_; }
  Count corner_ff() const noexcept { return corner_ff_; }
  Count corner_tf() const noexcept { return corner_tf_; }
  Count corner_ft() const noexcept { return corner_ft_; }
  Count corner_tt() const noexcept { return corner_tt_; }
  void set_move(BlockId from, BlockId to) noexcept {
    move_from_ = from;
    move_to_ = to;
  }
  void set_corners(Count ff, Count tf, Count ft, Count tt) noexcept {
    corner_ff_ = ff;
    corner_tf_ = tf;
    corner_ft_ = ft;
    corner_tt_ = tt;
  }

  /// Staging arrays for the batched (SIMD) kernel paths: the ΔMDL /
  /// Hastings / merge kernels compact their per-term operands here,
  /// then hand the contiguous arrays to the util::simd /
  /// blockmodel::simd reductions. Contents are transient per kernel
  /// call; capacity is retained forever, like the other scratch
  /// buffers.
  struct BatchBuffers {
    std::vector<Count> old_vals;       ///< pre-move cell values, per cell
    std::vector<Count> new_vals;       ///< post-move cell values (nonzero Δ)
    std::vector<Count> fold_a;         ///< merge: merged counts
    std::vector<Count> fold_b;         ///< merge: existing counts
    std::vector<Count> fold_c;         ///< merge: folded counts
    std::vector<double> kd;            ///< Hastings: neighbor multiplicity
    std::vector<double> fwd_num;       ///< Hastings: forward numerators
    std::vector<double> fwd_den;       ///< Hastings: forward denominators
    std::vector<double> bwd_num;       ///< Hastings: backward numerators
    std::vector<double> bwd_den;       ///< Hastings: backward denominators
    std::vector<std::int32_t> blocks;  ///< gathered neighbor memberships
  };
  BatchBuffers batch;

 private:
  void grow(std::size_t needed) {
    stamp_out_.resize(needed, 0);
    stamp_in_.resize(needed, 0);
    idx_out_.resize(needed, 0);
    idx_in_.resize(needed, 0);
  }

  // Stamps are 64-bit so the epoch never wraps around into a stale
  // match; fresh entries hold 0 and the epoch starts at 1. Stamp and
  // list-position arrays are kept separate so a dedup hit issues the
  // two loads independently.
  std::vector<std::uint64_t> stamp_out_;
  std::vector<std::uint64_t> stamp_in_;
  std::vector<std::size_t> idx_out_;
  std::vector<std::size_t> idx_in_;
  std::uint64_t epoch_ = 1;
  BlockId move_from_ = -1;
  BlockId move_to_ = -1;
  Count corner_ff_ = 0;
  Count corner_tf_ = 0;
  Count corner_ft_ = 0;
  Count corner_tt_ = 0;
};

/// The calling thread's scratch arena (one per OpenMP thread, lives for
/// the thread's lifetime). Scratch state never influences results — the
/// epoch discipline fully isolates consecutive uses — so sharing one
/// arena across phases is safe.
MoveScratch& thread_move_scratch() noexcept;

/// Membership view over a plain contiguous int32 label array. Gather
/// loops recognize this type (it is not an opaque callable) and batch
/// the base[u] lookups through util::simd::gather_i32 (`vpgatherdd`).
/// The serial phases wrap the blockmodel's own assignment, the async
/// pass its workspace's membership vector.
struct FlatMembershipView {
  const std::int32_t* base = nullptr;
  BlockId operator()(graph::Vertex u) const noexcept {
    return base[static_cast<std::size_t>(u)];
  }
};

/// Gathers neighbor-block counts into scratch.nb, reading memberships
/// through `view`, a callable Vertex → BlockId. This is the A-SBP hook:
/// the async pass passes a view over its workspace's memberships, which
/// run ahead of the blockmodel within a pass, the serial phases a view
/// over the blockmodel's own assignment. Dedup is O(deg(v)) via the per-block stamp indexes,
/// which keep the counts readable (out_count/in_count) until the
/// next gather on the same scratch. When `view`
/// is a FlatMembershipView and the vertex degree is large, the
/// membership lookups for each neighbor span are batch-gathered into
/// scratch.batch.blocks first; the stamping loop reads the same block
/// values either way, so the nb output is identical.
template <typename View>
void gather_neighbor_blocks_into(const graph::GraphView& graph, const View& view,
                                 graph::Vertex v, MoveScratch& scratch) {
  constexpr bool kFlat = std::is_same_v<View, FlatMembershipView>;
  NeighborBlockCounts& nb = scratch.nb;
  nb.out.clear();
  nb.in.clear();
  nb.self_loops = 0;
  nb.degree_out = graph.out_degree(v);
  nb.degree_in = graph.in_degree(v);

  scratch.begin_gather();
  const std::span<const graph::Vertex> out = graph.out_neighbors(v);
  const std::span<const graph::Vertex> in = graph.in_neighbors(v);
  [[maybe_unused]] const std::int32_t* gathered = nullptr;
  if constexpr (kFlat) {
    // Batch the membership loads only for high-degree vertices: below
    // this the two gather calls cost more than they save (the scalar
    // loads hit L1 and overlap with the counting work), measured on
    // the bench fixture at mean degree ~10.
    constexpr std::size_t kGatherBatchMin = 64;
    if (out.size() + in.size() >= kGatherBatchMin) {
      auto& buf = scratch.batch.blocks;
      if (buf.size() < out.size() + in.size()) {
        buf.resize(out.size() + in.size());
      }
      util::simd::gather_i32(view.base, out.data(), out.size(), buf.data());
      util::simd::gather_i32(view.base, in.data(), in.size(),
                             buf.data() + out.size());
      gathered = buf.data();
    }
  }

  for (std::size_t j = 0; j < out.size(); ++j) {
    const graph::Vertex u = out[j];
    if (u == v) {
      ++nb.self_loops;
      continue;
    }
    BlockId block;
    if constexpr (kFlat) {
      block = gathered != nullptr ? gathered[j] : view(u);
    } else {
      block = view(u);
    }
    scratch.add_out(block);
  }
  for (std::size_t j = 0; j < in.size(); ++j) {
    const graph::Vertex u = in[j];
    if (u == v) continue;  // counted once via the out pass
    BlockId block;
    if constexpr (kFlat) {
      block = gathered != nullptr ? gathered[out.size() + j] : view(u);
    } else {
      block = view(u);
    }
    scratch.add_in(block);
  }
}

/// ΔMDL of moving v from `from` to `to`, written into scratch.delta
/// (plus the corner deltas, which move_new_value() reads afterwards).
/// `nb` is usually scratch.nb (aliasing is fine — it is only read).
/// \pre from != to; `nb` gathered under the same assignment the
/// blockmodel's M corresponds to, by a gather on this same scratch
/// (move_new_value and the batched Hastings correction answer
/// non-corner cell deltas from the scratch's count accumulators).
void vertex_move_delta_into(const Blockmodel& b, BlockId from, BlockId to,
                            const NeighborBlockCounts& nb,
                            MoveScratch& scratch);

/// Post-move value of cell (row, col) in O(1): a cell's delta is fully
/// determined by which of row/col equal from/to, the gather's count
/// accumulators, and the corner deltas left by vertex_move_delta_into.
Count move_new_value(const Blockmodel& b, const MoveScratch& scratch,
                     BlockId row, BlockId col) noexcept;

/// By-value wrapper over gather_neighbor_blocks_into (thread scratch).
template <typename View>
NeighborBlockCounts gather_neighbor_blocks_view(const graph::GraphView& graph,
                                                const View& view,
                                                graph::Vertex v) {
  MoveScratch& scratch = thread_move_scratch();
  gather_neighbor_blocks_into(graph, view, v, scratch);
  return scratch.nb;
}

NeighborBlockCounts gather_neighbor_blocks(
    const graph::GraphView& graph, std::span<const std::int32_t> assignment,
    graph::Vertex v);

/// By-value wrapper over vertex_move_delta_into (thread scratch). ΔMDL
/// of moving v from `from` to `to`. \pre from != to; `nb` gathered
/// under the same assignment the blockmodel's M corresponds to.
MoveDelta vertex_move_delta(const Blockmodel& b, BlockId from, BlockId to,
                            const NeighborBlockCounts& nb);

}  // namespace hsbp::blockmodel
