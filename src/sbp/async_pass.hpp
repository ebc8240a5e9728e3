/// \file async_pass.hpp
/// \brief Internal: one asynchronous-Gibbs pass over a vertex set plus
/// the pass-to-pass blockmodel maintenance around it, shared by the
/// A-SBP phase, the parallel half of the H-SBP phase, and B-SBP.
///
/// A pass runs in rounds of kPassRound consecutive vertices of its
/// list (DESIGN §11). In each round the team evaluates the round's
/// vertices in parallel against the memberships as they stand at round
/// start — nothing writes them meanwhile — and only records each
/// vertex's proposed move. Then one thread walks the round in list
/// order and accepts each proposed move unless it would empty its
/// source block. A vertex therefore sees every move accepted in earlier
/// rounds but none from its own round. Vertex v draws from
/// util::keyed_stream(pass key, v, 0), and the round size is a constant,
/// so a pass is a pure function of the workspace at pass start, the
/// blockmodel and the pass key: `==` at any thread count, under every
/// schedule, whatever the thread timing.
///
/// Pass-to-pass maintenance: instead of paying O(E) per pass to rebuild
/// the blockmodel from a snapshot, the in-order walk logs the accepted
/// moves. Each vertex is evaluated at most once per pass, so the log is
/// exactly the pass diff — applying it to the blockmodel through
/// move_vertex (O(degree) each) lands on the same state a full rebuild
/// would, cell for cell. finish_pass() applies the log when the moved
/// degree mass is small (the common late-pass case) and falls back to
/// a sharded full rebuild when a high-acceptance pass moved more than
/// `rebuild_threshold` of the edge mass, where the rebuild's
/// one-touch-per-edge scan is cheaper than ~4 slice updates per moved
/// edge.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "blockmodel/blockmodel.hpp"
#include "sbp/mcmc_common.hpp"
#include "sbp/schedule.hpp"
#include "util/omp_region.hpp"
#include "util/rng.hpp"
#include "util/round_barrier.hpp"

namespace hsbp::sbp::detail {

struct AsyncPassCounters {
  std::int64_t proposals = 0;
  std::int64_t accepted = 0;
};

/// One accepted move: vertex v ended the pass in block `to`.
struct MoveRecord {
  graph::Vertex v;
  std::int32_t to;
};

/// What finish_pass() did with the move log.
struct PassApply {
  std::int64_t moved = 0;         ///< accepted moves in the log
  std::int64_t moved_degree = 0;  ///< Σ degree(v) over moved vertices
  bool rebuilt = false;           ///< true when it fell back to rebuild()
};

/// Marks "no move proposed" in PassWorkspace::proposed.
inline constexpr std::int32_t kNoMove = -1;

/// Per-phase workspace for the asynchronous passes: the post-pass
/// membership vector and block sizes, the per-vertex proposals, and the
/// accepted-move log. Allocated once per phase (reset()) and reused
/// across passes — the pass/apply cycle keeps `shared`/`sizes` equal to
/// the blockmodel's state, so no copy-in is needed between passes.
///
/// Invariant between passes (established by reset(), preserved by
/// async_pass() + finish_pass(), and by sync_move() for serial
/// interleavings): shared[v] == b.assignment()[v] for every v, and
/// sizes[r] == b.block_size(r) for every r.
struct PassWorkspace {
  /// Memberships after the last pass's accepted moves.
  std::vector<std::int32_t> shared;
  /// Block sizes after the last pass's accepted moves.
  std::vector<std::int32_t> sizes;
  /// proposed[v]: the block vertex v proposed to move to in the current
  /// pass, or kNoMove. Written by the evaluating thread, one cell per
  /// vertex; read by the in-order walk after the team joins.
  std::vector<std::int32_t> proposed;
  /// The pass's accepted moves, in the order of the pass's vertex list.
  std::vector<MoveRecord> moves;
  std::vector<graph::Vertex> order;  ///< DegreeSorted reorder buffer

  /// (Re)sizes the buffers and copies in the blockmodel's state. Call
  /// once at phase start.
  void reset(const blockmodel::Blockmodel& b) {
    shared = b.assignment();
    sizes.resize(static_cast<std::size_t>(b.num_blocks()));
    for (blockmodel::BlockId r = 0; r < b.num_blocks(); ++r) {
      sizes[static_cast<std::size_t>(r)] = b.block_size(r);
    }
    proposed.resize(shared.size());
  }

  /// Mirrors a serially applied b.move_vertex(v, from → to) into the
  /// workspace, keeping the between-pass invariant when the ordered
  /// sweep (H-SBP's high-degree half) interleaves with async passes.
  void sync_move(graph::Vertex v, blockmodel::BlockId from,
                 blockmodel::BlockId to) {
    shared[static_cast<std::size_t>(v)] = to;
    --sizes[static_cast<std::size_t>(from)];
    ++sizes[static_cast<std::size_t>(to)];
  }
};

/// Delta-apply vs rebuild crossover, as a fraction of the directed edge
/// mass 2E: applying a move touches ~4·deg(v) slice cells while a
/// rebuild touches each edge once (plus the merge), so deltas stop
/// winning somewhere below deg mass ≈ E/2. Conservative default;
/// overridable per call (and via McmcSettings::rebuild_threshold).
inline constexpr double kDefaultRebuildThreshold = 0.25;

/// Vertices per round of an asynchronous pass. A constant, so the
/// result cannot depend on the team size. Small enough that a vertex
/// rarely shares a round with a neighbour on graphs of thousands of
/// vertices or more; large enough that a round's evaluations outweigh
/// its two barriers at 4 threads.
inline constexpr std::size_t kPassRound = 512;

/// Runs one pass over `vertices` (see the file comment). `b` supplies
/// the proposal weights and ΔMDL and is not written; memberships and
/// block sizes come from `ws.shared`/`ws.sizes`, which the accepted
/// moves update, and the moves are logged in list order in `ws.moves`.
/// The pass key is drawn from `rngs.stream(0)`. `schedule` picks the
/// work distribution of each round's evaluations (see schedule.hpp); it
/// changes only which thread evaluates which vertex, never the result.
inline AsyncPassCounters async_pass(
    const graph::GraphView& graph, const blockmodel::Blockmodel& b,
    PassWorkspace& ws, std::span<const graph::Vertex> vertices, double beta,
    util::RngPool& rngs, PassSchedule schedule = PassSchedule::Static) {
  ws.moves.clear();
  const std::uint64_t pass_key = rngs.stream(0).next_u64();
  const std::size_t count = vertices.size();
  // Evaluation order; DegreeSorted reorders within each round only, so
  // the rounds — and hence the result — stay the same.
  std::span<const graph::Vertex> work = vertices;
  if (schedule == PassSchedule::DegreeSorted) {
    degree_sorted_order(graph, vertices, ws.order, kPassRound);
    work = ws.order;
  }

  // Each thread evaluates through its own MoveScratch arena, so
  // steady-state passes allocate nothing.
  const blockmodel::FlatMembershipView view{ws.shared.data()};
  const auto evaluate = [&](std::size_t i) {
    const graph::Vertex v = work[i];
    util::Rng rng =
        util::keyed_stream(pass_key, static_cast<std::uint64_t>(v), 0);
    const std::int32_t from = view(v);
    const VertexOutcome outcome = evaluate_vertex(
        graph, b, view, v, ws.sizes[static_cast<std::size_t>(from)], beta,
        rng, blockmodel::thread_move_scratch());
    ws.proposed[static_cast<std::size_t>(v)] =
        outcome.moved ? outcome.to : kNoMove;
  };
  // In-order accept: take each proposed move of the round unless it
  // would empty its source block (the block count is owned by the
  // merge phase). One evaluation per vertex, so the log is exactly the
  // pass diff.
  const auto accept = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const graph::Vertex v = vertices[i];
      const std::int32_t to = ws.proposed[static_cast<std::size_t>(v)];
      if (to == kNoMove) continue;
      const std::int32_t from = ws.shared[static_cast<std::size_t>(v)];
      if (ws.sizes[static_cast<std::size_t>(from)] <= 1) continue;
      ws.sync_move(v, from, to);
      ws.moves.push_back({v, to});
    }
  };

  if (omp_get_max_threads() == 1) {
    for (std::size_t begin = 0; begin < count; begin += kPassRound) {
      const std::size_t end = std::min(begin + kPassRound, count);
      for (std::size_t i = begin; i < end; ++i) evaluate(i);
      accept(begin, end);
    }
  } else {
    util::RoundBarrier barrier;
    util::omp_region([&] {
      const int team = omp_get_num_threads();
      for (std::size_t begin = 0; begin < count; begin += kPassRound) {
        const auto first = static_cast<std::int64_t>(begin);
        const auto last =
            static_cast<std::int64_t>(std::min(begin + kPassRound, count));
        // Every thread takes the same branch (schedule is uniform across
        // the team), so the team encounters one worksharing construct
        // per round.
        switch (schedule) {
          case PassSchedule::Dynamic:
#pragma omp for schedule(dynamic, 16) nowait
            for (std::int64_t i = first; i < last; ++i) {
              evaluate(static_cast<std::size_t>(i));
            }
            break;
          case PassSchedule::Guided:
#pragma omp for schedule(guided) nowait
            for (std::int64_t i = first; i < last; ++i) {
              evaluate(static_cast<std::size_t>(i));
            }
            break;
          case PassSchedule::DegreeSorted:
            // Each round is degree-descending; chunk size 1 deals it
            // round-robin so each thread gets an even heavy/light mix.
#pragma omp for schedule(static, 1) nowait
            for (std::int64_t i = first; i < last; ++i) {
              evaluate(static_cast<std::size_t>(i));
            }
            break;
          case PassSchedule::Static:
#pragma omp for schedule(static) nowait
            for (std::int64_t i = first; i < last; ++i) {
              evaluate(static_cast<std::size_t>(i));
            }
            break;
        }
        barrier.wait(team);  // evaluations → in-order accept
        if (omp_get_thread_num() == 0) {
          accept(static_cast<std::size_t>(first),
                 static_cast<std::size_t>(last));
        }
        barrier.wait(team);  // accepted moves → next round
      }
    });
  }

  AsyncPassCounters counters;
  counters.proposals = static_cast<std::int64_t>(count);
  counters.accepted = static_cast<std::int64_t>(ws.moves.size());
  return counters;
}

/// Applies the pass recorded in `ws.moves` to `b`: O(moved-degree) move
/// deltas when the moved degree mass is at most `rebuild_threshold` of
/// the directed edge mass 2E, a full rebuild from `ws.shared`
/// otherwise. Both paths leave b bit-identical to rebuild(ws.shared) —
/// the delta path because move_vertex preserves "state ==
/// f(assignment)" exactly at every step and the log is the pass diff;
/// the MDL because the likelihood sums are maintained in
/// order-independent fixed point. Requires the PassWorkspace invariant
/// (shared == b.assignment on entry to the preceding async_pass).
inline PassApply finish_pass(const graph::GraphView& graph,
                             blockmodel::Blockmodel& b, PassWorkspace& ws,
                             double rebuild_threshold =
                                 kDefaultRebuildThreshold) {
  PassApply apply;
  apply.moved = static_cast<std::int64_t>(ws.moves.size());
  for (const MoveRecord& rec : ws.moves) {
    apply.moved_degree += graph.degree(rec.v);
  }
  if (apply.moved == 0) return apply;

  const double edge_mass = 2.0 * static_cast<double>(graph.num_edges());
  if (static_cast<double>(apply.moved_degree) >
      rebuild_threshold * edge_mass) {
    apply.rebuilt = true;
    b.rebuild(graph, ws.shared);
    return apply;
  }

  for (const MoveRecord& rec : ws.moves) {
    b.move_vertex(graph, rec.v, rec.to);
  }
  return apply;
}

}  // namespace hsbp::sbp::detail
