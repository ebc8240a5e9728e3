/// \file ordered_sweep.hpp
/// \brief Internal: H-SBP's high-degree Metropolis-Hastings sweep, run
/// on every thread with the serial chain's semantics.
///
/// The sweep visits `vertices` in order and applies each accepted move
/// in place, so every proposal sees every move accepted before it —
/// exactly the serial loop of Alg. 4. It runs in rounds (DESIGN §11):
///   1. the team evaluates the next window of positions in parallel
///      against the current blockmodel, which nothing writes meanwhile;
///   2. one thread walks the window in order, counting each walked
///      vertex as a proposal, applies the first accepted move (to `b`
///      and, through sync_move, to the workspace) and stops there;
///      later evaluations in the window saw a state that no longer
///      holds and are discarded;
///   3. the next round starts at the position after the accepted one.
/// Speculation pays because the sweep accepts few of its proposals, so
/// a window is seldom cut short early: at 2.4 % acceptance and 32
/// positions (4 threads), about 70 % of the evaluations are kept.
///
/// Draws are keyed, not streamed: position i of pass `pass` always
/// draws from util::keyed_stream(phase_key, pass, i), so a discarded
/// evaluation repeats its draws when it is re-evaluated. The result is
/// therefore a pure function of `b` at sweep start, `phase_key` and
/// `pass` — independent of the thread count and of the window size.
/// At one thread the sweep is the plain in-order loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "blockmodel/blockmodel.hpp"
#include "graph/view.hpp"
#include "sbp/async_pass.hpp"

namespace hsbp::sbp::detail {

/// Positions evaluated per thread in one speculative round.
inline constexpr std::size_t kSweepWindowPerThread = 8;

/// One in-order Metropolis-Hastings sweep over `vertices` (see the file
/// comment). Keeps the PassWorkspace invariant: every accepted move is
/// mirrored into `ws` through sync_move.
AsyncPassCounters ordered_sweep(const graph::GraphView& graph,
                                blockmodel::Blockmodel& b, PassWorkspace& ws,
                                std::span<const graph::Vertex> vertices,
                                double beta, std::uint64_t phase_key,
                                std::uint64_t pass);

}  // namespace hsbp::sbp::detail
