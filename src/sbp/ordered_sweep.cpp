#include "sbp/ordered_sweep.hpp"

#include <omp.h>

#include <algorithm>
#include <vector>

#include "util/omp_region.hpp"
#include "util/rng.hpp"
#include "util/round_barrier.hpp"

namespace hsbp::sbp::detail {

using blockmodel::BlockId;
using graph::Vertex;

AsyncPassCounters ordered_sweep(const graph::GraphView& graph,
                                blockmodel::Blockmodel& b, PassWorkspace& ws,
                                std::span<const Vertex> vertices, double beta,
                                std::uint64_t phase_key, std::uint64_t pass) {
  AsyncPassCounters counters;
  const std::size_t count = vertices.size();

  // Evaluates position i against the current b with the position's own
  // keyed draws. Reads b only, so any number of threads may run it
  // while no commit is in progress.
  const auto evaluate = [&](std::size_t i) {
    const Vertex v = vertices[i];
    util::Rng rng = util::keyed_stream(phase_key, pass, i);
    const blockmodel::FlatMembershipView view{b.assignment().data()};
    return evaluate_vertex(graph, b, view, v, b.block_size(b.block_of(v)),
                           beta, rng, blockmodel::thread_move_scratch());
  };
  const auto commit = [&](Vertex v, BlockId to) {
    const BlockId from = b.block_of(v);
    b.move_vertex(graph, v, to);
    ws.sync_move(v, from, to);
    ++counters.accepted;
  };

  const auto threads = static_cast<std::size_t>(omp_get_max_threads());
  if (threads == 1) {
    for (std::size_t i = 0; i < count; ++i) {
      const VertexOutcome outcome = evaluate(i);
      if (outcome.moved) commit(vertices[i], outcome.to);
    }
    counters.proposals = static_cast<std::int64_t>(count);
    return counters;
  }

  const std::size_t window = kSweepWindowPerThread * threads;
  // One round's evaluations, indexed by position in the window.
  std::vector<VertexOutcome> speculative(window);
  // First position not yet walked. Written by thread 0 between the two
  // barriers of a round, read by every thread after the second.
  std::size_t next = 0;
  util::RoundBarrier barrier;
  util::omp_region([&] {
    const int team = omp_get_num_threads();
    while (next < count) {
      const std::size_t begin = next;
      const std::size_t end = std::min(begin + window, count);
      const auto first = static_cast<std::int64_t>(begin);
      const auto last = static_cast<std::int64_t>(end);
#pragma omp for schedule(static, 1) nowait
      for (std::int64_t i = first; i < last; ++i) {
        speculative[static_cast<std::size_t>(i - first)] =
            evaluate(static_cast<std::size_t>(i));
      }
      barrier.wait(team);  // evaluations → in-order walk
      if (omp_get_thread_num() == 0) {
        std::size_t i = begin;
        while (i < end) {
          const VertexOutcome& outcome = speculative[i - begin];
          ++i;
          if (outcome.moved) {
            commit(vertices[i - 1], outcome.to);
            break;
          }
        }
        counters.proposals += static_cast<std::int64_t>(i - begin);
        next = i;
      }
      barrier.wait(team);  // committed move → next round
    }
  });
  return counters;
}

}  // namespace hsbp::sbp::detail
