#include "blockmodel/mdl.hpp"
#include "sbp/async_pass.hpp"
#include "sbp/mcmc_phases.hpp"
#include "sbp/ordered_sweep.hpp"

namespace hsbp::sbp {

using blockmodel::Blockmodel;
using graph::GraphView;

PhaseOutcome hybrid_phase(const GraphView& graph, Blockmodel& b,
                          const McmcSettings& settings,
                          const graph::DegreeSplit& split,
                          util::RngPool& rngs) {
  PhaseOutcome outcome;
  McmcPhaseStats& stats = outcome.stats;
  stats.initial_mdl =
      blockmodel::mdl(b, graph.num_vertices(), graph.num_edges());
  double current_mdl = stats.initial_mdl;
  ConvergenceWindow window(settings.threshold);
  // The high-degree sweep draws from streams keyed on (phase key, pass,
  // position); the key comes from the pool, so checkpoints — which save
  // the pool between phases — capture it.
  const std::uint64_t phase_key = rngs.stream(0).next_u64();

  // One workspace for the whole phase; the sweep mirrors its in-place
  // moves into it (sync_move) so the shared memberships stay equal to b
  // without a per-pass copy-in.
  detail::PassWorkspace ws;
  ws.reset(b);

  for (int pass = 0; pass < settings.max_iterations; ++pass) {
    // Alg. 4, first half: the influential high-degree vertices get a
    // Metropolis-Hastings sweep in order with in-place updates, so they
    // "switch communities first" against fresh state. The evaluations
    // run speculatively on every thread; moves commit in order.
    const auto sweep = detail::ordered_sweep(
        graph, b, ws, split.high, settings.beta, phase_key,
        static_cast<std::uint64_t>(pass));
    stats.proposals += sweep.proposals;
    stats.accepted += sweep.accepted;
    outcome.serial_updates += static_cast<std::int64_t>(split.high.size());

    // Second half: the low-degree majority in one asynchronous pass
    // against the post-sweep blockmodel, applied as move deltas.
    const auto counters =
        detail::async_pass(graph, b, ws, split.low, settings.beta, rngs,
                           settings.schedule);
    stats.proposals += counters.proposals;
    stats.accepted += counters.accepted;
    outcome.parallel_updates += static_cast<std::int64_t>(split.low.size());

    detail::finish_pass(graph, b, ws, settings.rebuild_threshold);
    const double new_mdl =
        blockmodel::mdl(b, graph.num_vertices(), graph.num_edges());
    const double pass_delta = new_mdl - current_mdl;
    current_mdl = new_mdl;
    ++stats.iterations;
    if (window.record(pass_delta, current_mdl)) break;
  }

  stats.final_mdl = current_mdl;
  return outcome;
}

}  // namespace hsbp::sbp
