#include "traced_fit.hpp"

#include <omp.h>

#include <algorithm>
#include <ctime>
#include <stdexcept>
#include <type_traits>

#include "blockmodel/mdl.hpp"
#include "sbp/block_merge.hpp"
#include "sbp/golden_search.hpp"
#include "sbp/mcmc_phases.hpp"
#include "sbp/vertex_selection.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {

using hsbp::blockmodel::Blockmodel;
using hsbp::sbp::GoldenSearch;
using hsbp::sbp::PhaseOutcome;
using hsbp::sbp::SbpConfig;
using hsbp::sbp::Variant;

namespace {

double process_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

int effective_threads(const SbpConfig& config) {
  return config.num_threads > 0 ? config.num_threads
                                : std::max(1, omp_get_max_threads());
}

/// Runs `body` and adds its wall time to `seconds`.
template <typename Body>
auto timed(double& seconds, Body&& body) {
  hsbp::util::Timer timer;
  if constexpr (std::is_void_v<decltype(body())>) {
    body();
    seconds += timer.elapsed();
  } else {
    auto result = body();
    seconds += timer.elapsed();
    return result;
  }
}

}  // namespace

FitRecord plain_fit(const hsbp::graph::Graph& graph,
                    const SbpConfig& config) {
  hsbp::util::Timer timer;
  hsbp::sbp::SbpResult result = hsbp::sbp::run(graph, config);
  FitRecord record;
  record.wall_s = timer.elapsed();
  record.assignment = std::move(result.assignment);
  record.num_blocks = result.num_blocks;
  record.mdl = result.mdl;
  record.stats = result.stats;
  record.threads = effective_threads(config);
  return record;
}

FitRecord traced_fit(const hsbp::graph::Graph& graph,
                     const SbpConfig& config, Tracer& tracer) {
  // The cold-start path of sbp::run, one public call at a time.
  hsbp::util::Timer wall;
  FitRecord record;
  record.traced = true;
  record.threads = effective_threads(config);
  FitLayers& layers = record.layers;
  hsbp::sbp::SbpStats& stats = record.stats;

  const Span fit_span(tracer, "fit");
  if (config.num_threads > 0) omp_set_num_threads(config.num_threads);
  hsbp::util::RngPool rngs(
      config.seed,
      static_cast<std::size_t>(std::max(1, omp_get_max_threads())));

  hsbp::graph::DegreeSplit split;
  if (config.variant == Variant::Hybrid) {
    const Span span(fit_span, "sbp.select_hybrid");
    split = hsbp::sbp::select_hybrid_vertices(graph, config.hybrid_fraction,
                                              config.hybrid_selection,
                                              config.seed);
  }

  GoldenSearch search = [&] {
    const Span span(fit_span, "blockmodel.identity");
    const Blockmodel identity = Blockmodel::identity(graph);
    return GoldenSearch(
        hsbp::sbp::Snapshot{identity.copy_assignment(),
                            identity.num_blocks(),
                            hsbp::blockmodel::mdl(identity,
                                                  graph.num_vertices(),
                                                  graph.num_edges())},
        config.block_reduction_rate);
  }();

  hsbp::util::Stopwatch merge_watch;
  hsbp::util::Stopwatch mcmc_watch;
  while (!search.done() &&
         stats.outer_iterations < config.max_outer_iterations) {
    const Span probe_span(fit_span, "golden.probe");
    const GoldenSearch::Probe probe = timed(layers.golden_s, [&] {
      const Span span(probe_span, "golden.next_probe");
      return search.next_probe();
    });
    ++layers.probes;

    const auto build = [&](const std::vector<std::int32_t>& assignment,
                           std::int32_t num_blocks) {
      const Span span(probe_span, "blockmodel.from_assignment");
      ++layers.build_calls;
      return timed(layers.build_s, [&] {
        return Blockmodel::from_assignment(graph, assignment, num_blocks);
      });
    };

    Blockmodel b =
        build(probe.warm_start->assignment, probe.warm_start->num_blocks);

    merge_watch.start();
    hsbp::sbp::MergeOutcome merged = [&] {
      const Span span(probe_span, "sbp.merge");
      ++layers.merge_calls;
      layers.merge_proposals += static_cast<std::int64_t>(b.num_blocks()) *
                                config.merge_proposals_per_block;
      return timed(layers.merge_s, [&] {
        return hsbp::sbp::block_merge_phase(graph, b, probe.target_blocks,
                                            config.merge_proposals_per_block,
                                            rngs);
      });
    }();
    b = build(merged.assignment, merged.num_blocks);
    merge_watch.stop();

    hsbp::sbp::McmcSettings settings;
    settings.beta = config.beta;
    settings.max_iterations = config.max_mcmc_iterations;
    settings.schedule = config.schedule;
    settings.threshold = search.bracket_established()
                             ? config.mcmc_threshold_post_bracket
                             : config.mcmc_threshold_pre_bracket;

    mcmc_watch.start();
    const PhaseOutcome phase = [&] {
      const Span span(probe_span, "sbp.mcmc");
      const double cpu0 = process_cpu_seconds();
      double phase_s = 0.0;
      const PhaseOutcome outcome = timed(phase_s, [&]() -> PhaseOutcome {
        switch (config.variant) {
          case Variant::Metropolis:
            return hsbp::sbp::metropolis_hastings_phase(graph, b, settings,
                                                        rngs);
          case Variant::AsyncGibbs:
            return hsbp::sbp::async_gibbs_phase(graph, b, settings, rngs);
          case Variant::Hybrid:
            return hsbp::sbp::hybrid_phase(graph, b, settings, split, rngs);
          case Variant::BatchedGibbs:
            return hsbp::sbp::batched_gibbs_phase(
                graph, b, settings, config.batch_count, rngs);
        }
        throw std::logic_error("traced_fit: unknown variant");
      });
      layers.mcmc_cpu_s += process_cpu_seconds() - cpu0;
      layers.mcmc_s += phase_s;
      layers.mcmc_phase_s.push_back(phase_s);
      return outcome;
    }();
    mcmc_watch.stop();

    stats.mcmc_iterations += phase.stats.iterations;
    stats.proposals += phase.stats.proposals;
    stats.accepted_moves += phase.stats.accepted;
    stats.parallel_updates += phase.parallel_updates;
    stats.serial_updates += phase.serial_updates;
    ++stats.outer_iterations;

    timed(layers.golden_s, [&] {
      const Span span(probe_span, "golden.record");
      search.record(hsbp::sbp::Snapshot{b.copy_assignment(), b.num_blocks(),
                                        phase.stats.final_mdl});
    });
  }

  const hsbp::sbp::Snapshot& best = search.best();
  record.assignment = best.assignment;
  record.num_blocks = best.num_blocks;
  record.mdl = best.mdl;
  stats.block_merge_seconds = merge_watch.total();
  stats.mcmc_seconds = mcmc_watch.total();
  record.wall_s = wall.elapsed();
  stats.total_seconds = record.wall_s;
  return record;
}

}  // namespace perfbench
