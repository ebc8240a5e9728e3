#include "sbp/sbp.hpp"
#include "sbp/streaming.hpp"

#include <omp.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

#include "blockmodel/mdl.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/fault_injector.hpp"
#include "ckpt/shutdown.hpp"
#include "graph/degree.hpp"
#include "sbp/block_merge.hpp"
#include "sbp/golden_search.hpp"
#include "sbp/mcmc_phases.hpp"
#include "util/errors.hpp"
#include "util/logger.hpp"
#include "util/timer.hpp"

namespace hsbp::sbp {

using blockmodel::BlockId;
using blockmodel::Blockmodel;
using graph::Graph;

const char* variant_name(Variant variant) noexcept {
  switch (variant) {
    case Variant::Metropolis: return "SBP";
    case Variant::AsyncGibbs: return "A-SBP";
    case Variant::Hybrid: return "H-SBP";
    case Variant::BatchedGibbs: return "B-SBP";
  }
  return "?";
}

PhaseOutcome run_mcmc_phase(const graph::GraphView& graph, Blockmodel& b,
                            const SbpConfig& config,
                            const McmcSettings& settings,
                            const graph::DegreeSplit& split,
                            util::RngPool& rngs) {
  switch (config.variant) {
    case Variant::Metropolis:
      return metropolis_hastings_phase(graph, b, settings, rngs);
    case Variant::AsyncGibbs:
      return async_gibbs_phase(graph, b, settings, rngs);
    case Variant::Hybrid:
      return hybrid_phase(graph, b, settings, split, rngs);
    case Variant::BatchedGibbs:
      return batched_gibbs_phase(graph, b, settings, config.batch_count,
                                 rngs);
  }
  throw std::logic_error("run_mcmc_phase: unknown variant");
}

namespace {

void validate(const Graph& graph, const SbpConfig& config) {
  if (graph.num_vertices() <= 0) {
    throw std::invalid_argument("sbp::run: empty graph");
  }
  if (graph.num_edges() <= 0) {
    throw std::invalid_argument("sbp::run: graph has no edges");
  }
  if (config.block_reduction_rate <= 0.0 ||
      config.block_reduction_rate >= 1.0) {
    throw std::invalid_argument("sbp::run: block_reduction_rate in (0,1)");
  }
  if (config.merge_proposals_per_block < 1) {
    throw std::invalid_argument("sbp::run: merge_proposals_per_block >= 1");
  }
  if (config.max_mcmc_iterations < 1) {
    throw std::invalid_argument("sbp::run: max_mcmc_iterations >= 1");
  }
  if (config.hybrid_fraction < 0.0 || config.hybrid_fraction > 1.0) {
    throw std::invalid_argument("sbp::run: hybrid_fraction in [0,1]");
  }
  if (config.beta <= 0.0) {
    throw std::invalid_argument("sbp::run: beta must be positive");
  }
  if (config.batch_count < 1) {
    throw std::invalid_argument("sbp::run: batch_count >= 1");
  }
}

/// Evaluated cold-start partition: every vertex in its own block.
Snapshot cold_initial(const Graph& graph) {
  Blockmodel identity = Blockmodel::identity(graph);
  return Snapshot{identity.copy_assignment(), identity.num_blocks(),
                  blockmodel::mdl(identity, graph.num_vertices(),
                                  graph.num_edges())};
}

/// The shared core of run()/run_warm(): golden-section search from an
/// arbitrary search state (cold, warm, or checkpoint-resumed).
///
/// Checkpoint discipline: a snapshot is written only at phase
/// boundaries — after search.record(), before the next probe — so the
/// saved (bracket, RNG streams, counters) triple is exactly the state
/// the next phase would read. Resuming therefore replays the identical
/// chain: killed-and-resumed equals uninterrupted, bit for bit.
SbpResult run_impl(const Graph& graph, const SbpConfig& config,
                   GoldenSearch search, const SbpStats& resumed_stats,
                   std::span<const util::Rng::State> rng_states,
                   const ckpt::CheckpointConfig& ck) {
  if (config.num_threads > 0) omp_set_num_threads(config.num_threads);

  util::Timer total_timer;
  util::RngPool rngs(config.seed,
                     static_cast<std::size_t>(
                         std::max(1, omp_get_max_threads())));
  if (!rng_states.empty()) {
    if (rng_states.size() != rngs.size()) {
      throw util::DataError(
          "checkpoint holds " + std::to_string(rng_states.size()) +
          " RNG streams but this run has " + std::to_string(rngs.size()) +
          " — resume with the same thread budget (--threads) as the "
          "checkpointed run");
    }
    rngs.restore_states(rng_states);
  }

  graph::DegreeSplit split;
  if (config.variant == Variant::Hybrid) {
    split = select_hybrid_vertices(graph, config.hybrid_fraction,
                                   config.hybrid_selection, config.seed);
  }

  SbpResult result;
  SbpStats& stats = result.stats;
  stats = resumed_stats;
  const SbpStats base = resumed_stats;  // prior run's seconds offsets

  util::Stopwatch merge_watch;
  util::Stopwatch mcmc_watch;

  const auto accumulate_seconds = [&](SbpStats& into) {
    into.block_merge_seconds =
        base.block_merge_seconds + merge_watch.total();
    into.mcmc_seconds = base.mcmc_seconds + mcmc_watch.total();
    into.total_seconds = base.total_seconds + total_timer.elapsed();
  };

  const auto write_checkpoint = [&]() {
    ckpt::SbpCheckpoint snapshot;
    snapshot.graph = ckpt::fingerprint(graph);
    snapshot.variant = static_cast<std::uint32_t>(config.variant);
    snapshot.seed = config.seed;
    snapshot.stats = stats;
    accumulate_seconds(snapshot.stats);
    snapshot.rng_streams = rngs.export_states();
    snapshot.search = search.export_state();
    ckpt::save_sbp_checkpoint(ck.save_path, snapshot, ck.fault);
  };

  // Does save_path already hold the state after the latest record()?
  bool checkpoint_fresh = true;

  while (!search.done() &&
         stats.outer_iterations < config.max_outer_iterations) {
    const GoldenSearch::Probe probe = search.next_probe();

    Blockmodel b = Blockmodel::from_assignment(
        graph, probe.warm_start->assignment, probe.warm_start->num_blocks);

    merge_watch.start();
    MergeOutcome merged =
        block_merge_phase(graph, b, probe.target_blocks,
                          config.merge_proposals_per_block, rngs);
    b = Blockmodel::from_assignment(graph, merged.assignment,
                                    merged.num_blocks);
    merge_watch.stop();

    McmcSettings settings;
    settings.beta = config.beta;
    settings.max_iterations = config.max_mcmc_iterations;
    settings.schedule = config.schedule;
    settings.threshold = search.bracket_established()
                             ? config.mcmc_threshold_post_bracket
                             : config.mcmc_threshold_pre_bracket;

    mcmc_watch.start();
    const PhaseOutcome phase =
        run_mcmc_phase(graph, b, config, settings, split, rngs);
    mcmc_watch.stop();

    stats.mcmc_iterations += phase.stats.iterations;
    stats.proposals += phase.stats.proposals;
    stats.accepted_moves += phase.stats.accepted;
    stats.parallel_updates += phase.parallel_updates;
    stats.serial_updates += phase.serial_updates;
    ++stats.outer_iterations;

    HSBP_LOG_DEBUG("%s: outer %lld blocks %d mdl %.2f",
                   variant_name(config.variant),
                   static_cast<long long>(stats.outer_iterations),
                   b.num_blocks(), phase.stats.final_mdl);

    search.record(Snapshot{b.copy_assignment(), b.num_blocks(),
                           phase.stats.final_mdl});
    checkpoint_fresh = false;

    if (!ck.save_path.empty()) {
      const bool at_interval =
          ck.every_phases > 0 &&
          stats.outer_iterations % ck.every_phases == 0;
      if (at_interval || search.done()) {
        write_checkpoint();
        checkpoint_fresh = true;
      }
    }
    if (ck.fault != nullptr) ck.fault->on_phase_boundary();
    if (ckpt::shutdown_requested()) {
      // Graceful shutdown: the in-flight pass finished above; persist
      // the boundary state and hand back the best-so-far partition.
      if (!ck.save_path.empty() && !checkpoint_fresh) {
        write_checkpoint();
        checkpoint_fresh = true;
      }
      result.interrupted = true;
      break;
    }
  }

  // A run that stopped on the outer-iteration cap between intervals
  // still leaves a resumable snapshot behind.
  if (!ck.save_path.empty() && !checkpoint_fresh) write_checkpoint();

  const Snapshot& best = search.best();
  result.assignment = best.assignment;
  result.num_blocks = best.num_blocks;
  result.mdl = best.mdl;
  accumulate_seconds(stats);
  return result;
}

}  // namespace

SbpResult run(const Graph& graph, const SbpConfig& config) {
  return run(graph, config, ckpt::CheckpointConfig{});
}

SbpResult run(const Graph& graph, const SbpConfig& config,
              const ckpt::CheckpointConfig& checkpoint) {
  validate(graph, config);
  if (!checkpoint.resume_path.empty()) {
    ckpt::SbpCheckpoint loaded =
        ckpt::load_sbp_checkpoint(checkpoint.resume_path);
    ckpt::validate_fingerprint(loaded.graph, graph,
                               checkpoint.resume_path);
    if (loaded.variant != static_cast<std::uint32_t>(config.variant) ||
        loaded.seed != config.seed) {
      throw util::DataError(
          "checkpoint '" + checkpoint.resume_path +
          "' was written with variant=" + std::to_string(loaded.variant) +
          " seed=" + std::to_string(loaded.seed) +
          ", this run is configured with variant=" +
          std::to_string(static_cast<std::uint32_t>(config.variant)) +
          " (" + variant_name(config.variant) + ") seed=" +
          std::to_string(config.seed) +
          " — resuming a different chain would produce garbage");
    }
    GoldenSearch search(std::move(loaded.search),
                        config.block_reduction_rate);
    return run_impl(graph, config, std::move(search), loaded.stats,
                    loaded.rng_streams, checkpoint);
  }
  GoldenSearch search(cold_initial(graph), config.block_reduction_rate);
  return run_impl(graph, config, std::move(search), SbpStats{}, {},
                  checkpoint);
}

SbpResult run_warm(const Graph& graph, const SbpConfig& config,
                   std::span<const std::int32_t> assignment,
                   blockmodel::BlockId num_blocks) {
  validate(graph, config);
  // Enforce the documented precondition: labels dense in
  // [0, num_blocks). from_assignment catches out-of-range labels, but
  // an unused label would silently seed the search with an empty block
  // — the merge phase can never fold it away (no edges to score), so
  // fail loudly instead.
  {
    std::vector<bool> used(static_cast<std::size_t>(
                               std::max<blockmodel::BlockId>(num_blocks, 0)),
                           false);
    for (const std::int32_t label : assignment) {
      if (label >= 0 && label < num_blocks) {
        used[static_cast<std::size_t>(label)] = true;
      }
    }
    for (std::size_t b = 0; b < used.size(); ++b) {
      if (!used[b]) {
        throw std::invalid_argument(
            "run_warm: assignment labels are not dense in [0, " +
            std::to_string(num_blocks) + ") — block " + std::to_string(b) +
            " is empty");
      }
    }
  }
  // from_assignment validates sizes/labels and evaluates the partition.
  Blockmodel warm = Blockmodel::from_assignment(graph, assignment,
                                                num_blocks);
  Snapshot initial{warm.copy_assignment(), warm.num_blocks(),
                   blockmodel::mdl(warm, graph.num_vertices(),
                                   graph.num_edges())};
  GoldenSearch search(std::move(initial), config.block_reduction_rate);
  return run_impl(graph, config, std::move(search), SbpStats{}, {},
                  ckpt::CheckpointConfig{});
}

}  // namespace hsbp::sbp
