#include "sample/sample_sbp.hpp"

#include <omp.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "blockmodel/mdl.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/fault_injector.hpp"
#include "ckpt/shutdown.hpp"
#include "graph/degree.hpp"
#include "sbp/mcmc_phases.hpp"
#include "sbp/vertex_selection.hpp"
#include "util/errors.hpp"
#include "util/logger.hpp"
#include "util/timer.hpp"

namespace hsbp::sample {

using blockmodel::Blockmodel;
using graph::Graph;
using graph::Vertex;

namespace {

/// Suffix of the nested sbp::run checkpoint the subgraph fit writes
/// while stage 2 is still in flight.
constexpr const char* kStage2Suffix = ".stage2";

void validate(const Graph& graph, const SampleConfig& config) {
  if (graph.num_vertices() <= 0) {
    throw std::invalid_argument("sample::run: empty graph");
  }
  if (graph.num_edges() <= 0) {
    throw std::invalid_argument("sample::run: graph has no edges");
  }
  if (!(config.fraction > 0.0) || config.fraction > 1.0) {
    throw std::invalid_argument("sample::run: fraction in (0, 1]");
  }
  if (config.finetune_max_iterations < 0) {
    throw std::invalid_argument(
        "sample::run: finetune_max_iterations >= 0");
  }
}

/// Stage 2: fit the induced subgraph. A too-aggressive sample can leave
/// no edges at all — then there is nothing to fit and every sampled
/// vertex keeps its own block (the merge work happens implicitly in the
/// fine-tune stage).
sbp::SbpResult partition_sample(const Graph& subgraph,
                                const sbp::SbpConfig& base,
                                const ckpt::CheckpointConfig& ck) {
  if (subgraph.num_edges() > 0) return sbp::run(subgraph, base, ck);
  sbp::SbpResult identity;
  identity.assignment.resize(
      static_cast<std::size_t>(subgraph.num_vertices()));
  std::iota(identity.assignment.begin(), identity.assignment.end(), 0);
  identity.num_blocks = subgraph.num_vertices();
  return identity;
}

/// Stage 4: bounded full-graph MCMC passes with the variant's own phase
/// kernel, converging on the same ΔMDL window rule as the core driver.
sbp::PhaseOutcome finetune(const Graph& graph, Blockmodel& model,
                           const SampleConfig& config) {
  sbp::McmcSettings settings;
  settings.beta = config.base.beta;
  settings.threshold = config.finetune_threshold;
  settings.max_iterations = config.finetune_max_iterations;
  settings.schedule = config.base.schedule;

  // An independent deterministic stream: the sampler consumed
  // Rng(seed), the subgraph fit consumed RngPool(seed).
  util::SplitMix64 mix(config.base.seed);
  mix.next();
  util::RngPool rngs(mix.next(),
                     static_cast<std::size_t>(
                         std::max(1, omp_get_max_threads())));

  graph::DegreeSplit split;
  if (config.base.variant == sbp::Variant::Hybrid) {
    split = sbp::select_hybrid_vertices(graph, config.base.hybrid_fraction,
                                        config.base.hybrid_selection,
                                        config.base.seed);
  }
  return sbp::run_mcmc_phase(graph, model, config.base, settings, split,
                             rngs);
}

ckpt::SampleCheckpoint pipeline_checkpoint(const Graph& graph,
                                           const SampleConfig& config,
                                           ckpt::SampleStage stage,
                                           const SamplePipelineResult& r) {
  ckpt::SampleCheckpoint snapshot;
  snapshot.graph = ckpt::fingerprint(graph);
  snapshot.variant = static_cast<std::uint32_t>(config.base.variant);
  snapshot.seed = config.base.seed;
  snapshot.sampler = static_cast<std::uint32_t>(config.sampler);
  snapshot.fraction = config.fraction;
  snapshot.stage = stage;
  snapshot.sample_assignment = r.sample_result.assignment;
  snapshot.sample_num_blocks = r.sample_result.num_blocks;
  snapshot.sample_mdl = r.sample_result.mdl;
  if (stage >= ckpt::SampleStage::ExtrapolateDone) {
    snapshot.full_assignment = r.assignment;
    snapshot.full_num_blocks = r.num_blocks;
    snapshot.full_mdl = r.mdl;
    snapshot.frontier_assigned = r.frontier_assigned;
    snapshot.isolated_assigned = r.isolated_assigned;
  }
  return snapshot;
}

}  // namespace

SamplePipelineResult run(const Graph& graph, const SampleConfig& config) {
  return run(graph, config, ckpt::CheckpointConfig{});
}

SamplePipelineResult run(const Graph& graph, const SampleConfig& config,
                         const ckpt::CheckpointConfig& ck) {
  validate(graph, config);
  if (config.base.num_threads > 0) {
    omp_set_num_threads(config.base.num_threads);
  }

  // Resolve what the resume path holds: a pipeline snapshot (a stage
  // boundary was reached), a partial stage-2 fit (killed mid-fit), or
  // nothing (fail loudly rather than silently restart).
  std::optional<ckpt::SampleCheckpoint> resumed;
  std::string inner_resume;
  if (!ck.resume_path.empty()) {
    const std::string stage2_path = ck.resume_path + kStage2Suffix;
    if (std::filesystem::exists(ck.resume_path)) {
      ckpt::SampleCheckpoint loaded =
          ckpt::load_sample_checkpoint(ck.resume_path);
      ckpt::validate_fingerprint(loaded.graph, graph, ck.resume_path);
      if (loaded.variant !=
              static_cast<std::uint32_t>(config.base.variant) ||
          loaded.seed != config.base.seed ||
          loaded.sampler != static_cast<std::uint32_t>(config.sampler) ||
          loaded.fraction != config.fraction) {
        throw util::DataError(
            "checkpoint '" + ck.resume_path +
            "' was written by a different pipeline configuration "
            "(variant/seed/sampler/fraction mismatch) — resuming it "
            "would splice two different chains");
      }
      resumed = std::move(loaded);
    } else if (std::filesystem::exists(stage2_path)) {
      inner_resume = stage2_path;
    } else {
      throw util::IoError("no checkpoint found at '" + ck.resume_path +
                          "' (nor a partial fit at '" + stage2_path + "')");
    }
  }

  util::Timer total;
  SamplePipelineResult result;

  // Stage 1 — sample. Deterministic in the seed and cheap, so it is
  // replayed on resume instead of stored (the id maps are needed for
  // extrapolation either way).
  util::Timer stage;
  const SampledGraph sampled = sample_graph(
      graph, config.sampler, config.fraction, config.base.seed);
  result.timings.sample_seconds = stage.elapsed();
  result.sample_vertices = sampled.subgraph.num_vertices();
  result.sample_edges = sampled.subgraph.num_edges();

  // Stage 2 — partition the induced subgraph with the configured
  // variant. The nested sbp::run checkpoints its own outer loop to
  // `save_path + ".stage2"` so even a mid-fit kill is resumable.
  stage.reset();
  if (resumed.has_value()) {
    if (resumed->sample_assignment.size() !=
        static_cast<std::size_t>(sampled.subgraph.num_vertices())) {
      throw util::DataError(
          "checkpoint '" + ck.resume_path + "' holds a fit of " +
          std::to_string(resumed->sample_assignment.size()) +
          " sampled vertices but the replayed sample has " +
          std::to_string(sampled.subgraph.num_vertices()));
    }
    result.sample_result.assignment = resumed->sample_assignment;
    result.sample_result.num_blocks = resumed->sample_num_blocks;
    result.sample_result.mdl = resumed->sample_mdl;
  } else {
    ckpt::CheckpointConfig inner;
    if (!ck.save_path.empty()) inner.save_path = ck.save_path + kStage2Suffix;
    inner.every_phases = ck.every_phases;
    inner.resume_path = inner_resume;
    inner.fault = ck.fault;
    result.sample_result =
        partition_sample(sampled.subgraph, config.base, inner);
    result.timings.partition_seconds = stage.elapsed();

    if (!result.sample_result.interrupted) {
      // Stage-2 boundary: persist the completed fit under the pipeline
      // path first, then retire the partial-fit file (ordering matters:
      // a crash between the two leaves both, and the pipeline snapshot
      // takes precedence on resume).
      if (!ck.save_path.empty()) {
        ckpt::save_sample_checkpoint(
            ck.save_path,
            pipeline_checkpoint(graph, config,
                                ckpt::SampleStage::PartitionDone, result),
            ck.fault);
        std::remove((ck.save_path + kStage2Suffix).c_str());
      }
      if (ck.fault != nullptr) ck.fault->on_phase_boundary();
    }
  }

  // Stage 3 — extrapolate memberships to the unsampled remainder.
  stage.reset();
  const bool extrapolation_resumed =
      resumed.has_value() &&
      resumed->stage >= ckpt::SampleStage::ExtrapolateDone;
  if (extrapolation_resumed) {
    result.assignment = resumed->full_assignment;
    result.num_blocks = resumed->full_num_blocks;
    result.frontier_assigned = resumed->frontier_assigned;
    result.isolated_assigned = resumed->isolated_assigned;
  } else {
    ExtrapolationResult extrapolated =
        extrapolate(graph, sampled, result.sample_result.assignment,
                    result.sample_result.num_blocks);
    result.assignment = std::move(extrapolated.assignment);
    result.num_blocks = extrapolated.num_blocks;
    result.frontier_assigned = extrapolated.frontier_assigned;
    result.isolated_assigned = extrapolated.isolated_assigned;
  }
  Blockmodel model = Blockmodel::from_assignment(graph, result.assignment,
                                                 result.num_blocks);
  const double extrapolated_mdl =
      blockmodel::mdl(model, graph.num_vertices(), graph.num_edges());
  result.mdl = extrapolated_mdl;
  if (!extrapolation_resumed) {
    result.timings.extrapolate_seconds = stage.elapsed();
    if (result.sample_result.interrupted) {
      // Graceful shutdown mid-fit: the partial fit lives on in the
      // ".stage2" snapshot; hand back the extrapolated best-so-far.
      result.interrupted = true;
      result.timings.total_seconds = total.elapsed();
      return result;
    }
    if (!ck.save_path.empty()) {
      ckpt::save_sample_checkpoint(
          ck.save_path,
          pipeline_checkpoint(graph, config,
                              ckpt::SampleStage::ExtrapolateDone, result),
          ck.fault);
    }
    if (ck.fault != nullptr) ck.fault->on_phase_boundary();
  }

  // Stage 4 — fine-tune over the full graph; keep the better of the
  // pre/post partitions so the stage can never lose quality (an MH pass
  // may accept uphill moves and stop there). Bounded and deterministic
  // in the seed, so a resume replays it rather than restoring it.
  if (ckpt::shutdown_requested()) {
    result.interrupted = true;
  } else if (config.finetune_max_iterations > 0) {
    stage.reset();
    const sbp::PhaseOutcome outcome = finetune(graph, model, config);
    result.finetune = outcome.stats;
    if (outcome.stats.final_mdl <= extrapolated_mdl) {
      result.assignment = model.copy_assignment();
      result.mdl = outcome.stats.final_mdl;
    }
    result.timings.finetune_seconds = stage.elapsed();
  }

  result.timings.total_seconds = total.elapsed();
  HSBP_LOG_DEBUG("sample pipeline: %s frac %.2f sample V=%d E=%lld "
                 "blocks %d mdl %.2f",
                 sampler_name(config.sampler), config.fraction,
                 result.sample_vertices,
                 static_cast<long long>(result.sample_edges),
                 result.num_blocks, result.mdl);
  return result;
}

}  // namespace hsbp::sample
