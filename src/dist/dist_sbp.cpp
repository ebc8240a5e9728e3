#include "dist/dist_sbp.hpp"

#include <omp.h>

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "blockmodel/labels.hpp"
#include "blockmodel/mdl.hpp"
#include "sbp/block_merge.hpp"
#include "sbp/golden_search.hpp"
#include "sbp/mcmc_common.hpp"
#include "util/rng.hpp"
#include "util/omp_region.hpp"
#include "util/timer.hpp"

namespace hsbp::dist {

using blockmodel::BlockId;
using blockmodel::Blockmodel;
using graph::Graph;
using graph::Vertex;

namespace {

/// One rank's accepted moves in a pass.
struct RankUpdates {
  std::vector<std::pair<Vertex, BlockId>> moves;
  std::int64_t proposals = 0;
};

/// One distributed A-SBP pass: every rank sweeps its own vertices
/// against `stale` (remote view) while seeing its own in-pass moves
/// through a rank-local override map.
std::vector<RankUpdates> distributed_pass(
    const Graph& graph, const Blockmodel& b,
    const std::vector<std::int32_t>& stale, const VertexPartition& partition,
    double beta, util::RngPool& rngs) {
  const int ranks = partition.ranks;
  std::vector<RankUpdates> updates(static_cast<std::size_t>(ranks));

  util::omp_region([&] {
#pragma omp for schedule(dynamic, 1)
    for (int rank = 0; rank < ranks; ++rank) {
      auto& local = updates[static_cast<std::size_t>(rank)];
      std::unordered_map<Vertex, BlockId> overrides;
      // Local view of block sizes: stale counts plus this rank's
      // deltas.
      std::vector<std::int32_t> sizes(
          static_cast<std::size_t>(b.num_blocks()));
      for (BlockId r = 0; r < b.num_blocks(); ++r) {
        sizes[static_cast<std::size_t>(r)] = b.block_size(r);
      }

      const auto view = [&](Vertex u) {
        const auto it = overrides.find(u);
        return it != overrides.end() ? it->second
                                     : stale[static_cast<std::size_t>(u)];
      };

      util::Rng& rng = rngs.stream(static_cast<std::size_t>(rank));
      for (const Vertex v :
           partition.members[static_cast<std::size_t>(rank)]) {
        const BlockId from = view(v);
        const auto outcome = sbp::evaluate_vertex(
            graph, b, view, v, sizes[static_cast<std::size_t>(from)], beta,
            rng);
        ++local.proposals;
        if (!outcome.moved) continue;
        overrides[v] = outcome.to;
        --sizes[static_cast<std::size_t>(from)];
        ++sizes[static_cast<std::size_t>(outcome.to)];
        local.moves.emplace_back(v, outcome.to);
      }
    }
  });
  return updates;
}

/// The distributed MCMC phase: passes of distributed_pass + exchange +
/// rebuild until the convergence window closes.
struct DistPhaseOutcome {
  sbp::McmcPhaseStats stats;
};

DistPhaseOutcome distributed_mcmc_phase(const Graph& graph, Blockmodel& b,
                                        const sbp::McmcSettings& settings,
                                        const VertexPartition& partition,
                                        util::RngPool& rngs,
                                        CommLedger& ledger,
                                        std::vector<std::int64_t>& accepted) {
  DistPhaseOutcome outcome;
  auto& stats = outcome.stats;
  stats.initial_mdl =
      blockmodel::mdl(b, graph.num_vertices(), graph.num_edges());
  double current_mdl = stats.initial_mdl;
  sbp::ConvergenceWindow window(settings.threshold);

  for (int pass = 0; pass < settings.max_iterations; ++pass) {
    const std::vector<std::int32_t> stale = b.assignment();
    const auto updates = distributed_pass(graph, b, stale, partition,
                                          settings.beta, rngs);

    // Exchange: each rank's accepted moves go to every other rank.
    std::vector<std::int32_t> next = stale;
    std::int64_t moved = 0;
    for (std::size_t rank = 0; rank < updates.size(); ++rank) {
      stats.proposals += updates[rank].proposals;
      for (const auto& [v, to] : updates[rank].moves) {
        next[static_cast<std::size_t>(v)] = to;
      }
      moved += static_cast<std::int64_t>(updates[rank].moves.size());
      accepted[rank] += static_cast<std::int64_t>(updates[rank].moves.size());
    }
    stats.accepted += moved;
    ledger.record(CollectiveKind::AllGatherUpdates, moved * kUpdateBytes,
                  partition.ranks);

    // Compact away empty blocks (possible when two ranks concurrently
    // drain the same block — the coordination real distribution also
    // lacks).
    const BlockId num_blocks =
        blockmodel::compact_labels(next, b.num_blocks());
    b = Blockmodel::from_assignment(graph, next, num_blocks);
    ledger.record(
        CollectiveKind::RebuildAllReduce,
        static_cast<std::int64_t>(b.matrix().nonzeros()) * kCellBytes,
        partition.ranks);

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

}  // namespace

DistributedResult run_distributed(const Graph& graph,
                                  const DistributedConfig& config) {
  if (config.ranks < 1) {
    throw std::invalid_argument("run_distributed: ranks >= 1");
  }
  if (graph.num_vertices() <= 0 || graph.num_edges() <= 0) {
    throw std::invalid_argument("run_distributed: empty graph");
  }
  const sbp::SbpConfig& base = config.base;
  if (base.block_reduction_rate <= 0.0 || base.block_reduction_rate >= 1.0) {
    throw std::invalid_argument(
        "run_distributed: block_reduction_rate in (0,1)");
  }

  util::Timer total_timer;
  const VertexPartition partition =
      partition_vertices(graph, config.ranks, config.strategy);
  util::RngPool rngs(base.seed,
                     static_cast<std::size_t>(std::max(
                         config.ranks, omp_get_max_threads())));

  DistributedResult out;
  out.partition_imbalance = partition.imbalance();
  out.rank_accepted.assign(static_cast<std::size_t>(config.ranks), 0);
  sbp::SbpStats& stats = out.result.stats;

  Blockmodel identity = Blockmodel::identity(graph);
  sbp::Snapshot initial{identity.copy_assignment(), identity.num_blocks(),
                        blockmodel::mdl(identity, graph.num_vertices(),
                                        graph.num_edges())};
  sbp::GoldenSearch search(std::move(initial), base.block_reduction_rate);

  util::Stopwatch merge_watch;
  util::Stopwatch mcmc_watch;

  while (!search.done() &&
         stats.outer_iterations < base.max_outer_iterations) {
    const auto probe = search.next_probe();
    Blockmodel b = Blockmodel::from_assignment(
        graph, probe.warm_start->assignment, probe.warm_start->num_blocks);

    // Centralized merge phase: gather + broadcast of the membership.
    merge_watch.start();
    out.comm.record(
        CollectiveKind::AssignmentBcast,
        static_cast<std::int64_t>(graph.num_vertices()) * kLabelBytes * 2,
        config.ranks);
    auto merged = sbp::block_merge_phase(
        graph, b, probe.target_blocks, base.merge_proposals_per_block, rngs);
    b = Blockmodel::from_assignment(graph, merged.assignment,
                                    merged.num_blocks);
    merge_watch.stop();

    sbp::McmcSettings settings;
    settings.beta = base.beta;
    settings.max_iterations = base.max_mcmc_iterations;
    settings.threshold = search.bracket_established()
                             ? base.mcmc_threshold_post_bracket
                             : base.mcmc_threshold_pre_bracket;

    mcmc_watch.start();
    const auto phase = distributed_mcmc_phase(
        graph, b, settings, partition, rngs, out.comm, out.rank_accepted);
    mcmc_watch.stop();

    stats.mcmc_iterations += phase.stats.iterations;
    stats.proposals += phase.stats.proposals;
    stats.accepted_moves += phase.stats.accepted;
    stats.parallel_updates +=
        phase.stats.iterations * graph.num_vertices();
    ++stats.outer_iterations;

    search.record(sbp::Snapshot{b.copy_assignment(), b.num_blocks(),
                                phase.stats.final_mdl});
  }

  const sbp::Snapshot& best = search.best();
  out.result.assignment = best.assignment;
  out.result.num_blocks = best.num_blocks;
  out.result.mdl = best.mdl;
  stats.block_merge_seconds = merge_watch.total();
  stats.mcmc_seconds = mcmc_watch.total();
  stats.total_seconds = total_timer.elapsed();
  return out;
}

}  // namespace hsbp::dist
