/// \file mcmc_phases.hpp
/// \brief The three MCMC phases of the paper (Algs. 2–4). Each refines
/// the blockmodel in place and reports pass/acceptance counters.
#pragma once

#include "blockmodel/blockmodel.hpp"
#include "graph/degree.hpp"
#include "graph/view.hpp"
#include "sbp/mcmc_common.hpp"
#include "sbp/sbp.hpp"
#include "util/rng.hpp"

namespace hsbp::sbp {

/// Extended phase counters including the Amdahl accounting (how many
/// vertex updates ran inside a parallel region vs. serially).
struct PhaseOutcome {
  McmcPhaseStats stats;
  std::int64_t parallel_updates = 0;
  std::int64_t serial_updates = 0;
};

/// Paper Alg. 2 — serial Metropolis-Hastings. Every accepted move
/// updates the blockmodel in place; proposals always see fresh state.
PhaseOutcome metropolis_hastings_phase(const graph::GraphView& graph,
                                       blockmodel::Blockmodel& b,
                                       const McmcSettings& settings,
                                       util::RngPool& rngs);

/// Paper Alg. 3 — asynchronous Gibbs (A-SBP). One OpenMP-parallel pass
/// per iteration: proposals are evaluated against the stale blockmodel
/// (the "asynchronous" in the name) and the memberships as of the
/// current round of the pass, whose moves are then accepted in vertex
/// order (sbp/async_pass.hpp); the blockmodel is brought up to date
/// after each pass. The result does not depend on the thread count.
PhaseOutcome async_gibbs_phase(const graph::GraphView& graph,
                               blockmodel::Blockmodel& b,
                               const McmcSettings& settings,
                               util::RngPool& rngs);

/// Paper Alg. 4 — hybrid (H-SBP): `split.high` (the top-degree vertices)
/// is processed first, in order and in place; `split.low` then runs as
/// one asynchronous pass; the blockmodel is rebuilt at pass end.
///
/// The high-degree sweep keeps the serial chain's semantics — every
/// proposal sees every move accepted before it — but not its cost: the
/// team evaluates a window of upcoming vertices speculatively, one
/// thread commits the first accepted move in order, and the
/// evaluations after it are redone (sbp/ordered_sweep.hpp). At the
/// few-percent acceptance rates of this sweep a window is seldom cut
/// short early, so most evaluations are kept. Its draws come from
/// streams keyed on (phase key, pass, position), the key drawn once
/// from `rngs.stream(0)`, so the sweep's result does not depend on the
/// thread count.
PhaseOutcome hybrid_phase(const graph::GraphView& graph,
                          blockmodel::Blockmodel& b,
                          const McmcSettings& settings,
                          const graph::DegreeSplit& split,
                          util::RngPool& rngs);

/// B-SBP — the batched asynchronous Gibbs the paper's conclusion
/// proposes as future work: each pass is `batch_count` parallel sweeps
/// over random slices of the vertex set with a blockmodel rebuild
/// between slices, bounding staleness to 1/batch_count of a pass with
/// no serial section at all.
PhaseOutcome batched_gibbs_phase(const graph::GraphView& graph,
                                 blockmodel::Blockmodel& b,
                                 const McmcSettings& settings,
                                 int batch_count, util::RngPool& rngs);

/// The phase kernel of `config.variant` — the one variant dispatch that
/// run() and the SamBaS fine-tune share. `split` is read by Hybrid only;
/// `config.batch_count` by BatchedGibbs only.
PhaseOutcome run_mcmc_phase(const graph::GraphView& graph,
                            blockmodel::Blockmodel& b,
                            const SbpConfig& config,
                            const McmcSettings& settings,
                            const graph::DegreeSplit& split,
                            util::RngPool& rngs);

}  // namespace hsbp::sbp
