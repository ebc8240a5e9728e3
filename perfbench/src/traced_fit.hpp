/// \file traced_fit.hpp
/// \brief One fit, timed from outside: either a plain `sbp::run` call or
/// the traced driver, which runs the same outer loop through the public
/// calls (`GoldenSearch`, `Blockmodel::from_assignment`,
/// `block_merge_phase`, the `*_phase` functions) with a span around each.
///
/// The traced driver mirrors `sbp::run`'s cold start step for step, so at
/// a fixed thread count and seed it draws the same random numbers; the
/// 1-thread parity check in the fit workloads holds it to that.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sbp/sbp.hpp"
#include "trace.hpp"

namespace perfbench {

/// Layer counters of one traced fit (all zero for a plain fit).
struct FitLayers {
  double mcmc_s = 0.0;       ///< wall time inside the *_phase calls
  double mcmc_cpu_s = 0.0;   ///< process CPU time inside them
  double merge_s = 0.0;      ///< wall time inside block_merge_phase
  double build_s = 0.0;      ///< wall time inside from_assignment
  double golden_s = 0.0;     ///< wall time inside next_probe/record
  std::int64_t merge_calls = 0;
  std::int64_t merge_proposals = 0;  ///< blocks × proposals per block
  std::int64_t build_calls = 0;
  std::int64_t probes = 0;
  std::vector<double> mcmc_phase_s;  ///< every MCMC phase's wall time
};

struct FitRecord {
  std::vector<std::int32_t> assignment;
  std::int32_t num_blocks = 0;
  double mdl = 0.0;
  hsbp::sbp::SbpStats stats;
  double wall_s = 0.0;
  int threads = 0;
  bool traced = false;
  FitLayers layers;
};

/// `sbp::run(graph, config)`, timed.
FitRecord plain_fit(const hsbp::graph::Graph& graph,
                    const hsbp::sbp::SbpConfig& config);

/// The traced driver: same result as `plain_fit` at one thread, with a
/// "fit" root span and child spans per public call recorded in `tracer`.
FitRecord traced_fit(const hsbp::graph::Graph& graph,
                     const hsbp::sbp::SbpConfig& config, Tracer& tracer);

}  // namespace perfbench
