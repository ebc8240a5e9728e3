/// \file workload_fit.cpp
/// \brief The fit phase shared by the workloads, and the two in-memory
/// fit workloads: fit_dense_hsbp and fit_sparse_asbp.
#include <algorithm>
#include <cmath>
#include <string>

#include "bench.hpp"
#include "metrics/metrics.hpp"

namespace perfbench {

namespace {

std::string fit_json(const FitRecord& fit, double nmi) {
  return "{\"threads\": " + std::to_string(fit.threads) +
         ", \"traced\": " + (fit.traced ? "true" : "false") +
         ", \"wall_s\": " + json_number(fit.wall_s) +
         ", \"mcmc_s\": " + json_number(fit.stats.mcmc_seconds) +
         ", \"merge_s\": " + json_number(fit.stats.block_merge_seconds) +
         ", \"passes\": " + std::to_string(fit.stats.mcmc_iterations) +
         ", \"probes\": " + std::to_string(fit.stats.outer_iterations) +
         ", \"blocks\": " + std::to_string(fit.num_blocks) +
         ", \"mdl\": " + json_number(fit.mdl) +
         ", \"nmi\": " + json_number(nmi) + "}";
}

std::string summary_json(const std::vector<double>& values) {
  const Summary s = summarize(values);
  return "{\"n\": " + std::to_string(s.count) +
         ", \"median\": " + json_number(s.median) +
         ", \"tail_pct\": " + json_number(s.tail_pct) +
         ", \"tail\": " + json_number(s.tail_value) +
         ", \"max\": " + json_number(s.max) + "}";
}

template <typename Field>
std::vector<double> collect(const std::vector<FitRecord>& fits, Field field) {
  std::vector<double> out;
  out.reserve(fits.size());
  for (const FitRecord& fit : fits) out.push_back(field(fit));
  return out;
}

/// Per-layer metrics of the traced nproc fits (`many`) and the traced
/// 1-thread fit (`one`).
void report_fit_layers(Run& run, const std::vector<FitRecord>& many,
                       const FitRecord& one) {
  double wall = 0, mcmc = 0, cpu = 0, merge = 0;
  double passes = 0, proposals = 0, accepted = 0, serial = 0, parallel = 0;
  double merge_proposals = 0;
  std::vector<double> phases;
  for (const FitRecord& fit : many) {
    wall += fit.wall_s;
    mcmc += fit.layers.mcmc_s;
    cpu += fit.layers.mcmc_cpu_s;
    merge += fit.layers.merge_s;
    passes += static_cast<double>(fit.stats.mcmc_iterations);
    proposals += static_cast<double>(fit.stats.proposals);
    accepted += static_cast<double>(fit.stats.accepted_moves);
    serial += static_cast<double>(fit.stats.serial_updates);
    parallel += static_cast<double>(fit.stats.parallel_updates);
    merge_proposals += static_cast<double>(fit.layers.merge_proposals);
    phases.insert(phases.end(), fit.layers.mcmc_phase_s.begin(),
                  fit.layers.mcmc_phase_s.end());
  }
  const int threads = many.front().threads;
  const auto per_fit = [&](auto field) { return median(collect(many, field)); };

  run.layer("mcmc.s", per_fit([](const FitRecord& f) { return f.layers.mcmc_s; }), "s");
  run.layer("mcmc.share", mcmc / wall, "ratio");
  run.layer("mcmc.passes", per_fit([](const FitRecord& f) {
              return static_cast<double>(f.stats.mcmc_iterations); }), "count");
  run.layer("mcmc.proposals", per_fit([](const FitRecord& f) {
              return static_cast<double>(f.stats.proposals); }), "count");
  run.layer("mcmc.accept_ratio", accepted / proposals, "ratio");
  run.layer("mcmc.ns_per_proposal", mcmc * 1e9 / proposals, "ns");
  run.layer("mcmc.s_per_pass", mcmc / passes, "s");
  run.layer("mcmc.phase_max_over_p50",
            *std::max_element(phases.begin(), phases.end()) / median(phases),
            "ratio");
  run.layer("mcmc.serial_updates", per_fit([](const FitRecord& f) {
              return static_cast<double>(f.stats.serial_updates); }), "count");
  run.layer("mcmc.parallel_updates", per_fit([](const FitRecord& f) {
              return static_cast<double>(f.stats.parallel_updates); }), "count");
  run.layer("mcmc.serial_share", serial / (serial + parallel), "ratio");
  run.layer("mcmc.cpu_util", cpu / (mcmc * threads), "ratio");
  run.layer("mcmc.speedup",
            one.layers.mcmc_s /
                per_fit([](const FitRecord& f) { return f.layers.mcmc_s; }),
            "ratio");

  run.layer("merge.s", per_fit([](const FitRecord& f) { return f.layers.merge_s; }), "s");
  run.layer("merge.share", merge / wall, "ratio");
  run.layer("merge.calls", per_fit([](const FitRecord& f) {
              return static_cast<double>(f.layers.merge_calls); }), "count");
  run.layer("merge.ns_per_proposal", merge * 1e9 / merge_proposals, "ns");
  run.layer("golden.probes", per_fit([](const FitRecord& f) {
              return static_cast<double>(f.layers.probes); }), "count");
  run.layer("golden.s", per_fit([](const FitRecord& f) { return f.layers.golden_s; }), "s");
  run.layer("blockmodel.build_s", per_fit([](const FitRecord& f) {
              return f.layers.build_s; }), "s");
  run.layer("blockmodel.build_calls", per_fit([](const FitRecord& f) {
              return static_cast<double>(f.layers.build_calls); }), "count");
}

}  // namespace

FitRecord run_fit_phase(Run& run, const std::string& name,
                             const hsbp::graph::Graph& graph,
                             const std::vector<std::int32_t>& truth,
                             const hsbp::sbp::SbpConfig& base,
                             double budget_s) {
  const double deadline = run.elapsed() + budget_s;
  const bool traced = run.options().trace;
  hsbp::sbp::SbpConfig one = base;
  one.num_threads = 1;
  hsbp::sbp::SbpConfig many = base;
  many.num_threads = run.options().nproc;

  std::vector<FitRecord> one_fits;
  std::vector<FitRecord> many_fits;
  std::vector<std::string> fits_json;
  const auto keep = [&](FitRecord fit, std::vector<FitRecord>& into) {
    const std::string what = std::string(fit.traced ? "traced " : "") +
                             std::to_string(fit.threads) + "-thread fit";
    check_partition(run, graph, fit.assignment, fit.num_blocks, fit.mdl,
                    what);
    fits_json.push_back(fit_json(fit, hsbp::metrics::nmi(truth, fit.assignment)));
    into.push_back(std::move(fit));
  };

  // Determinism: two 1-thread fits with one seed agree exactly.
  keep(plain_fit(graph, one), one_fits);
  keep(plain_fit(graph, one), one_fits);
  run.tally().check(one_fits[0].assignment == one_fits[1].assignment &&
                        one_fits[0].mdl == one_fits[1].mdl,
                    "two 1-thread fits with one seed differ");

  // Parity: the traced driver at 1 thread is sbp::run, bit for bit.
  FitRecord traced_one;
  if (traced) {
    traced_one = traced_fit(graph, one, run.tracer());
    const FitRecord& plain = one_fits[0];
    run.tally().check(
        traced_one.assignment == plain.assignment &&
            traced_one.mdl == plain.mdl &&
            traced_one.stats.mcmc_iterations == plain.stats.mcmc_iterations &&
            traced_one.stats.proposals == plain.stats.proposals,
        "traced driver differs from sbp::run at 1 thread");
    fits_json.push_back(fit_json(traced_one, hsbp::metrics::nmi(truth, traced_one.assignment)));
  }

  // Then nproc-thread and 1-thread fits in turn until the budget is
  // spent (at least two at nproc), each with its own chain seed.
  do {
    many.seed = base.seed * 1000 + many_fits.size() + 1;
    keep(traced ? traced_fit(graph, many, run.tracer()) : plain_fit(graph, many),
         many_fits);
    if (many_fits.size() < 2 ||
        run.elapsed() + one_fits.back().wall_s >= deadline) {
      continue;
    }
    one.seed = base.seed * 1000 + 500 + one_fits.size();
    keep(plain_fit(graph, one), one_fits);
  } while (many_fits.size() < 2 ||
           run.elapsed() + many_fits.back().wall_s < deadline);

  std::vector<double> nmis;
  std::vector<double> mdl_norms;
  for (const FitRecord& fit : many_fits) {
    nmis.push_back(hsbp::metrics::nmi(truth, fit.assignment));
    mdl_norms.push_back(hsbp::metrics::normalized_mdl(
        fit.mdl, graph.num_vertices(), graph.num_edges()));
  }
  const auto walls = [](const std::vector<FitRecord>& fits) {
    return collect(fits, [](const FitRecord& f) { return f.wall_s; });
  };
  run.e2e("fit_s", median(walls(many_fits)), "s");
  run.e2e("fit_1t_s", median(walls(one_fits)), "s");
  run.e2e("nmi", median(nmis), "nmi");
  run.e2e("mdl_norm", median(mdl_norms), "ratio");

  std::string list = "[";
  for (std::size_t i = 0; i < fits_json.size(); ++i) {
    list += (i > 0 ? ", " : "") + fits_json[i];
  }
  run.detail(name, list + "]");
  run.detail(name + ".fit_s", summary_json(walls(many_fits)));
  run.detail(name + ".fit_1t_s", summary_json(walls(one_fits)));
  run.detail(name + ".speedup", json_number(median(walls(one_fits)) /
                                    median(walls(many_fits))));

  if (traced) {
    report_fit_layers(run, many_fits, traced_one);
    // Tracing overhead: the traced 1-thread fit does exactly the work of
    // the plain ones, so the time difference is the spans' cost. The
    // second plain fit is the one that, like the traced fit, ran warm.
    run.layer("trace.overhead_frac",
              traced_one.wall_s / one_fits[1].wall_s - 1.0, "ratio");
  }
  return std::move(many_fits.back());
}

namespace {

void fit_workload(Run& run, const std::string& id, double scale,
                  hsbp::sbp::Variant variant) {
  const Options& options = run.options();
  GeneratedInput input = repeated_setup(
      run, [&] { return generate_input(run, id, scale); });
  run.begin_measure();
  const hsbp::graph::Graph& graph = input.generated.graph;
  const auto& truth = input.generated.ground_truth;

  ServePlan plan;
  plan.fit.variant = variant;
  plan.fit.seed = options.seed;
  plan.fit.num_threads = options.nproc;
  plan.ladder_steps = options.trace ? kLadderSteps : 0;
  // A traced run also fits the graph out of core once.
  const double reserved =
      serve_seconds(plan) + (options.trace ? 1.5 : 0.0);

  FitRecord fitted = run_fit_phase(run, "fits", graph, truth, plan.fit,
                                        std::max(0.0, run.remaining() - reserved));
  run.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  if (options.trace) trace_ooc_layer(run, graph, plan.fit);

  plan.graph = std::make_shared<const hsbp::graph::Graph>(graph);
  plan.initial = std::move(fitted.assignment);
  plan.initial_blocks = fitted.num_blocks;
  plan.initial_mdl = fitted.mdl;
  plan.batches = attach_vertex_batches(graph, truth, ingest_count(plan), options.seed);
  run_serve_phase(run, start_server(plan, options.work_dir + "/serve"), plan);
}

}  // namespace

void workload_fit_dense_hsbp(Run& run) {
  fit_workload(run, "S5", 0.02, hsbp::sbp::Variant::Hybrid);
}

void workload_fit_sparse_asbp(Run& run) {
  fit_workload(run, "S10", 0.05, hsbp::sbp::Variant::AsyncGibbs);
}

}  // namespace perfbench
