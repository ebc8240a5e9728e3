/// \file workload_ooc.cpp
/// \brief The ooc_budget workload: `ooc::fit` over a mapped binary CSR
/// under a 1 MiB budget, each fit in a child process that never holds
/// the full graph, so its peak RSS is the fit's own.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "graph/mmap_graph.hpp"
#include "metrics/metrics.hpp"
#include "sample/samplers.hpp"
#include "util/args.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kBudgetMb = 1;

/// What a child fit reports back.
struct ChildFit {
  std::vector<std::int32_t> assignment;
  std::map<std::string, double> values;
  int threads = 0;
  double value(const std::string& key) const {
    const auto it = values.find(key);
    return it == values.end() ? 0.0 : it->second;
  }
};

/// Re-executes this binary as an out-of-core child and reads its result.
/// Returns false when the child failed.
bool run_child(const std::string& csr, int threads, std::uint64_t seed,
               ChildFit& out) {
  const std::string result = csr + ".result";
  const std::vector<std::string> arguments = {
      "/proc/self/exe", "--child-ooc", "--csr", csr,
      "--threads", std::to_string(threads),
      "--seed", std::to_string(seed), "--out", result};
  std::vector<char*> argv;
  for (const auto& argument : arguments) {
    argv.push_back(const_cast<char*>(argument.c_str()));
  }
  argv.push_back(nullptr);
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return false;
  }
  std::ifstream in(result, std::ios::binary);
  std::int64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in || count < 0) return false;
  out.assignment.resize(static_cast<std::size_t>(count));
  in.read(reinterpret_cast<char*>(out.assignment.data()),
          static_cast<std::streamsize>(count * 4));
  std::string key;
  double value = 0.0;
  while (in >> key >> value) out.values[key] = value;
  out.threads = threads;
  std::remove(result.c_str());
  return true;
}

}  // namespace

int ooc_child_main(int argc, char** argv) {
  const hsbp::util::Args args(argc, argv);
  hsbp::util::Timer open_timer;
  const hsbp::graph::MmapGraph mapped(args.get_string("csr", ""));
  const double open_s = open_timer.elapsed();

  // `hsbp fit --memory-budget-mb 1` defaults: H-SBP, degree-weighted
  // skeleton of 10%, ten fine-tune passes.
  hsbp::ooc::OocConfig config;
  config.base.variant = hsbp::sbp::Variant::Hybrid;
  config.base.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  config.base.num_threads = static_cast<int>(args.get_int("threads", 1));
  config.memory_budget_mb = kBudgetMb;
  config.release_cache = [&mapped] { mapped.evict(); };
  const hsbp::ooc::OocResult result = hsbp::ooc::fit(mapped.view(), config);

  std::ofstream out(args.get_string("out", ""), std::ios::binary);
  const auto count = static_cast<std::int64_t>(result.assignment.size());
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(reinterpret_cast<const char*>(result.assignment.data()),
            static_cast<std::streamsize>(count * 4));
  out.precision(17);
  out << "\nmdl " << result.mdl << "\nblocks " << result.num_blocks
      << "\ntotal_s " << result.timings.total_seconds << "\nskeleton_s "
      << result.timings.skeleton_seconds << "\nextrapolate_s "
      << result.timings.extrapolate_seconds << "\npieces_s "
      << result.timings.pieces_seconds << "\nfinetune_s "
      << result.timings.finetune_seconds << "\npieces_refit "
      << result.pieces_refit << "\npieces_planned " << result.pieces_planned
      << "\npeak_rss_mb " << peak_rss_mb() << "\nmmap_open_s "
      << open_s << "\n";
  return out ? 0 : 1;
}

void report_ooc_layers(Run& run, const hsbp::ooc::OocResult& result) {
  run.layer("ooc.skeleton_s", result.timings.skeleton_seconds, "s");
  run.layer("ooc.extrapolate_s", result.timings.extrapolate_seconds, "s");
  run.layer("ooc.pieces_s", result.timings.pieces_seconds, "s");
  run.layer("ooc.finetune_s", result.timings.finetune_seconds, "s");
  run.layer("ooc.pieces_refit", result.pieces_refit, "count");
}

void trace_ooc_layer(Run& run, const hsbp::graph::Graph& graph,
                     const hsbp::sbp::SbpConfig& base) {
  hsbp::ooc::OocConfig config;
  config.base = base;
  config.pieces = 4;
  hsbp::ooc::OocResult result;
  {
    const Span span(run.tracer(), "ooc.fit");
    result = hsbp::ooc::fit(graph, config);
  }
  check_partition(run, graph, result.assignment, result.num_blocks,
                  result.mdl, "in-memory ooc fit");
  report_ooc_layers(run, result);
}

void workload_ooc_budget(Run& run) {
  const Options& options = run.options();
  GeneratedInput input = repeated_setup(
      run, [&] { return generate_input(run, "S13", 0.1); });
  run.begin_measure();
  const hsbp::graph::Graph& graph = input.generated.graph;
  const auto& truth = input.generated.ground_truth;

  ServePlan plan;
  plan.fit.variant = hsbp::sbp::Variant::Hybrid;
  plan.fit.seed = options.seed;
  plan.fit.num_threads = options.nproc;
  plan.ladder_steps = options.trace ? kLadderSteps : 0;
  // A traced run also fits the skeleton in memory with the traced driver.
  const double reserved = serve_seconds(plan) + (options.trace ? 3.0 : 0.0);
  const double deadline = run.elapsed() + std::max(0.0, run.remaining() - reserved);

  std::vector<ChildFit> one;
  std::vector<ChildFit> many;
  const auto fit = [&](int threads, std::uint64_t seed,
                       std::vector<ChildFit>& into) {
    ChildFit child;
    if (!run_child(input.csr_path, threads, seed, child)) {
      throw std::runtime_error("out-of-core child fit failed");
    }
    const auto blocks = static_cast<std::int32_t>(child.value("blocks"));
    check_partition(run, graph, child.assignment, blocks, child.value("mdl"),
                    std::to_string(threads) + "-thread ooc fit");
    run.tally().check(child.value("pieces_refit") >= 2,
                      "ooc fit refit fewer than 2 pieces");
    into.push_back(std::move(child));
  };
  fit(1, options.seed, one);
  fit(1, options.seed, one);
  run.tally().check(one[0].assignment == one[1].assignment &&
                        one[0].value("mdl") == one[1].value("mdl"),
                    "two 1-thread ooc fits with one seed differ");
  // Then nproc-thread and 1-thread fits in turn, each with its own chain
  // seed, until the budget is spent (at least two at nproc).
  do {
    fit(options.nproc, options.seed * 1000 + many.size() + 1, many);
    if (many.size() >= 2 &&
        run.elapsed() + one.back().value("total_s") < deadline) {
      fit(1, options.seed * 1000 + 500 + one.size(), one);
    }
  } while (many.size() < 2 ||
           run.elapsed() + many.back().value("total_s") < deadline);

  const auto med = [](const std::vector<ChildFit>& fits, auto field) {
    std::vector<double> values;
    for (const ChildFit& f : fits) values.push_back(field(f));
    return median(values);
  };
  run.e2e("fit_s", med(many, [](const ChildFit& f) { return f.value("total_s"); }), "s");
  run.e2e("fit_1t_s", med(one, [](const ChildFit& f) { return f.value("total_s"); }), "s");
  run.e2e("nmi", med(many, [&](const ChildFit& f) {
            return hsbp::metrics::nmi(truth, f.assignment); }), "nmi");
  run.e2e("mdl_norm", med(many, [&](const ChildFit& f) {
            return hsbp::metrics::normalized_mdl(f.value("mdl"), graph.num_vertices(),
                                                 graph.num_edges()); }), "ratio");
  run.e2e("peak_rss_mb", med(many, [](const ChildFit& f) {
            return f.value("peak_rss_mb"); }), "MiB");
  std::string list = "[";
  for (const auto* fits : {&one, &many}) {
    for (const ChildFit& f : *fits) {
      list += std::string(list.size() > 1 ? ", " : "") + "{\"threads\": " +
              std::to_string(f.threads) + ", \"wall_s\": " +
              json_number(f.value("total_s")) + ", \"skeleton_s\": " +
              json_number(f.value("skeleton_s")) + ", \"pieces_refit\": " +
              json_number(f.value("pieces_refit")) + ", \"peak_rss_mb\": " +
              json_number(f.value("peak_rss_mb")) + ", \"mdl\": " +
              json_number(f.value("mdl")) + "}";
    }
  }
  run.detail("fits", list + "]");

  if (options.trace) {
    const ChildFit& last = many.back();
    run.layer("ooc.skeleton_s", med(many, [](const ChildFit& f) { return f.value("skeleton_s"); }), "s");
    run.layer("ooc.extrapolate_s", med(many, [](const ChildFit& f) { return f.value("extrapolate_s"); }), "s");
    run.layer("ooc.pieces_s", med(many, [](const ChildFit& f) { return f.value("pieces_s"); }), "s");
    run.layer("ooc.finetune_s", med(many, [](const ChildFit& f) { return f.value("finetune_s"); }), "s");
    run.layer("ooc.pieces_refit", last.value("pieces_refit"), "count");
    run.layer("graph.mmap_open_s", med(many, [](const ChildFit& f) { return f.value("mmap_open_s"); }), "s");
    // The sbp layer of this workload: the skeleton fit of stage 1 (the
    // same sample and sbp::run call), through the traced driver.
    const hsbp::sample::SampledGraph skeleton = hsbp::sample::sample_graph(
        graph, hsbp::sample::SamplerKind::DegreeWeighted, 0.1, options.seed);
    std::vector<std::int32_t> skeleton_truth;
    for (const auto v : skeleton.to_full) {
      skeleton_truth.push_back(truth[static_cast<std::size_t>(v)]);
    }
    run_fit_phase(run, "skeleton_fits", skeleton.subgraph, skeleton_truth, plan.fit, 0.0);
  }

  plan.graph = std::make_shared<const hsbp::graph::Graph>(graph);
  plan.initial = many.back().assignment;
  plan.initial_blocks = static_cast<std::int32_t>(many.back().value("blocks"));
  plan.initial_mdl = many.back().value("mdl");
  plan.batches = attach_vertex_batches(graph, truth, ingest_count(plan), options.seed);
  run_serve_phase(run, start_server(plan, options.work_dir + "/serve"), plan);
}

}  // namespace perfbench
