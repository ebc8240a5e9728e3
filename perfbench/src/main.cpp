/// \file main.cpp
/// \brief perfbench — the repository benchmark driver.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             --latency-limit-ms L --work-dir DIR [--trace-dir DIR]
///
/// Prints a host-fingerprint line, a detail line (every fit, every serve
/// step) and, last, the result line {"correct", "attempted", "failed",
/// "metrics"}: the end-to-end metrics, or with --trace 1 the per-layer
/// metrics of the traced run, whose spans go to --trace-dir.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/args.hpp"

namespace {

using perfbench::Run;

/// Self time per layer, from the span names the benchmark records.
void report_self_times(Run& run) {
  static const std::map<std::string, std::string> kLayerOf = {
      {"fit", "fit"},
      {"sbp.select_hybrid", "fit"},
      {"golden.probe", "golden"},
      {"golden.next_probe", "golden"},
      {"golden.record", "golden"},
      {"blockmodel.identity", "blockmodel"},
      {"blockmodel.from_assignment", "blockmodel"},
      {"sbp.merge", "merge"},
      {"sbp.mcmc", "mcmc"},
      {"ooc.fit", "ooc"},
      {"epoch", "serve"},
      {"member", "serve"},
      {"community", "serve"},
      {"modularity", "serve"},
      {"ingest", "serve"},
  };
  std::map<std::string, double> by_layer;
  for (const auto& entry : kLayerOf) by_layer[entry.second];
  const auto spans = run.tracer().spans();
  for (const auto& [name, seconds] : perfbench::self_seconds(spans)) {
    const auto found = kLayerOf.find(name);
    by_layer[found == kLayerOf.end() ? "other" : found->second] += seconds;
  }
  by_layer.erase("other");
  for (const auto& [layer, seconds] : by_layer) {
    run.layer("self." + layer + "_s", seconds, "s");
  }
  run.layer("trace.spans", static_cast<double>(spans.size()), "count");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--child-ooc") == 0) {
    try {
      return perfbench::ooc_child_main(argc, argv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ooc child: %s\n", e.what());
      return 1;
    }
  }

  const hsbp::util::Args args(argc, argv);
  perfbench::Options options;
  options.workload = args.get_string("workload", "");
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  options.seconds = args.get_double("seconds", 0.0);
  options.trace = args.get_int("trace", 0) != 0;
  options.nproc = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  options.latency_limit_ms = args.get_double("latency-limit-ms", 0.0);
  const std::string work_root = args.get_string("work-dir", "");
  options.trace_dir = args.get_string("trace-dir", work_root);

  using Workload = void (*)(Run&);
  static const std::map<std::string, Workload> kWorkloads = {
      {"fit_dense_hsbp", perfbench::workload_fit_dense_hsbp},
      {"fit_sparse_asbp", perfbench::workload_fit_sparse_asbp},
      {"serve_mixed", perfbench::workload_serve_mixed},
      {"ooc_budget", perfbench::workload_ooc_budget},
  };
  const auto workload = kWorkloads.find(options.workload);
  if (workload == kWorkloads.end() || work_root.empty() ||
      options.seconds <= 0.0 || options.latency_limit_ms <= 0.0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload fit_dense_hsbp|fit_sparse_asbp|"
                 "serve_mixed|ooc_budget --seed N --seconds S --trace 0|1 "
                 "--latency-limit-ms L --work-dir DIR [--trace-dir DIR]\n");
    return 64;
  }
  options.work_dir = work_root + "/" + options.workload + "-" +
                     std::to_string(static_cast<long>(::getpid()));
  std::filesystem::create_directories(options.work_dir);

  // Forked before any thread exists; they run until main returns.
  const perfbench::IdleSpinners spinners(options.nproc);
  Run run(options);
  std::printf("{\"host\": %s}\n",
              perfbench::host_fingerprint_json(options.nproc).c_str());
  const perfbench::CpuTicks ticks_before = perfbench::cpu_ticks();
  int status = 0;
  try {
    workload->second(run);
    if (options.trace) {
      report_self_times(run);
      std::filesystem::create_directories(options.trace_dir);
      // One file per workload: the latest traced run's spans.
      const std::string path =
          options.trace_dir + "/" + options.workload + ".trace.json";
      perfbench::write_chrome_trace(path, run.tracer().spans());
      run.detail("trace_file", perfbench::json_string(path));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    status = 1;
  }
  std::filesystem::remove_all(options.work_dir);
  if (status != 0) return status;

  const perfbench::CpuTicks ticks_after = perfbench::cpu_ticks();
  const double steal =
      static_cast<double>(ticks_after.steal - ticks_before.steal) /
      static_cast<double>(
          std::max<std::uint64_t>(1, ticks_after.total - ticks_before.total));
  run.detail("host_steal_frac", perfbench::json_number(steal));
  run.layer("host.steal_frac", steal, "ratio");
  run.e2e("ok_frac", 1.0 - run.tally().error_frac(), "ratio");
  std::string failures = "[";
  for (const auto& message : run.tally().messages()) {
    failures += (failures.size() > 1 ? ", " : "") +
                perfbench::json_string(message);
  }
  run.detail("failures", failures + "]");
  std::printf("{\"detail\": %s}\n", run.detail_json().c_str());
  std::printf("%s\n",
              perfbench::result_json(run.tally(), options.trace
                                                      ? run.layer_metrics()
                                                      : run.e2e_metrics())
                  .c_str());
  return 0;
}
