/// \file ext_streaming_warmstart.cpp
/// \brief Extension experiment: the Streaming Graph Challenge workload
/// (paper ref [9]) driven by H-SBP. Measures, per streaming part, the
/// wall time and quality of warm-started re-partitioning vs fitting the
/// snapshot from scratch — the saving that makes streaming SBP viable.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "metrics/metrics.hpp"
#include "sbp/streaming.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  const auto options = hsbp::bench::parse_options(argc, argv, 1.0, 1);
  const hsbp::util::Args args(argc, argv);
  const int parts = static_cast<int>(args.get_int("parts", 4));

  hsbp::eval::print_banner(
      "Extension: streaming SBP — warm start vs from scratch",
      options.scale, options.runs, std::cout);

  hsbp::generator::DcsbmParams params;
  params.num_vertices = 800;
  params.num_communities = 8;
  params.num_edges = 8000;
  params.ratio_within_between = 4.0;
  params.seed = options.seed;
  const auto generated = hsbp::generator::generate_dcsbm(params);

  hsbp::sbp::SbpConfig config = hsbp::bench::base_config(options);
  config.variant = hsbp::sbp::Variant::Hybrid;

  for (const auto order : {hsbp::generator::StreamingOrder::EdgeSampling,
                           hsbp::generator::StreamingOrder::Snowball}) {
    const char* order_name =
        order == hsbp::generator::StreamingOrder::EdgeSampling
            ? "edge-sampling"
            : "snowball";
    const auto stream = hsbp::generator::streaming_snapshots(
        generated, parts, order, options.seed + 1);

    hsbp::util::Table table({"part", "V", "E", "warm_s", "cold_s",
                             "saving", "warm_NMI", "cold_NMI"});

    // Warm chain, timed per part: the warm_refit policy run_streaming
    // applies, called here part by part so each part's wall time is
    // captured separately.
    std::vector<double> warm_seconds;
    std::vector<hsbp::sbp::SbpResult> warm_results;
    const hsbp::sbp::SbpResult none;
    for (std::size_t i = 0; i < stream.snapshots.size(); ++i) {
      hsbp::util::Timer part_timer;
      const hsbp::sbp::SbpResult& previous =
          i == 0 ? none : warm_results.back();
      warm_results.push_back(hsbp::sbp::warm_refit(
          stream.snapshots[i], previous.assignment, previous.num_blocks,
          config, 3, config.seed + i));
      warm_seconds.push_back(part_timer.elapsed());
    }

    for (std::size_t i = 0; i < stream.snapshots.size(); ++i) {
      hsbp::util::Timer cold_timer;
      const auto cold = hsbp::sbp::run(stream.snapshots[i], config);
      const double cold_s = cold_timer.elapsed();

      const auto arrived = static_cast<std::size_t>(
          stream.snapshots[i].num_vertices());
      const std::vector<std::int32_t> truth(
          stream.ground_truth.begin(),
          stream.ground_truth.begin() +
              static_cast<std::ptrdiff_t>(arrived));
      table.row()
          .cell(static_cast<std::int64_t>(i + 1))
          .cell(static_cast<std::int64_t>(
              stream.snapshots[i].num_vertices()))
          .cell(stream.snapshots[i].num_edges())
          .cell(warm_seconds[i], 3)
          .cell(cold_s, 3)
          .cell(cold_s > 0 ? cold_s / std::max(warm_seconds[i], 1e-9) : 0.0,
                2)
          .cell(hsbp::metrics::nmi(truth, warm_results[i].assignment), 3)
          .cell(hsbp::metrics::nmi(truth, cold.assignment), 3);
      std::fprintf(stderr, "  %s part %zu done\n", order_name, i + 1);
    }
    std::cout << "-- order: " << order_name << " --\n";
    table.print(std::cout);
  }
  std::cout << "expected shape: warm-started parts (after the first) run "
               "faster than cold fits at matching NMI — the streaming "
               "saving.\n";
  return 0;
}
