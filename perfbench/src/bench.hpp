/// \file bench.hpp
/// \brief Shared state of one benchmark run and the phases the four
/// workloads are built from.
///
/// Every workload has the same three parts:
///   1. set-up, repeated kSetupRepeats times (setup_s is their median);
///   2. a fit phase: the same problem fitted at 1 thread (twice, which is
///      also the determinism check) and at nproc threads until its time
///      budget is spent;
///   3. a serve phase: the fitted partition served by an in-process
///      `serve::Server`, reads offered in an open loop over nproc - 1
///      connections and INGEST batches on a fixed interval.
/// The whole run keeps every CPU busy with IdleSpinners.
/// What differs is the graph, the variant, how the fit runs (in memory
/// or out of core) and how the time splits between parts 2 and 3.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "generator/suites.hpp"
#include "graph/graph.hpp"
#include "ooc/ooc.hpp"
#include "sbp/sbp.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "traced_fit.hpp"

namespace perfbench {

/// Set-up runs at least kSetupRepeats times and until kSetupSeconds
/// have passed; setup_s is the median.
inline constexpr int kSetupRepeats = 5;
inline constexpr double kSetupSeconds = 1.0;

/// Generator seed of every workload's graph. The graphs are fixed
/// datasets, as the paper's are; `--seed` drives everything else: the
/// fit chains, the streaming split, the ingest batches and the reads.
inline constexpr std::uint64_t kDatasetSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  int nproc = 1;
  std::string work_dir;  ///< scratch files of this run (removed at exit)
  std::string trace_dir;  ///< where a traced run writes its spans
  /// Read latency limit behind serve.query_max_rps: a step holds the rate
  /// when its p99 latency, timed from due time, stays under it.
  double latency_limit_ms = 0.0;
};

/// Everything one run measures. Metrics land in `e2e` (untraced runs) or
/// `layers` (traced runs); `detail` collects the JSON fields printed on
/// the line before the result (every fit's wall time and pass count,
/// per-step serving figures).
class Run {
 public:
  explicit Run(Options options);

  const Options& options() const { return options_; }
  Tracer& tracer() { return tracer_; }
  FailureTally& tally() { return tally_; }
  /// Seconds since the run started.
  double elapsed() const { return tracer_.now(); }
  /// Marks the end of set-up: the measured window of `seconds` starts.
  void begin_measure() { measure_start_ = elapsed(); }
  /// Seconds left of the measured window.
  double remaining() const {
    return options_.seconds - (elapsed() - measure_start_);
  }

  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  /// Adds `"key": <json>` to the detail line.
  void detail(const std::string& key, const std::string& json);

  const MetricMap& e2e_metrics() const { return e2e_; }
  const MetricMap& layer_metrics() const { return layers_; }
  std::string detail_json() const;

 private:
  Options options_;
  Tracer tracer_;
  FailureTally tally_;
  MetricMap e2e_;
  MetricMap layers_;
  std::vector<std::pair<std::string, std::string>> detail_;
  double measure_start_ = 0.0;
};

// ------------------------------------------------------------ checks

/// Output checks of one partition: length V, labels dense in
/// [0, num_blocks), and the reported MDL equal to `blockmodel::mdl` of a
/// fresh `from_assignment`. `what` names the fit in failure messages.
void check_partition(Run& run, const hsbp::graph::Graph& graph,
                     const std::vector<std::int32_t>& assignment,
                     std::int32_t num_blocks, double reported_mdl,
                     const std::string& what);

// --------------------------------------------------------- set-up

/// A generated synthetic-suite graph, also written as a binary CSR file.
struct GeneratedInput {
  hsbp::generator::GeneratedGraph generated;
  std::string csr_path;
};

/// Set-up of every workload: generates suite entry `id` at `scale` with
/// kDatasetSeed and times the graph layer on it — a CSR build from the
/// edge list, a binary CSR write to the work directory and an mmap open
/// (graph.build_s, graph.csr_write_s, graph.mmap_open_s, graph.csr_bytes).
GeneratedInput generate_input(Run& run, const std::string& id, double scale);

/// Runs `setup` at least kSetupRepeats times and until kSetupSeconds
/// have passed, keeps the last result, and reports the median duration
/// as setup_s.
template <typename Setup>
auto repeated_setup(Run& run, Setup&& setup) {
  std::vector<double> seconds;
  const double start = run.elapsed();
  for (;;) {
    const double t0 = run.elapsed();
    auto kept = setup();
    seconds.push_back(run.elapsed() - t0);
    if (seconds.size() >= kSetupRepeats &&
        run.elapsed() - start >= kSetupSeconds) {
      run.e2e("setup_s", median(seconds), "s");
      run.detail("setup_repeats", std::to_string(seconds.size()));
      return kept;
    }
  }
}

// --------------------------------------------------------- fit phase

/// Fits `graph` with `base` (variant, seed) at 1 thread twice and at
/// nproc threads until `budget_s` of run time has passed (at least
/// twice); reports fit_s, fit_1t_s, nmi, mdl_norm and, in traced runs,
/// the sbp/blockmodel layer metrics and the 1-thread parity check. Every
/// fit is listed in the detail line under `name`. Returns the last
/// nproc-thread fit.
FitRecord run_fit_phase(Run& run, const std::string& name,
                             const hsbp::graph::Graph& graph,
                             const std::vector<std::int32_t>& truth,
                             const hsbp::sbp::SbpConfig& base,
                             double budget_s);

// -------------------------------------------------------- serve phase

using EdgeBatch = std::vector<hsbp::graph::Edge>;

struct ServePlan {
  /// Served graph. With `initial` empty the server cold-fits it in
  /// start(); otherwise `initial` is persisted as its checkpoint and the
  /// server resumes from it.
  std::shared_ptr<const hsbp::graph::Graph> graph;
  std::vector<std::int32_t> initial;
  std::int32_t initial_blocks = 0;
  double initial_mdl = 0.0;

  hsbp::sbp::SbpConfig fit;        ///< variant/seed/threads of refits
  std::vector<EdgeBatch> batches;  ///< INGEST batches, in order
  /// The phase is `base_steps` steps of kStepSeconds at kBaseRate
  /// (serve.query_p50_ms, serve.query_p99_ms) while an INGEST arrives
  /// every kIngestEverySeconds, faster than a refit takes, so the daemon
  /// refits back to back (serve.refit_lag_s). One rest step at kBaseRate
  /// follows once the last refit has published, so that reads see every
  /// batch (and idle reads are measured). Traced runs add `ladder_steps`
  /// steps of kLadderStepSeconds, kSettleSeconds apart, that search for
  /// serve.query_max_rps with a RateLadder; untraced runs skip them.
  int base_steps = 20;
  int ladder_steps = 0;
};

inline constexpr int kLadderSteps = 14;
inline constexpr double kStepSeconds = 0.5;
inline constexpr double kLadderStepSeconds = 0.5;
inline constexpr double kSettleSeconds = 0.05;
inline constexpr double kBaseRate = 2000.0;
inline constexpr double kLadderGrowth = 4.0;
inline constexpr double kIngestEverySeconds = 0.05;
/// serve.query_p99_ms is the median over windows of this length of each
/// window's p99, so a host stall spoils one window, not the whole tail.
inline constexpr double kWindowSeconds = 0.1;
/// Serve-phase time at which the first step starts: every reader is
/// connected by then.
inline constexpr double kServeStartSeconds = 0.05;

/// When INGEST `i` is due, in serve-phase seconds.
inline double ingest_due(std::size_t i) {
  return kServeStartSeconds + static_cast<double>(i) * kIngestEverySeconds;
}

/// INGESTs that fit the base-rate steps of `plan`, leaving their last
/// half step quiet.
inline std::size_t ingest_count(const ServePlan& plan) {
  return static_cast<std::size_t>((plan.base_steps - 0.5) * kStepSeconds /
                                  kIngestEverySeconds);
}

/// Run time the serve phase of `plan` takes, with start-up slack.
inline double serve_seconds(const ServePlan& plan) {
  return (plan.base_steps + 1) * kStepSeconds +
         plan.ladder_steps * (kLadderStepSeconds + kSettleSeconds) + 0.5;
}

/// A server started for a plan (set-up of the serve phase). Destroying
/// it drains the daemon.
struct ServeHandle {
  std::unique_ptr<hsbp::serve::Server> server;
  std::string dir;     ///< checkpoint directory
  std::string socket;  ///< Unix socket path
};

/// Starts a server for `plan` in `dir`, on a Unix socket there.
ServeHandle start_server(const ServePlan& plan, const std::string& dir);

/// Runs the serve phase against a started server and stops it; reports
/// serve.query_p50_ms, serve.query_p99_ms, serve.query_max_rps (traced
/// runs), serve.refit_lag_s and the
/// serve/ckpt layer metrics. Returns the last published snapshot.
std::shared_ptr<const hsbp::serve::Snapshot> run_serve_phase(
    Run& run, ServeHandle server, const ServePlan& plan);

/// One new vertex per batch, attached by 20 edges in both directions to
/// members of one planted community — ingest for workloads whose own
/// graph is fitted whole.
std::vector<EdgeBatch> attach_vertex_batches(
    const hsbp::graph::Graph& graph, const std::vector<std::int32_t>& truth,
    std::size_t batches, std::uint64_t seed);

/// The ooc.* layer metrics of one out-of-core fit.
void report_ooc_layers(Run& run, const hsbp::ooc::OocResult& result);

/// Traced runs of the in-memory workloads: one `ooc::fit` of `graph` in
/// 4 pieces, so the ooc layer is measured on every workload.
void trace_ooc_layer(Run& run, const hsbp::graph::Graph& graph,
                     const hsbp::sbp::SbpConfig& base);

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb();

// ------------------------------------------------------------ workloads

void workload_fit_dense_hsbp(Run& run);
void workload_fit_sparse_asbp(Run& run);
void workload_serve_mixed(Run& run);
void workload_ooc_budget(Run& run);

/// The out-of-core child: `--child-ooc --csr P --threads T --seed S
/// --out F`. Returns its exit code.
int ooc_child_main(int argc, char** argv);

/// One idle-priority (SCHED_IDLE) busy loop per CPU, each in a process
/// of its own, for as long as the object lives. On a virtual machine an
/// idle vCPU halts, and waking it (a reply arriving, an OpenMP worker
/// released from a barrier) waits for the hypervisor to run it again —
/// milliseconds on a busy host, and the main source of run-to-run
/// spread here. A spinner keeps its vCPU running, and any other thread
/// that wakes preempts it at once. Being other processes, spinners add
/// nothing to this process's CPU time or RSS.
class IdleSpinners {
 public:
  explicit IdleSpinners(int count);
  ~IdleSpinners();  ///< kills the spinners and waits for them
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::vector<int> pids_;
};

/// Host fingerprint: CPU model, nproc, SIMD level, build type, commit.
std::string host_fingerprint_json(int nproc);

/// System-wide CPU time counters from /proc/stat, in clock ticks. On a
/// virtual machine `steal` is the time the hypervisor ran someone else:
/// the detail line reports its share over the run, since it slows every
/// timing here.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks cpu_ticks();

}  // namespace perfbench
