#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "blockmodel/blockmodel.hpp"
#include "blockmodel/mdl.hpp"
#include "graph/binary_csr.hpp"
#include "graph/mmap_graph.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace perfbench {

Run::Run(Options options)
    : options_(std::move(options)), tracer_(options_.trace) {}

void Run::e2e(const std::string& name, double value,
              const std::string& unit) {
  e2e_[name] = Metric{value, unit};
}

void Run::layer(const std::string& name, double value,
                const std::string& unit) {
  layers_[name] = Metric{value, unit};
}

void Run::detail(const std::string& key, const std::string& json) {
  detail_.emplace_back(key, json);
}

std::string Run::detail_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < detail_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(detail_[i].first) + ": " + detail_[i].second;
  }
  return out + "}";
}

void check_partition(Run& run, const hsbp::graph::Graph& graph,
                     const std::vector<std::int32_t>& assignment,
                     std::int32_t num_blocks, double reported_mdl,
                     const std::string& what) {
  FailureTally& tally = run.tally();
  if (!tally.check(assignment.size() ==
                       static_cast<std::size_t>(graph.num_vertices()),
                   what + ": assignment length is not V")) {
    return;
  }
  std::vector<bool> used(static_cast<std::size_t>(std::max(num_blocks, 0)));
  bool in_range = num_blocks > 0;
  for (const std::int32_t label : assignment) {
    if (label < 0 || label >= num_blocks) {
      in_range = false;
      break;
    }
    used[static_cast<std::size_t>(label)] = true;
  }
  const bool dense =
      in_range && std::all_of(used.begin(), used.end(), [](bool u) { return u; });
  if (!tally.check(dense, what + ": labels are not dense in [0, B)")) return;
  const auto fresh = hsbp::blockmodel::Blockmodel::from_assignment(
      graph, assignment, num_blocks);
  const double recomputed = hsbp::blockmodel::mdl(
      fresh, graph.num_vertices(), graph.num_edges());
  tally.check(recomputed == reported_mdl,
              what + ": reported MDL " + json_number(reported_mdl) +
                  " != recomputed " + json_number(recomputed));
}

std::vector<EdgeBatch> attach_vertex_batches(
    const hsbp::graph::Graph& graph, const std::vector<std::int32_t>& truth,
    std::size_t batches, std::uint64_t seed) {
  // Members of each planted community, to attach new vertices to.
  std::int32_t communities = 0;
  for (const std::int32_t label : truth) {
    communities = std::max(communities, label + 1);
  }
  std::vector<std::vector<hsbp::graph::Vertex>> members(
      static_cast<std::size_t>(communities));
  for (std::size_t v = 0; v < truth.size(); ++v) {
    members[static_cast<std::size_t>(truth[v])].push_back(
        static_cast<hsbp::graph::Vertex>(v));
  }
  hsbp::util::Rng rng(seed);
  std::vector<EdgeBatch> out(batches);
  for (std::size_t b = 0; b < batches; ++b) {
    const auto fresh =
        static_cast<hsbp::graph::Vertex>(graph.num_vertices()) +
        static_cast<hsbp::graph::Vertex>(b);
    const auto& pool = members[static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::uint64_t>(communities)))];
    for (int e = 0; e < 20; ++e) {
      const hsbp::graph::Vertex peer =
          pool[static_cast<std::size_t>(rng.uniform_int(pool.size()))];
      if (e % 2 == 0) {
        out[b].emplace_back(fresh, peer);
      } else {
        out[b].emplace_back(peer, fresh);
      }
    }
  }
  return out;
}

double peak_rss_mb() {
  // VmHWM belongs to the current address space and starts afresh at
  // exec; ru_maxrss would carry a re-executed child's pre-exec peak,
  // the parent's pages it was forked with.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

IdleSpinners::IdleSpinners(int count) {
  const pid_t parent = ::getpid();
  for (int i = 0; i < count; ++i) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Dies with the benchmark, even when it is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) _exit(0);
      sched_param param{};
      ::sched_setscheduler(0, SCHED_IDLE, &param);
      for (;;) __builtin_ia32_pause();
    }
    if (pid > 0) pids_.push_back(pid);
  }
}

IdleSpinners::~IdleSpinners() {
  for (const pid_t pid : pids_) ::kill(pid, SIGKILL);
  for (const pid_t pid : pids_) ::waitpid(pid, nullptr, 0);
}

CpuTicks cpu_ticks() {
  CpuTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  // cpu  user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8 && stat; ++field) {
    std::uint64_t value = 0;
    stat >> value;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

std::string host_fingerprint_json(int nproc) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(colon + 1);
        cpu.erase(0, cpu.find_first_not_of(' '));
      }
      break;
    }
  }
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  return "{\"cpu\": " + json_string(cpu) +
         ", \"nproc\": " + std::to_string(nproc) + ", \"simd\": " +
         json_string(hsbp::util::simd::level_name(
             hsbp::util::simd::active_level())) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"commit\": " +
         json_string(commit != nullptr ? commit : "unknown") + "}";
}

}  // namespace perfbench

namespace perfbench {

GeneratedInput generate_input(Run& run, const std::string& id, double scale) {
  GeneratedInput input;
  const auto entries =
      hsbp::generator::synthetic_suite(scale, kDatasetSeed);
  const auto entry = std::find_if(entries.begin(), entries.end(),
                                  [&](const auto& e) { return e.id == id; });
  if (entry == entries.end()) {
    throw std::invalid_argument("no synthetic suite entry " + id);
  }
  input.generated = hsbp::generator::generate(*entry);
  const hsbp::graph::Graph& graph = input.generated.graph;

  const std::vector<hsbp::graph::Edge> edges = graph.edges();
  double t0 = run.elapsed();
  const hsbp::graph::Graph rebuilt =
      hsbp::graph::Graph::from_edges(graph.num_vertices(), edges);
  run.layer("graph.build_s", run.elapsed() - t0, "s");
  run.tally().check(rebuilt.num_edges() == graph.num_edges(),
                    "CSR rebuild lost edges");

  input.csr_path = run.options().work_dir + "/" + id + ".csr";
  t0 = run.elapsed();
  hsbp::graph::write_binary_csr(graph, input.csr_path);
  run.layer("graph.csr_write_s", run.elapsed() - t0, "s");
  t0 = run.elapsed();
  const hsbp::graph::MmapGraph mapped(input.csr_path);
  run.layer("graph.mmap_open_s", run.elapsed() - t0, "s");
  run.layer("graph.csr_bytes", static_cast<double>(mapped.file_bytes()),
            "bytes");
  run.tally().check(mapped.num_vertices() == graph.num_vertices() &&
                        mapped.num_edges() == graph.num_edges(),
                    "binary CSR round trip changed V or E");
  return input;
}

}  // namespace perfbench
