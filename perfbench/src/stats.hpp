/// \file stats.hpp
/// \brief The benchmark's own measurement helpers: the percentile rule,
/// open-loop scheduling (latency timed from each request's due time),
/// failure counting, and the JSON output of one run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending-sorted sample, p in [0, 100].
/// \pre !sorted.empty().
double percentile_sorted(const std::vector<double>& sorted, double p);

/// Median of an unsorted sample (mean of the middle pair when even);
/// NaN for an empty one.
double median(std::vector<double> values);

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} that leaves at
/// least ten samples above it in a sample of `n`; 0 when even the median
/// has fewer beyond it.
double tail_percentile_for(std::size_t n);

/// A timing distribution as the benchmark reports it: median, the
/// highest percentile the sample supports, and the sample count.
struct Summary {
  std::size_t count = 0;
  double median = 0.0;
  double tail_pct = 0.0;    ///< 0 when the sample supports no tail
  double tail_value = 0.0;  ///< value at tail_pct (median when none)
  double max = 0.0;
};
Summary summarize(std::vector<double> values);

/// The p-th percentile of each window of `width_s` seconds, counted from
/// `start_s`, of (time, value) samples, in window order. Windows holding
/// fewer than `min_count` samples are left out.
std::vector<double> window_percentiles(
    const std::vector<std::pair<double, double>>& samples, double start_s,
    double width_s, double p, std::size_t min_count);

/// Open-loop arrival schedule: request i of a stream offered at `rate`
/// per second is due at start + i / rate, whatever happened to the
/// requests before it.
struct OpenLoopSchedule {
  double start_s = 0.0;
  double rate = 1.0;
  double due(std::uint64_t i) const {
    return start_s + static_cast<double>(i) / rate;
  }
};

/// One timed request of an open loop, all times in seconds on one clock.
struct TimedRequest {
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  /// What the user waits: from when the request was due (not when the
  /// generator got round to sending it) to its reply.
  double latency_s() const { return done_s - due_s; }
  /// How late the generator sent it.
  double late_s() const { return sent_s - due_s; }
};

/// Whether one open-loop step held its offered rate: its p99 latency
/// (timed from due time; a dropped or failed read counts as infinite)
/// stays within `limit_s`, and the generator's lateness at the end of
/// the step, `end_late_s`, does too — no growing backlog.
bool step_holds(std::vector<double> latencies_s, double end_late_s,
                double limit_s);

/// The search behind serve.query_max_rps: grows the offered rate by `growth`
/// from `floor` until a step fails, then bisects (geometrically) between
/// the highest rate held and the lowest that failed. A failure counts
/// only when a retry at the same rate fails too, so one stall of the
/// host does not end the climb.
class RateLadder {
 public:
  RateLadder(double floor, double growth) : floor_(floor), growth_(growth) {}
  /// The rate to offer next.
  double next() const;
  /// Records a step's outcome at `rate`.
  void record(double rate, bool held);
  /// Highest rate held so far (0 when none).
  double max_held() const { return lo_; }

 private:
  double floor_;
  double growth_;
  double lo_ = 0.0;
  double hi_ = 0.0;     ///< lowest confirmed failure; 0: none yet
  double retry_ = 0.0;  ///< a first failure awaiting its retry; 0: none
};

/// Counts attempted and failed output checks. Every check of a run goes
/// through here, so error_frac and the result's attempted/failed fields
/// come from one place. The first few failure messages are kept.
class FailureTally {
 public:
  /// Records one attempted check; returns `ok` for chaining.
  bool check(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// failed ÷ attempted (0 when nothing was attempted).
  double error_frac() const;
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// A named metric with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// JSON number with every digit of a double (non-finite → null).
std::string json_number(double value);
/// JSON string literal with the needed escapes.
std::string json_string(const std::string& text);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const FailureTally& tally, const MetricMap& metrics);

}  // namespace perfbench
