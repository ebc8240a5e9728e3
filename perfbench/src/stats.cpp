#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>

namespace perfbench {

namespace {

/// Nearest rank of the p-th percentile in a sample of n: the smallest
/// count with at least p% of the sample at or below it. The epsilon
/// keeps 99.9% of 10000 at 9990, not 9991.
std::size_t nearest_rank(double p, std::size_t n) {
  return static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    throw std::invalid_argument("percentile of an empty sample");
  }
  const std::size_t rank =
      std::clamp<std::size_t>(nearest_rank(p, sorted.size()), 1, sorted.size());
  return sorted[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double tail_percentile_for(std::size_t n) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (const double p : kLadder) {
    // Samples strictly above the nearest-rank p-th percentile.
    const std::size_t rank = nearest_rank(p, n);
    if (n >= rank && n - rank >= 10) return p;
  }
  return 0.0;
}

Summary summarize(std::vector<double> values) {
  Summary summary;
  summary.count = values.size();
  if (values.empty()) return summary;
  std::sort(values.begin(), values.end());
  summary.median = median(values);
  summary.max = values.back();
  summary.tail_pct = tail_percentile_for(values.size());
  summary.tail_value = summary.tail_pct > 0.0
                           ? percentile_sorted(values, summary.tail_pct)
                           : summary.median;
  return summary;
}

std::vector<double> window_percentiles(
    const std::vector<std::pair<double, double>>& samples, double start_s,
    double width_s, double p, std::size_t min_count) {
  std::map<long long, std::vector<double>> windows;
  for (const auto& [time, value] : samples) {
    windows[static_cast<long long>(std::floor((time - start_s) / width_s))]
        .push_back(value);
  }
  std::vector<double> out;
  for (auto& [index, values] : windows) {
    if (values.size() < min_count) continue;
    std::sort(values.begin(), values.end());
    out.push_back(percentile_sorted(values, p));
  }
  return out;
}

bool step_holds(std::vector<double> latencies_s, double end_late_s,
                double limit_s) {
  if (latencies_s.empty() || !(end_late_s <= limit_s)) return false;
  std::sort(latencies_s.begin(), latencies_s.end());
  return percentile_sorted(latencies_s, 99.0) <= limit_s;
}

double RateLadder::next() const {
  if (retry_ != 0.0) return retry_;
  if (hi_ == 0.0) return std::max(lo_, floor_) * growth_;
  if (lo_ == 0.0) return hi_ / growth_;
  return std::sqrt(lo_ * hi_);
}

void RateLadder::record(double rate, bool held) {
  const bool retried = retry_ == rate;
  retry_ = 0.0;
  if (held) {
    lo_ = std::max(lo_, rate);
    if (hi_ != 0.0 && lo_ >= hi_) hi_ = 0.0;  // the failure was noise
  } else if (!retried) {
    retry_ = rate;
  } else {
    hi_ = hi_ == 0.0 ? rate : std::min(hi_, rate);
    if (lo_ >= hi_) lo_ = hi_ / growth_;  // back off below the failure
  }
}

bool FailureTally::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (messages_.size() < 20) messages_.push_back(what);
  }
  return ok;
}

double FailureTally::error_frac() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string result_json(const FailureTally& tally, const MetricMap& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.failed() == 0 && tally.attempted() > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted());
  out += ", \"failed\": " + std::to_string(tally.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_string(metric.unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
