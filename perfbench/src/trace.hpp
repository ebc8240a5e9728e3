/// \file trace.hpp
/// \brief In-memory spans recorded by the benchmark around its calls into
/// the library's public functions (traced runs only).
///
/// A span has a name, a start, an end, the span that caused it and the id
/// of the root span of its fit or request, so all spans of one fit share
/// an identifier. Spans stay in memory while the run measures and are
/// written once, at the end, as Chrome trace-event JSON. With tracing off
/// a Span does nothing but test one flag.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start_s = 0.0;  ///< seconds since the tracer was created
  double end_s = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::uint64_t root = 0;    ///< id of the root span of this fit/request
};

class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }
  /// Seconds since construction on the steady clock.
  double now() const;

  std::uint64_t next_id();
  void record(SpanRecord span);

  /// Every span recorded so far, in end order.
  std::vector<SpanRecord> spans() const;

 private:
  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::uint64_t last_id_ = 0;
  std::vector<SpanRecord> spans_;
};

/// RAII span: opened on construction, recorded on destruction.
class Span {
 public:
  /// A root span (one fit, one request).
  Span(Tracer& tracer, const char* name);
  /// A child of `parent`, sharing its root.
  Span(const Span& parent, const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t root_ = 0;
  double start_s_ = 0.0;
};

/// Self time per span name: each span's duration minus the part of it
/// that its child spans cover, summed over spans of that name.
std::map<std::string, double> self_seconds(
    const std::vector<SpanRecord>& spans);

/// Writes `spans` as a Chrome trace-event JSON file (viewable in
/// chrome://tracing or Perfetto). \throws std::runtime_error on I/O
/// failure.
void write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans);

}  // namespace perfbench
