#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "stats.hpp"

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return ++last_id_;
}

void Tracer::record(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

Span::Span(Tracer& tracer, const char* name) : tracer_(tracer), name_(name) {
  if (!tracer_.enabled()) return;
  id_ = tracer_.next_id();
  root_ = id_;
  start_s_ = tracer_.now();
}

Span::Span(const Span& parent, const char* name)
    : tracer_(parent.tracer_), name_(name) {
  if (!tracer_.enabled()) return;
  id_ = tracer_.next_id();
  parent_ = parent.id_;
  root_ = parent.root_;
  start_s_ = tracer_.now();
}

Span::~Span() {
  if (!tracer_.enabled()) return;
  tracer_.record(
      SpanRecord{name_, start_s_, tracer_.now(), id_, parent_, root_});
}

std::map<std::string, double> self_seconds(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_s, span.end_s);
    }
  }
  std::map<std::string, double> self;
  for (const SpanRecord& span : spans) {
    double covered = 0.0;
    const auto found = children.find(span.id);
    if (found != children.end()) {
      auto intervals = found->second;
      std::sort(intervals.begin(), intervals.end());
      double reach = span.start_s;
      for (auto [start, end] : intervals) {
        start = std::max(start, reach);
        end = std::min(end, span.end_s);
        if (end > start) {
          covered += end - start;
          reach = end;
        }
      }
    }
    self[span.name] += (span.end_s - span.start_s) - covered;
  }
  return self;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    // One track per root, so concurrent requests do not overlap.
    out << "{\"name\": " << json_string(span.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << span.root
        << ", \"ts\": " << json_number(span.start_s * 1e6)
        << ", \"dur\": " << json_number((span.end_s - span.start_s) * 1e6)
        << ", \"args\": {\"id\": " << span.id
        << ", \"parent\": " << span.parent << "}}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

}  // namespace perfbench
