/// \file workload_serve.cpp
/// \brief The serve phase shared by the workloads, and the serve_mixed
/// workload: reads in an open loop beside INGEST-triggered warm refits.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "generator/dcsbm.hpp"
#include "metrics/metrics.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/refit.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
constexpr const char* kGraphName = "g";
constexpr double kInf = std::numeric_limits<double>::infinity();

enum class ReadVerb : std::uint8_t { Epoch, Member, Community, Modularity };
constexpr const char* kVerbNames[] = {"epoch", "member", "community",
                                      "modularity"};

/// One read of the open loop. `value` is the epoch of an EPOCH reply or
/// the label of a MEMBER reply.
struct ReadRecord {
  TimedRequest time;
  std::int32_t step = 0;
  std::int32_t vertex = 0;
  std::int64_t value = 0;
  ReadVerb verb = ReadVerb::Epoch;
  bool sent = false;  ///< false: dropped, the generator was too far behind
  bool ok = false;
  /// Latency as the limit sees it: a dropped or failed read never meets it.
  double latency_s() const { return sent && ok ? time.latency_s() : kInf; }
};

/// Base steps offer kBaseRate while INGESTs arrive; one rest step
/// offers it again once the last refit has published, so reads see every
/// batch; ladder steps (traced runs) search for the highest rate held.
enum class Phase : std::uint8_t { Base, Rest, Ladder };
constexpr const char* kPhaseNames[] = {"base", "rest", "ladder"};

struct Step {
  OpenLoopSchedule schedule;
  double end_s = 0.0;
  Phase phase = Phase::Base;
};

/// Hands the step plan to the readers one step at a time (a ladder
/// step's rate depends on how the previous one went) and collects each
/// step's latencies back.
class StepBoard {
 public:
  explicit StepBoard(int readers) : readers_(readers) {}

  void publish(const Step& step) {
    std::lock_guard<std::mutex> lock(mutex_);
    steps_.push_back(step);
    latencies_.emplace_back();
    end_late_.push_back(0.0);
    reported_.push_back(0);
    cv_.notify_all();
  }
  /// Blocks until step `s` is published; nullopt once closed.
  std::optional<Step> wait_step(std::size_t s) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return closed_ || steps_.size() > s; });
    if (steps_.size() > s) return steps_[s];
    return std::nullopt;
  }
  void close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    cv_.notify_all();
  }
  void report(std::size_t s, const std::vector<double>& latencies,
              double end_late) {
    std::lock_guard<std::mutex> lock(mutex_);
    latencies_[s].insert(latencies_[s].end(), latencies.begin(),
                         latencies.end());
    end_late_[s] = std::max(end_late_[s], end_late);
    ++reported_[s];
    cv_.notify_all();
  }
  /// Whether every reader reported step `s`.
  bool reported(std::size_t s) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return reported_[s] == readers_;
  }
  /// Whether step `s` held its rate; a step some reader has not reported
  /// did not.
  bool held(std::size_t s, double limit_s) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return reported_[s] == readers_ &&
           step_holds(latencies_[s], end_late_[s], limit_s);
  }
  Step step(std::size_t s) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return steps_[s];
  }
  std::vector<Step> steps() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return steps_;
  }

 private:
  const int readers_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Step> steps_;
  std::vector<std::vector<double>> latencies_;
  std::vector<double> end_late_;
  std::vector<int> reported_;
  bool closed_ = false;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Clock::time_point at(Clock::time_point t0, double s) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(s));
}

/// First integer token after "OK ".
std::optional<std::int64_t> ok_value(const std::string& reply) {
  if (!hsbp::serve::is_ok(reply) || reply.size() < 4) return std::nullopt;
  char* end = nullptr;
  const long long value = std::strtoll(reply.c_str() + 3, &end, 10);
  if (end == reply.c_str() + 3) return std::nullopt;
  return value;
}

std::uint64_t field_of(const std::string& reply, const std::string& key) {
  const auto pos = reply.find(key + "=");
  return pos == std::string::npos
             ? 0
             : std::strtoull(reply.c_str() + pos + key.size() + 1, nullptr,
                             10);
}

struct ReaderArgs {
  std::string socket;
  int connection = 0;
  int connections = 1;
  Clock::time_point t0;
  double limit_s = 0.0;
  std::int32_t vertices = 0;
  std::uint64_t seed = 0;
};

struct ReaderOut {
  std::vector<ReadRecord> reads;
  std::string error;  ///< what stopped the reader early, if anything
};

/// One read connection: request j of a step is request j * connections
/// + c of the step's schedule. The verbs rotate EPOCH, MEMBER,
/// COMMUNITY, MODULARITY, so each MEMBER sits between two EPOCH reads.
void read_steps(Run& run, StepBoard& board, const ReaderArgs& args,
                std::vector<ReadRecord>& out) {
  hsbp::serve::Client client = hsbp::serve::Client::connect_unix(args.socket);
  hsbp::util::Rng rng(args.seed * std::uint64_t{1000003} +
                      static_cast<std::uint64_t>(args.connection));
  const std::string graph = kGraphName;
  std::uint64_t k = 0;
  for (std::size_t s = 0;; ++s) {
    const std::optional<Step> step = board.wait_step(s);
    if (!step.has_value()) return;
    std::vector<double> latencies;
    double end_late = 0.0;
    for (std::uint64_t j = 0;; ++j) {
      ReadRecord record;
      record.time.due_s = step->schedule.due(
          j * static_cast<std::uint64_t>(args.connections) +
          static_cast<std::uint64_t>(args.connection));
      if (record.time.due_s >= step->end_s) break;
      record.step = static_cast<std::int32_t>(s);
      record.verb = static_cast<ReadVerb>(k++ % 4);
      std::string payload;
      switch (record.verb) {
        case ReadVerb::Epoch: payload = "EPOCH " + graph; break;
        case ReadVerb::Member:
          record.vertex = static_cast<std::int32_t>(
              rng.uniform_int(static_cast<std::uint64_t>(args.vertices)));
          payload = "MEMBER " + graph + " " + std::to_string(record.vertex);
          break;
        case ReadVerb::Community:
          payload = "COMMUNITY " + graph + " " + std::to_string(k % 2);
          break;
        case ReadVerb::Modularity: payload = "MODULARITY " + graph; break;
      }
      std::this_thread::sleep_until(at(args.t0, record.time.due_s));
      record.time.sent_s = seconds_since(args.t0);
      // Past the step's end by more than the limit, the generator cannot
      // catch up: drop the read, which then misses every limit.
      record.sent = record.time.sent_s < step->end_s + args.limit_s;
      if (record.sent) {
        std::optional<std::string> reply;
        {
          const Span span(run.tracer(),
                          kVerbNames[static_cast<int>(record.verb)]);
          reply = client.request(payload, /*timeout_ms=*/5000);
        }
        record.time.done_s = seconds_since(args.t0);
        if (!reply.has_value()) {
          client.reconnect();
        } else if (record.verb == ReadVerb::Epoch ||
                   record.verb == ReadVerb::Member) {
          const auto value = ok_value(*reply);
          record.ok = value.has_value();
          record.value = value.value_or(-1);
        } else {
          record.ok = hsbp::serve::is_ok(*reply);
        }
      }
      latencies.push_back(record.latency_s());
      // The last tenth of the step shows whether a backlog grew.
      if (record.time.due_s >=
          step->end_s - 0.1 * (step->end_s - step->schedule.start_s)) {
        end_late =
            std::max(end_late, record.sent ? record.time.late_s() : kInf);
      }
      out.push_back(record);
    }
    board.report(s, latencies, end_late);
  }
}

/// Thread entry of a read connection.
void reader(Run& run, StepBoard& board, const ReaderArgs& args,
            ReaderOut& out) {
  // Wake at due times to the microsecond, not the default 50 us slack.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  try {
    read_steps(run, board, args, out.reads);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
}

double p99_ms(std::vector<double> latencies_s) {
  if (latencies_s.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(latencies_s.begin(), latencies_s.end());
  return percentile_sorted(latencies_s, 99.0) * 1e3;
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_number(values[i]);
  }
  return out + "]";
}

}  // namespace

ServeHandle start_server(const ServePlan& plan, const std::string& dir) {
  std::filesystem::create_directories(dir);
  ServeHandle handle;
  handle.dir = dir;
  // A Unix socket, as `hsbp serve --socket` uses. The path is relative
  // to the working directory: absolute checkout paths can exceed the
  // 108-byte sun_path limit.
  handle.socket = std::filesystem::relative(dir).string() + "/hsbpd.sock";
  hsbp::serve::ServeOptions options;
  options.socket_path = handle.socket;
  options.refit.base = plan.fit;
  options.refit.checkpoint_dir = dir;
  options.max_sessions = 16;
  // Room for every batch of the phase: a slow refit must not turn the
  // workload into a backpressure test, where refused INGESTs would count
  // as failures.
  options.max_pending_batches = ingest_count(plan) + 1;
  if (!plan.initial.empty()) {
    // Serve the fitted partition: persist it where the daemon's resume
    // path looks, as `hsbp serve --resume` would find it.
    const auto snapshot = hsbp::serve::make_snapshot(
        plan.graph, plan.initial, plan.initial_blocks, plan.initial_mdl, 1);
    hsbp::serve::persist_snapshot(dir, kGraphName, *snapshot, nullptr);
    options.resume = true;
  }
  handle.server = std::make_unique<hsbp::serve::Server>(options);
  handle.server->add_graph(kGraphName, *plan.graph);
  handle.server->start();
  return handle;
}

std::shared_ptr<const hsbp::serve::Snapshot> run_serve_phase(
    Run& run, ServeHandle handle, const ServePlan& plan) {
  hsbp::serve::Server& server = *handle.server;
  hsbp::serve::GraphStore* store = server.registry().find(kGraphName);
  const int connections = std::max(1, run.options().nproc - 1);
  const double limit_s = run.options().latency_limit_ms * 1e-3;
  const auto initial = store->acquire();

  const Clock::time_point t0 = Clock::now();
  StepBoard board(connections);
  ReaderArgs args;
  args.socket = handle.socket;
  args.connections = connections;
  args.t0 = t0;
  args.limit_s = limit_s;
  args.vertices = static_cast<std::int32_t>(initial->graph->num_vertices());
  args.seed = run.options().seed;
  std::vector<ReaderOut> outs(static_cast<std::size_t>(connections));
  std::vector<std::thread> readers;
  for (int c = 0; c < connections; ++c) {
    args.connection = c;
    readers.emplace_back(reader, std::ref(run), std::ref(board), args,
                         std::ref(outs[static_cast<std::size_t>(c)]));
  }

  // The INGESTs go out on their own connection from a thread of their
  // own, so a slow acknowledgement never pauses the snapshot watch below.
  struct Ingest {
    double sent_s = 0.0;
    double ack_s = 0.0;
    std::optional<std::string> reply;
    std::int64_t edges_after = 0;  ///< served edge count once applied
  };
  std::vector<Ingest> sent(plan.batches.size());
  std::string ingest_error;
  // Served edge count once every acknowledged batch is applied; -1 while
  // the ingester runs.
  std::atomic<std::int64_t> edges_ingested{-1};
  std::thread ingester([&] {
    std::int64_t edges = initial->graph->num_edges();
    try {
      hsbp::serve::Client client =
          hsbp::serve::Client::connect_unix(handle.socket);
      for (std::size_t b = 0; b < plan.batches.size(); ++b) {
        std::this_thread::sleep_until(at(t0, ingest_due(b)));
        Ingest& ingest = sent[b];
        ingest.sent_s = seconds_since(t0);
        {
          const Span span(run.tracer(), "ingest");
          ingest.reply = client.request(
              hsbp::serve::format_ingest(kGraphName, plan.batches[b]), 5000);
        }
        ingest.ack_s = seconds_since(t0);
        if (ingest.reply.has_value() && hsbp::serve::is_ok(*ingest.reply)) {
          edges += static_cast<std::int64_t>(plan.batches[b].size());
        }
        ingest.edges_after = edges;
      }
    } catch (const std::exception& e) {
      ingest_error = e.what();
    }
    edges_ingested = edges;
  });

  // This thread plans the steps and watches the published snapshots
  // every millisecond; a refit takes far longer, and the epochs seen are
  // checked to be consecutive below. The base steps run back to back
  // while the INGESTs arrive. A ladder step's rate depends on how the
  // previous one went, so it starts once that one's readers reported,
  // after a settle gap.
  const int rest_step = plan.base_steps;
  const int total_steps = plan.base_steps + 1 + plan.ladder_steps;
  RateLadder ladder(kBaseRate, kLadderGrowth);
  double next_start = kServeStartSeconds;
  int published = 0;
  std::map<std::uint64_t, std::shared_ptr<const hsbp::serve::Snapshot>>
      epochs;
  epochs[initial->epoch] = initial;
  std::size_t queue_depth_max = 0;
  const auto watch = [&] {
    const auto snapshot = store->acquire();
    epochs.emplace(snapshot->epoch, snapshot);
    queue_depth_max = std::max(queue_depth_max, store->pending_batches());
  };
  // A step whose readers never report (stuck requests) counts as failed
  // a second after it should have ended.
  const auto settled = [&](std::size_t s, double now) {
    return board.reported(s) || now >= board.step(s).end_s + limit_s + 1.0;
  };
  for (;;) {
    const double now = seconds_since(t0);
    if (published < total_steps) {
      const bool climbing = published > rest_step;
      bool ready = now >= next_start - 0.1 * kStepSeconds;
      // The rest step starts once the last refit has published every
      // acknowledged batch (or 30 s after the last base step, so a lost
      // batch cannot stall the run).
      if (ready && published == rest_step) {
        const std::int64_t edges = edges_ingested;
        ready = (edges >= 0 &&
                 store->acquire()->graph->num_edges() >= edges) ||
                now >= next_start + 30.0;
        if (ready) next_start = now;
      }
      if (ready && climbing && published > rest_step + 1) {
        const auto previous = static_cast<std::size_t>(published - 1);
        ready = settled(previous, now);
        if (ready) {
          ladder.record(board.step(previous).schedule.rate,
                        board.held(previous, limit_s));
        }
      }
      if (ready) {
        Step step;
        step.schedule.start_s = std::max(next_start, now + 0.01);
        step.end_s = step.schedule.start_s +
                     (climbing ? kLadderStepSeconds : kStepSeconds);
        step.phase = climbing                ? Phase::Ladder
                     : published == rest_step ? Phase::Rest
                                              : Phase::Base;
        step.schedule.rate = climbing ? ladder.next() : kBaseRate;
        board.publish(step);
        next_start = step.end_s + (climbing ? kSettleSeconds : 0.0);
        ++published;
      }
    } else if (settled(static_cast<std::size_t>(total_steps - 1), now)) {
      break;
    }
    watch();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto last = static_cast<std::size_t>(total_steps - 1);
  if (board.step(last).phase == Phase::Ladder) {
    ladder.record(board.step(last).schedule.rate, board.held(last, limit_s));
  }
  board.close();
  for (auto& thread : readers) thread.join();
  ingester.join();
  const std::vector<Step> steps = board.steps();
  std::vector<std::vector<ReadRecord>> reads;
  for (ReaderOut& out : outs) {
    run.tally().check(out.error.empty(), "reader stopped: " + out.error);
    reads.push_back(std::move(out.reads));
  }
  run.tally().check(ingest_error.empty(), "ingester stopped: " + ingest_error);

  std::vector<Ingest> ingests;  // the acknowledged ones
  for (std::size_t b = 0; b < sent.size(); ++b) {
    if (run.tally().check(
            sent[b].reply.has_value() && hsbp::serve::is_ok(*sent[b].reply),
            "INGEST " + std::to_string(b) +
                " refused: " + sent[b].reply.value_or("(hangup)"))) {
      ingests.push_back(sent[b]);
    }
  }
  const std::int64_t edges_after =
      ingests.empty() ? initial->graph->num_edges()
                      : ingests.back().edges_after;
  // Every acknowledged batch must be published; the last refit gets a
  // bounded grace period.
  const double grace_end = seconds_since(t0) + 30.0;
  while (store->acquire()->graph->num_edges() < edges_after &&
         seconds_since(t0) < grace_end) {
    watch();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  watch();
  const auto final_snapshot = store->acquire();
  run.tally().check(final_snapshot->graph->num_edges() == edges_after,
                    "acknowledged INGEST batches were not all published");
  // Each publish adds one to the epoch, so a gap means the watch missed a
  // snapshot, and the MEMBER checks below could not be trusted.
  const std::uint64_t last_epoch = epochs.rbegin()->first;
  run.tally().check(last_epoch - initial->epoch + 1 == epochs.size(),
                    "the watch missed a published epoch");

  std::uint64_t shed = 0;
  std::uint64_t timeouts = 0;
  hsbp::serve::Client control =
      hsbp::serve::Client::connect_unix(handle.socket);
  const auto health = control.request("HEALTH", 5000);
  if (run.tally().check(health.has_value() && hsbp::serve::is_ok(*health),
                        "HEALTH failed")) {
    shed = field_of(*health, "shed");
    timeouts = field_of(*health, "timeouts");
  }
  control.close();

  // ---- output checks: every reply OK, and each MEMBER answer is the
  // label its vertex had in an epoch between the EPOCH replies read just
  // before and just after it on the same connection.
  for (const auto& conn : reads) {
    std::uint64_t before = initial->epoch;
    for (std::size_t i = 0; i < conn.size(); ++i) {
      const ReadRecord& r = conn[i];
      if (!r.sent) continue;
      if (!run.tally().check(
              r.ok, std::string(kVerbNames[static_cast<int>(r.verb)]) +
                        " read failed")) {
        continue;
      }
      if (r.verb == ReadVerb::Epoch) {
        before = static_cast<std::uint64_t>(r.value);
      }
      if (r.verb != ReadVerb::Member) continue;
      std::uint64_t after = last_epoch;
      for (std::size_t j = i + 1; j < conn.size(); ++j) {
        if (conn[j].verb == ReadVerb::Epoch && conn[j].ok) {
          after = static_cast<std::uint64_t>(conn[j].value);
          break;
        }
      }
      bool match = false;
      for (auto it = epochs.lower_bound(before);
           it != epochs.end() && it->first <= after && !match; ++it) {
        match = it->second->assignment[static_cast<std::size_t>(r.vertex)] ==
                r.value;
      }
      run.tally().check(match, "MEMBER reply matches no epoch it could read");
    }
  }

  // ---- refit lag: INGEST ack until an EPOCH read sent after it first
  // shows an epoch holding the batch.
  std::vector<ReadRecord> epoch_reads;
  for (const auto& conn : reads) {
    std::copy_if(conn.begin(), conn.end(), std::back_inserter(epoch_reads),
                 [](const ReadRecord& r) {
                   return r.verb == ReadVerb::Epoch && r.sent && r.ok;
                 });
  }
  std::sort(epoch_reads.begin(), epoch_reads.end(),
            [](const ReadRecord& a, const ReadRecord& b) {
              return a.time.done_s < b.time.done_s;
            });
  std::vector<double> lags;
  std::vector<double> acks_ms;
  std::vector<std::pair<double, double>> refit_windows;  // ack → visible
  for (std::size_t b = 0; b < ingests.size(); ++b) {
    const Ingest& ingest = ingests[b];
    acks_ms.push_back((ingest.ack_s - ingest.sent_s) * 1e3);
    std::uint64_t holding = 0;
    for (const auto& [epoch, snapshot] : epochs) {
      if (snapshot->graph->num_edges() >= ingest.edges_after) {
        holding = epoch;
        break;
      }
    }
    const auto seen = std::find_if(
        epoch_reads.begin(), epoch_reads.end(), [&](const ReadRecord& r) {
          return holding != 0 && r.time.sent_s >= ingest.ack_s &&
                 static_cast<std::uint64_t>(r.value) >= holding;
        });
    if (run.tally().check(seen != epoch_reads.end(),
                          "no read saw INGEST batch " + std::to_string(b))) {
      lags.push_back(seen->time.done_s - ingest.ack_s);
      refit_windows.emplace_back(ingest.ack_s, seen->time.done_s);
    }
  }

  // ---- latency from due time, per step; base steps also split by verb
  // and by whether a refit was running; the rest step is idle too
  // (ladder steps overload the daemon on purpose).
  std::vector<double> base_latency;
  std::vector<std::pair<double, double>> base_due_latency;
  std::vector<double> refit_latency;
  std::vector<double> idle_latency;
  std::vector<double> late;
  std::vector<std::vector<double>> per_verb(4);
  std::vector<std::vector<double>> per_step(steps.size());
  for (const auto& conn : reads) {
    for (const ReadRecord& r : conn) {
      const double latency = r.latency_s();
      per_step[static_cast<std::size_t>(r.step)].push_back(latency);
      const Phase phase = steps[static_cast<std::size_t>(r.step)].phase;
      if (phase == Phase::Rest) idle_latency.push_back(latency);
      if (phase != Phase::Base) continue;
      base_latency.push_back(latency);
      base_due_latency.emplace_back(r.time.due_s, latency);
      const bool refitting = std::any_of(
          refit_windows.begin(), refit_windows.end(), [&](const auto& w) {
            return r.time.due_s >= w.first && r.time.due_s < w.second;
          });
      (refitting ? refit_latency : idle_latency).push_back(latency);
      per_verb[static_cast<std::size_t>(r.verb)].push_back(latency);
      if (r.sent) late.push_back(r.time.late_s());
    }
  }
  std::string steps_json = "[";
  for (std::size_t s = 0; s < steps.size(); ++s) {
    steps_json += std::string(s > 0 ? ", " : "") + "{\"rate\": " +
                  json_number(steps[s].schedule.rate) + ", \"phase\": \"" +
                  kPhaseNames[static_cast<int>(steps[s].phase)] +
                  "\", \"reads\": " +
                  std::to_string(per_step[s].size()) + ", \"p99_ms\": " +
                  json_number(p99_ms(per_step[s])) + "}";
  }
  run.detail("serve_steps", steps_json + "]");
  run.detail("refit_lags_s", json_list(lags));

  const Summary base = summarize(base_latency);
  const std::vector<double> window_p99 = window_percentiles(
      base_due_latency, steps.front().schedule.start_s, kWindowSeconds, 99.0,
      static_cast<std::size_t>(kBaseRate * kWindowSeconds / 2));
  const double query_p99_ms = median(window_p99) * 1e3;
  run.layer("serve.query_p50_ms", base.median * 1e3, "ms");
  run.layer("serve.query_p99_ms", query_p99_ms, "ms");
  run.layer("serve.refit_lag_s", median(lags), "s");
  run.detail("refit_lag_s", json_number(median(lags)));
  run.detail("query_latency",
             "{\"n\": " + std::to_string(base.count) + ", \"p50_ms\": " +
                 json_number(base.median * 1e3) + ", \"tail_pct\": " +
                 json_number(base.tail_pct) + ", \"tail_ms\": " +
                 json_number(base.tail_value * 1e3) + ", \"windows\": " +
                 std::to_string(window_p99.size()) +
                 ", \"window_p99_ms\": " + json_number(query_p99_ms) + "}");
  if (plan.ladder_steps > 0) {
    run.layer("serve.query_max_rps", ladder.max_held(), "1/s");
    run.detail("query_max_rps", json_number(ladder.max_held()));
  }

  for (int v = 0; v < 4; ++v) {
    run.layer(std::string("serve.") + kVerbNames[v] + "_p99_us",
              p99_ms(per_verb[static_cast<std::size_t>(v)]) * 1e3, "us");
  }
  run.layer("serve.read_p99_refit_ms", p99_ms(refit_latency), "ms");
  run.layer("serve.read_p99_idle_ms", p99_ms(idle_latency), "ms");
  run.layer("serve.generator_late_ms", p99_ms(late), "ms");
  run.layer("serve.ingest_ack_ms", median(acks_ms), "ms");
  run.layer("serve.refits", static_cast<double>(epochs.size() - 1), "count");
  run.layer("serve.queue_depth_max", static_cast<double>(queue_depth_max),
            "count");
  run.layer("serve.shed", static_cast<double>(shed), "count");
  run.layer("serve.timeouts", static_cast<double>(timeouts), "count");

  // ---- ckpt: timed persists of the final snapshot.
  const std::string probe_dir = handle.dir + "/persist";
  std::filesystem::create_directories(probe_dir);
  std::vector<double> persist_ms;
  for (int i = 0; i < 3; ++i) {
    const double start = run.elapsed();
    hsbp::serve::persist_snapshot(probe_dir, kGraphName, *final_snapshot,
                                  nullptr);
    persist_ms.push_back((run.elapsed() - start) * 1e3);
  }
  run.layer("ckpt.persist_ms", median(persist_ms), "ms");
  run.layer("ckpt.bytes",
            static_cast<double>(std::filesystem::file_size(
                hsbp::serve::checkpoint_path(probe_dir, kGraphName))),
            "bytes");

  handle.server.reset();  // drains the daemon
  return final_snapshot;
}

void workload_serve_mixed(Run& run) {
  const Options& options = run.options();
  ServePlan plan;
  plan.fit.variant = hsbp::sbp::Variant::Hybrid;
  plan.fit.seed = options.seed;
  plan.fit.num_threads = options.nproc;
  plan.base_steps = 36;
  plan.ladder_steps = options.trace ? kLadderSteps : 0;

  // The daemon starts from half the edges (cold-fitted at start); the
  // other half arrives as INGEST batches in random order.
  struct Input {
    GeneratedInput input;
    hsbp::generator::StreamingParts parts;
    ServeHandle server;
  };
  Input kept = repeated_setup(run, [&] {
    Input in;
    in.input = generate_input(run, "S5", 0.01);
    in.parts = hsbp::generator::streaming_snapshots(
        in.input.generated, 2, hsbp::generator::StreamingOrder::EdgeSampling,
        options.seed);
    plan.graph =
        std::make_shared<const hsbp::graph::Graph>(in.parts.snapshots[0]);
    in.server = start_server(plan, options.work_dir + "/serve");
    return in;
  });
  run.begin_measure();

  std::vector<hsbp::graph::Edge> rest = kept.parts.snapshots[1].edges();
  {
    std::vector<hsbp::graph::Edge> first = kept.parts.snapshots[0].edges();
    std::sort(rest.begin(), rest.end());
    std::sort(first.begin(), first.end());
    std::vector<hsbp::graph::Edge> added;
    std::set_difference(rest.begin(), rest.end(), first.begin(), first.end(),
                        std::back_inserter(added));
    rest = std::move(added);
  }
  hsbp::util::Rng rng(options.seed);
  for (std::size_t i = rest.size(); i > 1; --i) {
    std::swap(rest[i - 1], rest[rng.uniform_int(i)]);
  }
  const std::size_t count = ingest_count(plan);
  plan.batches.resize(count);
  for (std::size_t i = 0; i < rest.size(); ++i) {
    plan.batches[i * count / rest.size()].push_back(rest[i]);
  }

  // The fit phase on the served starting graph: the daemon's cold fit,
  // at 1 and at nproc threads.
  const double reserved = serve_seconds(plan) + (options.trace ? 1.0 : 0.0);
  run_fit_phase(run, "fits", *plan.graph, kept.parts.ground_truth, plan.fit,
                std::max(0.0, run.remaining() - reserved));
  // Peak RSS of the daemon with its first snapshot and of the fits; the
  // serve phase's own read records would swamp it.
  run.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  if (options.trace) trace_ooc_layer(run, *plan.graph, plan.fit);

  const auto served = run_serve_phase(run, std::move(kept.server), plan);
  check_partition(run, *served->graph, served->assignment, served->num_blocks,
                  served->mdl, "served snapshot");
  // Quality of what the daemon serves at the end, not of the cold fit.
  run.e2e("nmi",
          hsbp::metrics::nmi(kept.parts.ground_truth, served->assignment),
          "nmi");
  run.e2e("mdl_norm",
          hsbp::metrics::normalized_mdl(served->mdl,
                                        served->graph->num_vertices(),
                                        served->graph->num_edges()),
          "ratio");
}

}  // namespace perfbench
