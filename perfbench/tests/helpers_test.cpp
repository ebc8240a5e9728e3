// Tests of the benchmark's own helpers: the percentile rule and its
// sample counts, windowed percentiles, latency timed from due time, the step and ladder rules
// behind serve.query_max_rps, failure counting and span self time. Built with
// -DPERFBENCH_TESTS=ON; `python3 perfbench/run.py --self-test` runs them.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> values;
  for (int i = 1; i <= n; ++i) values.push_back(i);
  return values;
}

TEST(Percentile, NearestRank) {
  const auto values = one_to(100);
  EXPECT_EQ(percentile_sorted(values, 50), 50);
  EXPECT_EQ(percentile_sorted(values, 99), 99);
  EXPECT_EQ(percentile_sorted(values, 100), 100);
  EXPECT_EQ(percentile_sorted(values, 0), 1);
  EXPECT_EQ(percentile_sorted({7.0}, 99), 7.0);
  EXPECT_THROW(percentile_sorted({}, 50), std::invalid_argument);
}

TEST(Percentile, MedianOfEvenAndOddSamples) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_TRUE(std::isnan(median({})));
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(tail_percentile_for(10000), 99.9);
  EXPECT_EQ(tail_percentile_for(1000), 99.0);  // exactly 10 beyond p99
  EXPECT_EQ(tail_percentile_for(999), 95.0);   // only 9 beyond p99
  EXPECT_EQ(tail_percentile_for(200), 95.0);
  EXPECT_EQ(tail_percentile_for(100), 90.0);
  EXPECT_EQ(tail_percentile_for(20), 50.0);
  EXPECT_EQ(tail_percentile_for(19), 0.0);  // no tail is supported
  EXPECT_EQ(tail_percentile_for(0), 0.0);
}

TEST(Percentile, SummaryReportsTailAndCount) {
  const Summary big = summarize(one_to(1000));
  EXPECT_EQ(big.count, 1000u);
  EXPECT_EQ(big.median, 500.5);
  EXPECT_EQ(big.tail_pct, 99.0);
  EXPECT_EQ(big.tail_value, 990);
  EXPECT_EQ(big.max, 1000);
  const Summary small = summarize({5, 1, 3});
  EXPECT_EQ(small.tail_pct, 0.0);
  EXPECT_EQ(small.tail_value, small.median);
}

TEST(Percentile, WindowsSplitByTimeAndDropThinOnes) {
  // Windows of 0.1 s from t = 1: [1, 1.1) holds 1..100 with one stall,
  // [1.1, 1.2) holds 100 fast samples, [1.2, 1.3) only 5 (left out).
  std::vector<std::pair<double, double>> samples;
  for (int i = 0; i < 100; ++i) {
    samples.emplace_back(1.0 + i * 0.001, i == 50 ? 1000.0 : i + 1.0);
    samples.emplace_back(1.1 + i * 0.001, 2.0);
  }
  for (int i = 0; i < 5; ++i) samples.emplace_back(1.25, 9.0);
  const auto p99 = window_percentiles(samples, 1.0, 0.1, 99.0, 10);
  ASSERT_EQ(p99.size(), 2u);
  EXPECT_EQ(p99[0], 100.0);  // the stall is the window's maximum
  EXPECT_EQ(p99[1], 2.0);
  EXPECT_EQ(window_percentiles(samples, 1.0, 0.1, 99.0, 200).size(), 0u);
}

TEST(OpenLoop, RequestsAreDueOnScheduleWhateverHappenedBefore) {
  const OpenLoopSchedule schedule{2.0, 100.0};
  EXPECT_DOUBLE_EQ(schedule.due(0), 2.0);
  EXPECT_DOUBLE_EQ(schedule.due(50), 2.5);
}

TEST(OpenLoop, LatencyIsTimedFromDueTimeNotSendTime) {
  // A stall made the generator send 0.5 s late; the reply took 0.1 s.
  TimedRequest request;
  request.due_s = 1.0;
  request.sent_s = 1.5;
  request.done_s = 1.6;
  EXPECT_DOUBLE_EQ(request.latency_s(), 0.6);
  EXPECT_DOUBLE_EQ(request.late_s(), 0.5);
}

TEST(StepRule, HoldsOnlyUnderTheLimitWithoutBacklog) {
  std::vector<double> fast(1000, 0.001);
  EXPECT_TRUE(step_holds(fast, 0.0, 0.020));
  EXPECT_FALSE(step_holds(fast, 0.030, 0.020));  // generator fell behind
  EXPECT_FALSE(step_holds({}, 0.0, 0.020));
  // 1% of the reads at the limit keeps p99 at it; 2% over breaks it.
  auto tail = fast;
  for (int i = 0; i < 10; ++i) tail[static_cast<std::size_t>(i)] = 0.020;
  EXPECT_TRUE(step_holds(tail, 0.0, 0.020));
  for (int i = 0; i < 20; ++i) tail[static_cast<std::size_t>(i)] = 0.5;
  EXPECT_FALSE(step_holds(tail, 0.0, 0.020));
}

TEST(StepRule, FailedReadsCountAsMissingTheLimit) {
  std::vector<double> latencies(1000, 0.001);
  const double failed = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 11; ++i) latencies[static_cast<std::size_t>(i)] = failed;
  EXPECT_FALSE(step_holds(latencies, 0.0, 0.020));
}

TEST(RateLadder, GrowsThenBisects) {
  RateLadder ladder(1000, 4);
  EXPECT_EQ(ladder.next(), 4000);
  ladder.record(4000, true);
  EXPECT_EQ(ladder.next(), 16000);
  ladder.record(16000, false);
  EXPECT_EQ(ladder.next(), 16000);  // a failure is retried once
  ladder.record(16000, false);
  EXPECT_EQ(ladder.next(), 8000);  // geometric midpoint of 4000 and 16000
  ladder.record(8000, true);
  EXPECT_EQ(ladder.max_held(), 8000);
  EXPECT_NEAR(ladder.next(), std::sqrt(8000.0 * 16000.0), 1e-9);
}

TEST(RateLadder, AStepThatHoldsOnRetryKeepsClimbing) {
  RateLadder ladder(1000, 4);
  ladder.record(4000, false);
  EXPECT_EQ(ladder.next(), 4000);
  ladder.record(4000, true);
  EXPECT_EQ(ladder.max_held(), 4000);
  EXPECT_EQ(ladder.next(), 16000);
}

TEST(RateLadder, ConfirmedFailureAtTheFirstRateBacksOff) {
  RateLadder ladder(1000, 4);
  ladder.record(4000, false);
  ladder.record(4000, false);
  EXPECT_EQ(ladder.max_held(), 0);
  EXPECT_EQ(ladder.next(), 1000);
  ladder.record(1000, true);
  ladder.record(2000, true);  // a hold above a confirmed failure reopens it
  EXPECT_EQ(ladder.max_held(), 2000);
}

TEST(FailureTally, CountsEveryCheck) {
  FailureTally tally;
  EXPECT_EQ(tally.error_frac(), 0.0);
  EXPECT_TRUE(tally.check(true, "fine"));
  EXPECT_FALSE(tally.check(false, "broken"));
  tally.check(true, "fine");
  tally.check(true, "fine");
  EXPECT_EQ(tally.attempted(), 4u);
  EXPECT_EQ(tally.failed(), 1u);
  EXPECT_DOUBLE_EQ(tally.error_frac(), 0.25);
  ASSERT_EQ(tally.messages().size(), 1u);
  EXPECT_EQ(tally.messages()[0], "broken");
  for (int i = 0; i < 50; ++i) tally.check(false, "again");
  EXPECT_EQ(tally.failed(), 51u);
  EXPECT_EQ(tally.messages().size(), 20u);  // messages are capped
}

TEST(ResultLine, CarriesTheTallyAndEveryMetric) {
  FailureTally tally;
  tally.check(true, "ok");
  MetricMap metrics;
  metrics["fit_s"] = Metric{1.25, "s"};
  EXPECT_EQ(result_json(tally, metrics),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
            "\"metrics\": {\"fit_s\": {\"value\": 1.25, \"unit\": \"s\"}}}");
  tally.check(false, "bad");
  EXPECT_NE(result_json(tally, metrics).find("\"correct\": false"),
            std::string::npos);
  EXPECT_EQ(result_json(FailureTally{}, {}).find("\"correct\": true"),
            std::string::npos);  // nothing checked is not correct
}

TEST(ResultLine, NumbersKeepAllTheirDigits) {
  EXPECT_EQ(std::stod(json_number(0.1 + 0.2)), 0.1 + 0.2);
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  // parent [0, 10] with children [1, 4] and [3, 6] (overlapping) and
  // [9, 12] (running past the parent's end).
  const std::vector<SpanRecord> spans = {
      {"parent", 0, 10, 1, 0, 1},
      {"child", 1, 4, 2, 1, 1},
      {"child", 3, 6, 3, 1, 1},
      {"child", 9, 12, 4, 1, 1},
  };
  const auto self = self_seconds(spans);
  EXPECT_DOUBLE_EQ(self.at("parent"), 10 - 5 - 1);
  EXPECT_DOUBLE_EQ(self.at("child"), 3 + 3 + 3);
}

TEST(Spans, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  {
    const Span root(tracer, "fit");
    const Span child(root, "sbp.mcmc");
  }
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Spans, ChildrenShareTheirRootId) {
  Tracer tracer(true);
  {
    const Span root(tracer, "fit");
    const Span child(root, "sbp.mcmc");
    const Span grandchild(child, "inner");
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  for (const auto& span : spans) EXPECT_EQ(span.root, spans.back().id);
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[1].parent, spans[2].id);
}

}  // namespace
}  // namespace perfbench
