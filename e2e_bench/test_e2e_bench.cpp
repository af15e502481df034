// Unit tests of the benchmark's own arithmetic: the percentile rule, span
// self time, failure counting and the report of the metrics it prints.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "stats.hpp"
#include "tracer.hpp"

namespace qplec::e2e {
namespace {

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 90), 7.0);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile(ramp(11), 90), 10.0);
  EXPECT_DOUBLE_EQ(median(ramp(5)), 3.0);
}

TEST(TailPercentile, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 90), 10u);
  EXPECT_EQ(samples_beyond(99, 90), 9u);
  EXPECT_EQ(samples_beyond(1000, 99), 10u);

  const TailPercentile t100 = tail_percentile(ramp(100));
  EXPECT_EQ(t100.p, 90.0);
  EXPECT_EQ(t100.samples, 100u);
  EXPECT_DOUBLE_EQ(t100.value, percentile(ramp(100), 90));

  EXPECT_EQ(tail_percentile(ramp(99)).p, 50.0);  // p90 would leave only 9 beyond
  EXPECT_EQ(tail_percentile(ramp(1000)).p, 99.0);
  EXPECT_EQ(tail_percentile(ramp(10000)).p, 99.9);

  const TailPercentile few = tail_percentile(ramp(19));
  EXPECT_EQ(few.p, 0.0);  // even the median has only 9 samples beyond it
  EXPECT_EQ(few.samples, 19u);
  EXPECT_EQ(tail_percentile(ramp(20)).p, 50.0);
}

TEST(SelfTime, SubtractsTheUnionOfOverlappingChildren) {
  // Children [1,4] and [3,6] overlap on [3,4]; [8,12] sticks out of the
  // parent.  Covered: [1,6] + [8,10] = 7 of the parent's 10.
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {{8, 12}, {1, 4}, {3, 6}}), 3.0);
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {}), 10.0);
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {{2, 3}, {2, 3}}), 9.0);  // duplicates count once
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {{1, 9}, {2, 3}}), 2.0);  // nested children
  EXPECT_DOUBLE_EQ(self_time({5, 10}, {{0, 4}}), 5.0);          // entirely outside
}

TEST(SelfTime, TracerSpansNestUnderTheirRequest) {
  Tracer tracer;
  tracer.set_request(7);
  {
    const auto root = tracer.span("request");
    { const auto a = tracer.span("a"); }
    { const auto b = tracer.span("b"); }
  }
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[0].parent, -1);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[2].parent, 0);
  for (const SpanRecord& s : tracer.spans()) {
    EXPECT_EQ(s.request, 7);
    EXPECT_LE(s.start_us, s.end_us);
  }
  const std::vector<double> self = tracer.self_times_us();
  const SpanRecord& root = tracer.spans()[0];
  EXPECT_NEAR(self[0] + self[1] + self[2], root.end_us - root.start_us, 1e-6);
}

TEST(OutcomeTally, NonOkOutcomesCountAgainstAttempted) {
  OutcomeTally tally;
  EXPECT_EQ(tally.failed_frac(), 0.0);
  tally.record(SolveStatus::kOk);
  tally.record(SolveStatus::kOk);
  tally.record(SolveStatus::kInvalidInstance);
  tally.record(SolveStatus::kQueueFull);  // a refused request is a failure too
  EXPECT_EQ(tally.attempted, 4);
  EXPECT_EQ(tally.ok, 2);
  EXPECT_EQ(tally.failed, 2);
  EXPECT_DOUBLE_EQ(tally.failed_frac(), 0.5);
}

TEST(Metrics, NamesAreWellFormed) {
  EXPECT_TRUE(valid_metric_name("core.recolor_plan_ms"));
  EXPECT_TRUE(valid_metric_name("a-b.c_9"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("latency ms"));
  EXPECT_FALSE(valid_metric_name("p50{phase=x}"));
}

TEST(Metrics, ReportRefusesMalformedRepeatedOrUnitlessMetrics) {
  // Every metric the runner prints goes through MetricReport::set, so these
  // refusals hold for every printed name.
  MetricReport report;
  report.set("setup_s", "s", 1.5);
  EXPECT_THROW(report.set("latency ms", "ms", 1.0), std::invalid_argument);
  EXPECT_THROW(report.set("setup_s", "s", 2.0), std::invalid_argument);
  EXPECT_THROW(report.set("ops_per_s", "", 2.0), std::invalid_argument);
}

TEST(Metrics, ReportJsonKeepsSetOrderAndFullPrecision) {
  MetricReport report;
  report.set("b_ms", "ms", 0.125);
  report.set("a", "1/s", 1.0 / 3.0);
  OutcomeTally tally;
  tally.record(SolveStatus::kOk);
  tally.record(SolveStatus::kInvalidInstance);
  EXPECT_EQ(report.json(false, tally),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {"
            "\"b_ms\": {\"value\": 0.125, \"unit\": \"ms\"}, "
            "\"a\": {\"value\": 0.33333333333333331, \"unit\": \"1/s\"}}}");
}

}  // namespace
}  // namespace qplec::e2e
