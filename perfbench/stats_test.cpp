// Tests of the benchmark's own arithmetic (stats.h). Expected quartiles
// were produced by Python's statistics.quantiles(values, n=4), the rule the
// benchmark's steadiness check is stated in.
#include "stats.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace perfbench {
namespace {

TEST(PerfbenchStats, MedianOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(PerfbenchStats, QuartilesMatchPythonExclusiveMethod) {
  const auto expect = [](std::vector<double> values, std::vector<double> want) {
    const std::vector<double> got = quartiles(std::move(values));
    ASSERT_EQ(got.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(got[i], want[i]) << i;
  };
  expect({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, {2.75, 5.5, 8.25});
  expect({3.5, 1.25}, {0.6875, 2.375, 4.0625});
  expect({10, 1, 7, 3, 9}, {2.0, 7.0, 9.5});
  expect({0.5, 0.25, 4, 2, 8, 16, 1}, {0.5, 2.0, 8.0});
  EXPECT_THROW(quartiles({1.0}), std::invalid_argument);
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PerfbenchStats, TailNeedsTenSamplesBeyond) {
  EXPECT_FALSE(highest_supported_percentile(one_to(19)).has_value());

  const auto p50 = highest_supported_percentile(one_to(20));  // 10 beyond rank 10
  ASSERT_TRUE(p50.has_value());
  EXPECT_DOUBLE_EQ(p50->percentile, 50.0);
  EXPECT_DOUBLE_EQ(p50->value, 10.0);

  const auto still_p50 = highest_supported_percentile(one_to(99));  // p90: 9 beyond
  ASSERT_TRUE(still_p50.has_value());
  EXPECT_DOUBLE_EQ(still_p50->percentile, 50.0);

  const auto p90 = highest_supported_percentile(one_to(100));
  ASSERT_TRUE(p90.has_value());
  EXPECT_DOUBLE_EQ(p90->percentile, 90.0);
  EXPECT_DOUBLE_EQ(p90->value, 90.0);

  // 99.9 % of 10000 is an exact rank: float rounding must not cost a sample.
  const auto p999 = highest_supported_percentile(one_to(10000));
  ASSERT_TRUE(p999.has_value());
  EXPECT_DOUBLE_EQ(p999->percentile, 99.9);
  EXPECT_DOUBLE_EQ(p999->value, 9990.0);
}

TEST(PerfbenchStats, SelfTimeCountsOverlappingChildrenOnce) {
  // Span [0, 10]; children [1, 4] and [3, 6] overlap on [3, 4]; [5, 7]
  // extends the run; [9, 12] is clipped to [9, 10]; [11, 13] lies outside.
  const double self =
      self_time({0, 10}, {{1, 4}, {3, 6}, {5, 7}, {9, 12}, {11, 13}});
  EXPECT_DOUBLE_EQ(self, 10.0 - (6.0 + 1.0));
  EXPECT_DOUBLE_EQ(self_time({2, 4}, {}), 2.0);
  EXPECT_DOUBLE_EQ(self_time({0, 4}, {{0, 4}, {1, 2}}), 0.0);
  EXPECT_DOUBLE_EQ(union_length({{5, 5}, {3, 1}}), 0.0);  // empty, inverted
}

TEST(PerfbenchStats, StepGapFoldsConcurrentOps) {
  gf::rt::ProfileReport report;
  report.wall_seconds = 10;
  const auto op = [](double start, double end, int worker) {
    gf::rt::TimelineEvent ev;
    ev.start_seconds = start;
    ev.end_seconds = end;
    ev.worker = worker;
    return ev;
  };
  report.timeline = {op(0.5, 3, 0), op(1, 4, 1), op(6, 8, 0)};
  // Ops cover [0.5, 4] and [6, 8]: 5.5 s busy wall, 4.5 s gap.
  EXPECT_DOUBLE_EQ(step_gap_seconds(report), 4.5);
  // A "comm" event is not an op: it does not close the gap.
  gf::rt::TimelineEvent comm = op(4, 6, 0);
  comm.category = "comm";
  report.timeline.push_back(comm);
  EXPECT_DOUBLE_EQ(step_gap_seconds(report), 4.5);
}

TEST(PerfbenchStats, ExposedCommIsWallBeyondSlowestWorker) {
  gf::rt::DataParallelStepResult result;
  result.wall_seconds = 1.0;
  result.workers = {{.compute_seconds = 0.6, .delay_seconds = 0.1, .comm_seconds = 0.5},
                    {.compute_seconds = 0.75, .delay_seconds = 0.0, .comm_seconds = 0.4}};
  EXPECT_DOUBLE_EQ(exposed_comm_seconds(result), 0.25);
  result.wall_seconds = 0.5;  // timer skew never yields negative comm
  EXPECT_DOUBLE_EQ(exposed_comm_seconds(result), 0.0);
}

}  // namespace
}  // namespace perfbench
