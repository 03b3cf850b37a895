// Tests for histograms, time series, and rate meters.

#include "src/sim/stats.h"

#include <gtest/gtest.h>

namespace nadino {
namespace {

TEST(LatencyHistogramTest, ExactForSmallValues) {
  LatencyHistogram h;
  for (SimDuration v = 0; v < 64; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 64u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 63);
  EXPECT_EQ(h.Percentile(0.0), 0);
  EXPECT_EQ(h.Percentile(1.0), 63);
}

TEST(LatencyHistogramTest, PercentileWithinRelativeError) {
  LatencyHistogram h;
  for (int i = 1; i <= 10000; ++i) {
    h.Record(i * 100);  // 100 ns .. 1 ms uniformly.
  }
  const SimDuration p50 = h.Percentile(0.50);
  const SimDuration p99 = h.Percentile(0.99);
  EXPECT_NEAR(static_cast<double>(p50), 500000.0, 500000.0 * 0.03);
  EXPECT_NEAR(static_cast<double>(p99), 990000.0, 990000.0 * 0.03);
}

TEST(LatencyHistogramTest, MeanUs) {
  LatencyHistogram h;
  h.Record(1000);
  h.Record(3000);
  EXPECT_DOUBLE_EQ(h.MeanUs(), 2.0);
}

TEST(LatencyHistogramTest, MergeCombines) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.Record(100);
  b.Record(300);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 100);
  EXPECT_EQ(a.max(), 300);
}

TEST(LatencyHistogramTest, ResetClears) {
  LatencyHistogram h;
  h.Record(12345);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0);
}

TEST(LatencyHistogramTest, NegativeValuesClampToZero) {
  LatencyHistogram h;
  h.Record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_LE(h.Percentile(1.0), 0);
}

class HistogramRangeTest : public ::testing::TestWithParam<SimDuration> {};

TEST_P(HistogramRangeTest, PercentileNearRecordedValue) {
  LatencyHistogram h;
  const SimDuration value = GetParam();
  h.Record(value);
  const SimDuration p = h.Percentile(0.5);
  // Log-bucketing guarantees ~1.6% relative error at 64 sub-buckets.
  EXPECT_NEAR(static_cast<double>(p), static_cast<double>(value),
              static_cast<double>(value) * 0.02 + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, HistogramRangeTest,
                         ::testing::Values(1, 63, 64, 65, 127, 128, 1000, 8192, 100000,
                                           1000000, 50000000, 3000000000LL));

TEST(TimeSeriesTest, RecordsAndWindows) {
  TimeSeries ts;
  ts.Record(1 * kSecond, 10.0);
  ts.Record(2 * kSecond, 20.0);
  ts.Record(3 * kSecond, 30.0);
  EXPECT_EQ(ts.samples().size(), 3u);
  EXPECT_DOUBLE_EQ(ts.MeanInWindow(1 * kSecond, 3 * kSecond), 15.0);
  EXPECT_DOUBLE_EQ(ts.MeanInWindow(10 * kSecond, 20 * kSecond), 0.0);
}

TEST(RateMeterTest, RollComputesRate) {
  RateMeter meter;
  meter.RecordCompletion(500);
  const double rate = meter.Roll(1 * kSecond);
  EXPECT_DOUBLE_EQ(rate, 500.0);
  EXPECT_EQ(meter.total(), 500u);
  meter.RecordCompletion(100);
  EXPECT_DOUBLE_EQ(meter.Roll(2 * kSecond), 100.0);
  EXPECT_EQ(meter.series().samples().size(), 2u);
}

}  // namespace
}  // namespace nadino
