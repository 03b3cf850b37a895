// Per-tenant SLO objects and retry backoff (src/core/slo.h): window rolling,
// budget accounting, burn-rate gauges and deterministic jittered backoff.

#include "src/core/slo.h"

#include <gtest/gtest.h>

#include "src/core/env.h"
#include "src/sim/random.h"

namespace nadino {
namespace {

class SloTest : public ::testing::Test {
 protected:
  CostModel cost_ = CostModel::Default();
  Simulator sim_;
  Env env_{&sim_, &cost_};
  SloRegistry& slos_ = env_.slos();
  MetricsRegistry& metrics_ = env_.metrics();
};

TEST_F(SloTest, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy policy;
  policy.backoff_base = 100 * kMicrosecond;
  policy.backoff_multiplier = 2.0;
  policy.backoff_cap = 1 * kMillisecond;
  policy.jitter_fraction = 0.0;  // Deterministic, no RNG draw.
  Rng rng(1);
  EXPECT_EQ(policy.BackoffFor(1, rng), 100 * kMicrosecond);
  EXPECT_EQ(policy.BackoffFor(2, rng), 200 * kMicrosecond);
  EXPECT_EQ(policy.BackoffFor(3, rng), 400 * kMicrosecond);
  EXPECT_EQ(policy.BackoffFor(4, rng), 800 * kMicrosecond);
  EXPECT_EQ(policy.BackoffFor(5, rng), 1 * kMillisecond);
  EXPECT_EQ(policy.BackoffFor(10, rng), 1 * kMillisecond);
  // Zero jitter drew nothing: the stream matches a fresh Rng with this seed.
  Rng fresh(1);
  EXPECT_EQ(rng.NextU64(), fresh.NextU64());
}

TEST_F(SloTest, BackoffJitterIsSeededAndBounded) {
  RetryPolicy policy;  // Default 10% jitter.
  Rng a(42);
  Rng b(42);
  for (uint32_t attempt = 1; attempt <= policy.max_attempts; ++attempt) {
    const SimDuration da = policy.BackoffFor(attempt, a);
    const SimDuration db = policy.BackoffFor(attempt, b);
    EXPECT_EQ(da, db) << "equal seeds must draw equal backoffs";
    // The nominal (jitter-free) delay for this attempt.
    Rng unused(0);
    RetryPolicy nominal = policy;
    nominal.jitter_fraction = 0.0;
    const double center = static_cast<double>(nominal.BackoffFor(attempt, unused));
    EXPECT_GE(static_cast<double>(da), center * 0.9 - 1.0);
    EXPECT_LE(static_cast<double>(da), center * 1.1 + 1.0);
  }
}

TEST_F(SloTest, BudgetFloorThenExhaustion) {
  SloTarget target;
  target.min_budget_per_window = 4;
  SloObject* slo = slos_.Register(7, target);
  ASSERT_NE(slo, nullptr);
  // No traffic yet: the floor still grants tokens.
  EXPECT_EQ(slo->BudgetAllowed(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(slo->TryConsumeRetryToken());
  }
  EXPECT_FALSE(slo->TryConsumeRetryToken());
  const MetricLabels labels = MetricLabels::Tenant(7);
  EXPECT_EQ(metrics_.ValueOf("slo_error_budget_consumed", labels), 4u);
  EXPECT_EQ(metrics_.ValueOf("slo_budget_exhausted", labels), 1u);
  EXPECT_DOUBLE_EQ(slo->BurnRate(), 1.0);
  EXPECT_EQ(slo->window_consumed(), 4u);
}

TEST_F(SloTest, BudgetGrowsWithWindowTraffic) {
  SloTarget target;
  target.error_budget_fraction = 0.01;
  target.min_budget_per_window = 16;
  SloObject* slo = slos_.Register(3, target);
  for (int i = 0; i < 10000; ++i) {
    slo->RecordRequest();
  }
  // ceil(10000 * 0.01) = 100 > floor.
  EXPECT_EQ(slo->BudgetAllowed(), 100u);
  EXPECT_EQ(slo->window_requests(), 10000u);
}

TEST_F(SloTest, WindowRollsResetBudget) {
  SloTarget target;
  target.burn_window = 1 * kMillisecond;
  target.min_budget_per_window = 2;
  SloObject* slo = slos_.Register(5, target);
  EXPECT_TRUE(slo->TryConsumeRetryToken());
  EXPECT_TRUE(slo->TryConsumeRetryToken());
  EXPECT_FALSE(slo->TryConsumeRetryToken());
  // Advance the sim clock past the window boundary: budget replenishes and
  // burn state clears (no timer events needed — rolling is lazy).
  sim_.RunFor(2 * kMillisecond);
  EXPECT_EQ(slo->window_consumed(), 0u);
  EXPECT_TRUE(slo->TryConsumeRetryToken());
}

TEST_F(SloTest, LatencyFeedsHistogramAndViolations) {
  SloTarget target;
  target.p99_target = 1 * kMillisecond;
  SloObject* slo = slos_.Register(2, target);
  slo->RecordLatency(100 * kMicrosecond);  // Within target.
  slo->RecordLatency(5 * kMillisecond);    // Violation.
  const MetricLabels labels = MetricLabels::Tenant(2);
  EXPECT_EQ(metrics_.ValueOf("slo_violations", labels), 1u);
  EXPECT_NE(metrics_.SnapshotText().find("slo_latency"), std::string::npos);
}

TEST_F(SloTest, TerminalErrorConsumesBudget) {
  SloObject* slo = slos_.Register(9, SloTarget{});
  slo->RecordError();
  const MetricLabels labels = MetricLabels::Tenant(9);
  EXPECT_EQ(metrics_.ValueOf("slo_errors", labels), 1u);
  EXPECT_EQ(metrics_.ValueOf("slo_error_budget_consumed", labels), 1u);
  EXPECT_EQ(slo->window_consumed(), 1u);
}

TEST_F(SloTest, BurnRateGaugeRendersInSnapshots) {
  SloTarget target;
  target.min_budget_per_window = 4;
  SloObject* slo = slos_.Register(6, target);
  EXPECT_TRUE(slo->TryConsumeRetryToken());
  // 1 of 4 tokens burned.
  EXPECT_NE(metrics_.SnapshotText().find("slo_burn_rate{tenant=6} 0.250000"),
            std::string::npos);
  EXPECT_NE(metrics_.SnapshotJson().find("\"type\":\"gauge\""), std::string::npos);
}

TEST_F(SloTest, RetryPolicyLookup) {
  EXPECT_EQ(slos_.RetryPolicyOf(1), nullptr);
  RetryPolicy policy;
  policy.max_attempts = 5;
  slos_.SetRetryPolicy(1, policy);
  ASSERT_NE(slos_.RetryPolicyOf(1), nullptr);
  EXPECT_EQ(slos_.RetryPolicyOf(1)->max_attempts, 5u);
  EXPECT_FALSE(slos_.empty());
}

}  // namespace
}  // namespace nadino
