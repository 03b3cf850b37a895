// Tests for per-tenant token-bucket shaping, standalone and integrated into
// the network engine.

#include "src/dne/rate_limiter.h"

#include <gtest/gtest.h>

#include "src/core/experiments.h"
#include "src/runtime/message_header.h"
#include "src/runtime/workload.h"

namespace nadino {
namespace {

TEST(TokenBucketTest, BurstPassesImmediately) {
  TokenBucket bucket(/*rate_bps=*/8e6, /*burst_bytes=*/10000);  // 1 MB/s.
  EXPECT_EQ(bucket.ReserveSendTime(10000, 0), 0);
}

TEST(TokenBucketTest, DeficitMapsToFutureSendTime) {
  TokenBucket bucket(8e6, 1000);  // 1 MB/s, 1 KB burst.
  EXPECT_EQ(bucket.ReserveSendTime(1000, 0), 0);  // Burst drained.
  // The next 1000 bytes need 1 ms of refill at 1 MB/s.
  const SimTime next = bucket.ReserveSendTime(1000, 0);
  EXPECT_NEAR(static_cast<double>(next), 1.0 * kMillisecond, 0.05 * kMillisecond);
}

TEST(TokenBucketTest, TokensRefillOverTime) {
  TokenBucket bucket(8e6, 1000);
  bucket.ReserveSendTime(1000, 0);
  EXPECT_NEAR(bucket.AvailableTokens(500 * kMicrosecond), 500.0, 5.0);
  // Refill caps at the burst size.
  EXPECT_NEAR(bucket.AvailableTokens(10 * kSecond), 1000.0, 1.0);
}

TEST(TokenBucketTest, SustainedRateConvergesToConfigured) {
  TokenBucket bucket(80e6, 4000);  // 10 MB/s.
  SimTime now = 0;
  uint64_t sent_bytes = 0;
  for (int i = 0; i < 10000; ++i) {
    now = std::max(now, bucket.ReserveSendTime(1000, now));
    sent_bytes += 1000;
  }
  const double achieved_bps = static_cast<double>(sent_bytes) * 8.0 / ToSeconds(now);
  EXPECT_NEAR(achieved_bps, 80e6, 80e6 * 0.02);
}

TEST(TokenBucketTest, ExactLineRateAdmitsConfiguredBytes) {
  // Accounting regression for the deficit->time conversion: truncating the
  // refill deadline admitted every deferred message up to 1 ns early, so a
  // long run at exact line rate crept ahead of the configured rate. With the
  // conversion rounded up (and the fractional token balance carried), a
  // 10-second run admits rate_bps * T / 8 bytes within one MTU.
  const double rate_bps = 80e6;  // 10 MB/s.
  const uint64_t mtu = 1500;
  TokenBucket bucket(rate_bps, mtu);
  const SimTime horizon = 10 * kSecond;
  SimTime now = 0;
  uint64_t admitted = 0;
  while (true) {
    const SimTime send_at = bucket.ReserveSendTime(mtu, now);
    if (send_at >= horizon) {
      break;
    }
    now = std::max(now, send_at);
    admitted += mtu;
  }
  const double expected = rate_bps * ToSeconds(horizon) / 8.0;
  EXPECT_NEAR(static_cast<double>(admitted), expected, static_cast<double>(mtu));
}

TEST(TokenBucketTest, DeferredMessagesAreNotDoubleCharged) {
  // Each reservation charges its bytes exactly once: with a per-message rate
  // that is not an integer number of nanoseconds (8000 bits / 7 Mbps =
  // 1142857.14... ns), the k-th deferred send time must track k * bits/rate
  // without cumulative drift — ceiling the deadline may only cost < 1 ns per
  // message, never re-charging the fractional remainder.
  const double rate_bps = 7e6;
  TokenBucket bucket(rate_bps, /*burst_bytes=*/1000);
  SimTime now = 0;
  SimTime last = 0;
  const int messages = 7000;
  for (int i = 0; i < messages; ++i) {
    last = bucket.ReserveSendTime(1000, now);
    now = std::max(now, last);
  }
  // Message 0 consumes the burst; the remaining 6999 each owe 8000 bits at
  // 7 Mbps, i.e. exactly 6999 * 8000 / 7e6 seconds = 7.999 s (an integer
  // number of microseconds, so representable exactly).
  const double expected_ns =
      static_cast<double>(messages - 1) * 8000.0 / rate_bps * 1e9;
  EXPECT_NEAR(static_cast<double>(last), expected_ns, 16.0)
      << "per-message truncation drift accumulated across deferrals";
}

TEST(TenantRateLimiterTest, UnshapedTenantsPassFree) {
  TenantRateLimiter limiter;
  EXPECT_EQ(limiter.AdmissionDelay(1, 1000000, 0), 0);
  EXPECT_FALSE(limiter.IsShaped(1));
  EXPECT_EQ(limiter.stats().delayed, 0u);
}

TEST(TenantRateLimiterTest, ShapedTenantDelaysOverRate) {
  TenantRateLimiter limiter;
  limiter.SetRate(1, 8e6, 1000);
  EXPECT_EQ(limiter.AdmissionDelay(1, 1000, 0), 0);
  EXPECT_GT(limiter.AdmissionDelay(1, 1000, 0), 0);
  EXPECT_EQ(limiter.stats().admitted, 1u);
  EXPECT_EQ(limiter.stats().delayed, 1u);
}

TEST(RatePolicyIntegrationTest, ShapedTenantCappedWhileOthersSaturate) {
  // Tenant 2 is shaped to ~1/8 of what it could otherwise take; tenant 1
  // soaks up the rest of the engine.
  CostModel cost = CostModel::Default();
  ClusterConfig config;
  config.worker_nodes = 2;
  config.with_ingress_node = false;
  Cluster cluster(&cost, config);
  cluster.CreateTenantPools(1, 1024, 8192);
  cluster.CreateTenantPools(2, 1024, 8192);
  NadinoDataPlane dp(cluster.env(), &cluster.routing(), {});
  NetworkEngine* engine = dp.AddWorkerNode(cluster.worker(0));
  dp.AddWorkerNode(cluster.worker(1));
  dp.AttachTenant(1, 1);
  dp.AttachTenant(2, 1);
  dp.Start();
  // Cap tenant 2 at ~10K msgs/s of ~1.1 KB wire size => ~88 Mbit/s.
  engine->SetTenantRate(2, 88e6, 4096);

  std::vector<std::unique_ptr<FunctionRuntime>> fns;
  std::vector<std::unique_ptr<TenantEchoLoad>> loads;
  for (const TenantId tenant : {1u, 2u}) {
    fns.push_back(std::make_unique<FunctionRuntime>(
        100 + tenant, tenant, "c", cluster.worker(0), cluster.worker(0)->AllocateCore(),
        cluster.worker(0)->tenants().PoolOfTenant(tenant)));
    fns.push_back(std::make_unique<FunctionRuntime>(
        200 + tenant, tenant, "s", cluster.worker(1), cluster.worker(1)->AllocateCore(),
        cluster.worker(1)->tenants().PoolOfTenant(tenant)));
    dp.RegisterFunction(fns[fns.size() - 2].get());
    dp.RegisterFunction(fns.back().get());
    TenantEchoLoad::Options load_options;
    load_options.payload_bytes = 1024;
    load_options.window = 32;
    loads.push_back(std::make_unique<TenantEchoLoad>(cluster.env(), &dp,
                                                     fns[fns.size() - 2].get(),
                                                     fns.back().get(), load_options));
    loads.back()->SetActive(true);
  }
  cluster.sim().RunFor(kSecond);
  const double rps1 = static_cast<double>(loads[0]->completed());
  const double rps2 = static_cast<double>(loads[1]->completed());
  EXPECT_NEAR(rps2, 10000.0, 1500.0);  // Held at the cap.
  EXPECT_GT(rps1, rps2 * 5);           // Unshaped tenant takes the remainder.
  EXPECT_GT(engine->rate_limiter().stats().delayed, 0u);
}

}  // namespace
}  // namespace nadino
