// Tests for load generators and the TCP stack cost models.

#include "src/runtime/workload.h"
#include "src/transport/tcp_model.h"

#include <gtest/gtest.h>

#include <set>

#include "src/core/experiments.h"
#include "src/core/fault.h"

namespace nadino {
namespace {

TEST(TcpModelTest, KernelCostsMoreThanFstack) {
  CostModel cost = CostModel::Default();
  TcpStackModel kernel(TcpStackKind::kKernel, &cost);
  TcpStackModel fstack(TcpStackKind::kFstack, &cost);
  EXPECT_GT(kernel.RxCost(1024), fstack.RxCost(1024));
  EXPECT_GT(kernel.TxCost(1024), fstack.TxCost(1024));
  EXPECT_GT(kernel.IrqCost(), 0);
  EXPECT_EQ(fstack.IrqCost(), 0);
  EXPECT_TRUE(fstack.busy_polling());
  EXPECT_FALSE(kernel.busy_polling());
}

TEST(TcpModelTest, CostsScaleWithBytes) {
  CostModel cost = CostModel::Default();
  TcpStackModel kernel(TcpStackKind::kKernel, &cost);
  EXPECT_GT(kernel.RxCost(65536), kernel.RxCost(64) + 30000);
}

TEST(ClosedLoopClientsTest, StaggerRampStaysInWindowWithDistinctStarts) {
  // Regression for the ramp wrap bug: `stagger * id % window` put client
  // slots_per_window*k back onto client 0's instant, so Fig. 14's +1-client
  // ramp re-synchronized into a burst every 100 clients at the defaults.
  Simulator sim;
  CostModel cost = CostModel::Default();
  Env env{&sim, &cost};
  // 10 us stagger, 1 ms window: 100 slots.
  ClosedLoopClients fleet(env, nullptr, ClosedLoopClients::Options{});
  const SimDuration window = ClosedLoopClients::kStaggerWindow;
  std::set<SimDuration> starts;
  for (uint32_t id = 0; id < 500; ++id) {
    const SimDuration delay = fleet.StaggerDelay(id);
    EXPECT_GE(delay, 0);
    EXPECT_LT(delay, window) << "client " << id << " pushed outside the window";
    EXPECT_TRUE(starts.insert(delay).second) << "client " << id << " collides";
  }
  // The first lap is the plain ramp...
  EXPECT_EQ(fleet.StaggerDelay(0), 0);
  EXPECT_EQ(fleet.StaggerDelay(1), ClosedLoopClients::kStartStagger);
  // ...and wrapping clients land next to (never on) their first-lap twins.
  EXPECT_EQ(fleet.StaggerDelay(100), 1);
  EXPECT_EQ(fleet.StaggerDelay(201), ClosedLoopClients::kStartStagger + 2);
}

TEST(TenantEchoLoadTest, ChaosPendingStaysBoundedAndOutstandingNonNegative) {
  // Drops at the DNE TX stage leak pending entries ("counted not hung"
  // losses) and duplicates at RX replay already-matched responses; with the
  // reaper armed, pending_requests() must stay bounded by the window and the
  // duplicate/late responses must land in unmatched_responses() instead of
  // driving outstanding_ negative.
  CostModel cost = CostModel::Default();
  ClusterConfig config;
  config.worker_nodes = 2;
  config.with_ingress_node = false;
  Cluster cluster(&cost, config);
  cluster.CreateTenantPools(1, 512, 8192);
  NadinoDataPlane dp(cluster.env(), &cluster.routing(), NadinoDataPlane::Options{});
  dp.AddWorkerNode(cluster.worker(0));
  dp.AddWorkerNode(cluster.worker(1));
  dp.AttachTenant(1, 1);
  dp.Start();
  FunctionRuntime client(101, 1, "c", cluster.worker(0), cluster.worker(0)->AllocateCore(),
                         cluster.worker(0)->tenants().PoolOfTenant(1));
  FunctionRuntime server(201, 1, "s", cluster.worker(1), cluster.worker(1)->AllocateCore(),
                         cluster.worker(1)->tenants().PoolOfTenant(1));
  dp.RegisterFunction(&client);
  dp.RegisterFunction(&server);

  FaultPlane& plane = cluster.env().faults();
  FaultSpec drop;
  drop.site = FaultSite::kDneTx;
  drop.action = FaultAction::kDrop;
  drop.probability = 0.05;
  ASSERT_GE(plane.Install(drop), 0);
  FaultSpec dup;
  dup.site = FaultSite::kRnicRx;  // Wire-level site: duplication is supported.
  dup.action = FaultAction::kDuplicate;
  dup.probability = 0.05;
  ASSERT_GE(plane.Install(dup), 0);

  TenantEchoLoad::Options options;
  options.window = 16;
  options.pending_timeout = 5 * kMillisecond;
  TenantEchoLoad load(cluster.env(), &dp, &client, &server, options);
  load.SetActive(true);
  cluster.sim().RunFor(400 * kMillisecond);
  load.SetActive(false);
  cluster.sim().RunFor(50 * kMillisecond);

  EXPECT_GT(load.completed(), 1000u);
  EXPECT_GT(plane.injected_at(FaultSite::kDneTx), 0u);
  EXPECT_GT(plane.injected_at(FaultSite::kRnicRx), 0u);
  // The leak fix: dropped requests were reaped, so the pending map never
  // outgrew the window even over a long chaos run.
  EXPECT_GT(load.reaped(), 0u);
  EXPECT_LE(load.pending_peak(), static_cast<size_t>(options.window));
  EXPECT_LE(load.pending_requests(), static_cast<size_t>(options.window));
  // The accounting fix: duplicated responses are tallied, not double-counted.
  EXPECT_GT(load.unmatched_responses(), 0u);
  EXPECT_GE(load.outstanding(), 0);
  EXPECT_LE(load.outstanding(), options.window);
}

TEST(TenantEchoLoadTest, WindowBoundsOutstandingRequests) {
  CostModel cost = CostModel::Default();
  ClusterConfig config;
  config.worker_nodes = 2;
  config.with_ingress_node = false;
  Cluster cluster(&cost, config);
  cluster.CreateTenantPools(1, 512, 8192);
  NadinoDataPlane dp(cluster.env(), &cluster.routing(), NadinoDataPlane::Options{});
  dp.AddWorkerNode(cluster.worker(0));
  dp.AddWorkerNode(cluster.worker(1));
  dp.AttachTenant(1, 1);
  dp.Start();
  FunctionRuntime client(101, 1, "c", cluster.worker(0), cluster.worker(0)->AllocateCore(),
                         cluster.worker(0)->tenants().PoolOfTenant(1));
  FunctionRuntime server(201, 1, "s", cluster.worker(1), cluster.worker(1)->AllocateCore(),
                         cluster.worker(1)->tenants().PoolOfTenant(1));
  dp.RegisterFunction(&client);
  dp.RegisterFunction(&server);
  TenantEchoLoad::Options options;
  options.window = 8;
  options.payload_bytes = 256;
  TenantEchoLoad load(cluster.env(), &dp, &client, &server, options);
  load.SetActive(true);
  cluster.sim().RunFor(200 * kMillisecond);
  EXPECT_GT(load.completed(), 1000u);
  EXPECT_GT(load.latencies().count(), 0u);
  load.SetActive(false);
  const uint64_t at_stop = load.completed();
  cluster.sim().RunFor(50 * kMillisecond);
  // In-flight drains, then no new issues.
  EXPECT_LE(load.completed(), at_stop + static_cast<uint64_t>(options.window));
}

TEST(TenantEchoLoadTest, ScheduledActivationWindow) {
  CostModel cost = CostModel::Default();
  ClusterConfig config;
  config.worker_nodes = 2;
  config.with_ingress_node = false;
  Cluster cluster(&cost, config);
  cluster.CreateTenantPools(1, 512, 8192);
  NadinoDataPlane dp(cluster.env(), &cluster.routing(), NadinoDataPlane::Options{});
  dp.AddWorkerNode(cluster.worker(0));
  dp.AddWorkerNode(cluster.worker(1));
  dp.AttachTenant(1, 1);
  dp.Start();
  FunctionRuntime client(101, 1, "c", cluster.worker(0), cluster.worker(0)->AllocateCore(),
                         cluster.worker(0)->tenants().PoolOfTenant(1));
  FunctionRuntime server(201, 1, "s", cluster.worker(1), cluster.worker(1)->AllocateCore(),
                         cluster.worker(1)->tenants().PoolOfTenant(1));
  dp.RegisterFunction(&client);
  dp.RegisterFunction(&server);
  TenantEchoLoad load(cluster.env(), &dp, &client, &server, {});
  load.ScheduleActive(100 * kMillisecond, 200 * kMillisecond);
  cluster.sim().RunFor(50 * kMillisecond);
  EXPECT_EQ(load.completed(), 0u);  // Not yet active.
  cluster.sim().RunFor(100 * kMillisecond);
  EXPECT_GT(load.completed(), 0u);  // Active window.
  cluster.sim().RunFor(60 * kMillisecond);  // Past the 200 ms stop + drain.
  const uint64_t after_stop = load.completed();
  cluster.sim().RunFor(100 * kMillisecond);
  EXPECT_EQ(load.completed(), after_stop);  // No new issues after the window.
}

TEST(PeriodicSamplerTest, RollsMetersOnSchedule) {
  Simulator sim;
  CostModel cost = CostModel::Default();
  Env env{&sim, &cost};
  RateMeter meter;
  PeriodicSampler sampler(env, 100 * kMillisecond);
  sampler.AddRate(&meter);
  int hooks = 0;
  sampler.AddHook([&](SimTime) { ++hooks; });
  sampler.Start();
  meter.RecordCompletion(10);
  sim.RunUntil(550 * kMillisecond);
  EXPECT_EQ(meter.series().samples().size(), 5u);
  EXPECT_EQ(hooks, 5);
  EXPECT_DOUBLE_EQ(meter.series().samples()[0].value, 100.0);  // 10 per 0.1 s.
  sampler.Stop();
}

}  // namespace
}  // namespace nadino
