// Tests for the open-loop load generator (DESIGN.md §3g): arrival-schedule
// evaluation, shed accounting, flat-memory scaling, and the
// sharded event-queue determinism contract the harness leans on.

#include "src/runtime/openloop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "src/core/experiments.h"

namespace nadino {
namespace {

TEST(ArrivalScheduleTest, FlatRateWithoutModulation) {
  ArrivalSchedule schedule;
  schedule.base_rps = 250.0;
  EXPECT_DOUBLE_EQ(schedule.RateAt(0), 250.0);
  EXPECT_DOUBLE_EQ(schedule.RateAt(5 * kSecond), 250.0);
}

TEST(ArrivalScheduleTest, DiurnalSegmentsModulateAndWrap) {
  // 4 steps over a 1 s period, trough 0.5x at phase 0, peak 1.5x mid-period.
  const ArrivalSchedule schedule = MakeDiurnalSchedule(100.0, 1 * kSecond, 4, 0.5, 1.5);
  ASSERT_EQ(schedule.segments.size(), 4u);
  const double trough = schedule.RateAt(0);
  const double peak = schedule.RateAt(500 * kMillisecond);
  EXPECT_DOUBLE_EQ(trough, 50.0);
  EXPECT_GT(peak, trough);
  EXPECT_LE(peak, 150.0 + 1e-9);
  // Phase wraps: period + x evaluates like x even after the cursor advanced
  // to the end of the first cycle.
  EXPECT_DOUBLE_EQ(schedule.RateAt(999 * kMillisecond), schedule.RateAt(999 * kMillisecond));
  EXPECT_DOUBLE_EQ(schedule.RateAt(1 * kSecond), trough);
  EXPECT_DOUBLE_EQ(schedule.RateAt(1 * kSecond + 500 * kMillisecond), peak);
}

TEST(ArrivalScheduleTest, FlashBurstsAreAdditiveAndAbsolute) {
  ArrivalSchedule schedule;
  schedule.base_rps = 100.0;
  schedule.bursts.push_back({200 * kMillisecond, 100 * kMillisecond, 40.0});
  schedule.bursts.push_back({600 * kMillisecond, 50 * kMillisecond, 60.0});
  EXPECT_DOUBLE_EQ(schedule.RateAt(100 * kMillisecond), 100.0);
  EXPECT_DOUBLE_EQ(schedule.RateAt(250 * kMillisecond), 140.0);
  EXPECT_DOUBLE_EQ(schedule.RateAt(300 * kMillisecond), 100.0);  // Burst ended.
  EXPECT_DOUBLE_EQ(schedule.RateAt(620 * kMillisecond), 160.0);
  EXPECT_DOUBLE_EQ(schedule.RateAt(700 * kMillisecond), 100.0);
}

TEST(SimulatorShardingTest, ScheduleBatchMatchesRepeatedScheduleAt) {
  // Same arrival instants admitted both ways must fire in the same order.
  const std::vector<SimTime> whens = {500, 100, 100, 900, 100, 700, 500};
  std::vector<SimTime> sorted = whens;
  std::sort(sorted.begin(), sorted.end());

  std::vector<size_t> batch_order;
  {
    Simulator sim;
    sim.ScheduleBatch(0, sorted, [&](size_t i) { return [&, i]() { batch_order.push_back(i); }; });
    sim.Run();
  }
  std::vector<size_t> loop_order;
  {
    Simulator sim;
    for (size_t i = 0; i < sorted.size(); ++i) {
      sim.ScheduleAt(sorted[i], [&, i]() { loop_order.push_back(i); });
    }
    sim.Run();
  }
  EXPECT_EQ(batch_order, loop_order);
  ASSERT_EQ(batch_order.size(), sorted.size());
  // Ties (three arrivals at t=100) break by admission order.
  EXPECT_EQ(batch_order[0], 0u);
  EXPECT_EQ(batch_order[1], 1u);
  EXPECT_EQ(batch_order[2], 2u);
}

TEST(SimulatorShardingTest, ShardCountNeverChangesTheExecutedSequence) {
  // The (when, seq) total order is assigned at Schedule time, so the executed
  // sequence — and with it every metric — is identical for any shard count.
  auto run = [](uint32_t shards) {
    Simulator sim;
    sim.SetShardCount(shards);
    std::vector<int> fired;
    Rng rng(7);
    for (int i = 0; i < 400; ++i) {
      const SimTime when = static_cast<SimTime>(rng.UniformInt(0, 50));  // Dense ties.
      sim.ScheduleAtOn(i % sim.shard_count(), when, [&fired, i]() { fired.push_back(i); });
    }
    sim.Run();
    return fired;
  };
  const std::vector<int> single = run(1);
  EXPECT_EQ(run(4), single);
  EXPECT_EQ(run(16), single);
  EXPECT_EQ(run(64), single);
}

TEST(OpenLoopSourceTest, OfferedSplitsExactlyIntoDispatchedAndShed) {
  Simulator sim;
  CostModel cost = CostModel::Default();
  Env env{&sim, &cost};
  OpenLoopSource::Options options;
  options.tick = 10 * kMillisecond;
  options.horizon = 500 * kMillisecond;
  OpenLoopSource source(env, options);
  OpenLoopSource::TenantOptions tenant;
  tenant.schedule.base_rps = 2000.0;
  tenant.max_in_flight = 8;
  const uint32_t id = source.AddTenant(tenant);
  // Sink completes each dispatch 5 ms later: far slower than the offered
  // rate, so the in-flight cap engages and the excess is shed, not queued.
  source.SetDispatch([&](uint32_t t, SimTime issued_at) {
    sim.Schedule(5 * kMillisecond, [&, t, issued_at]() { source.OnComplete(t, issued_at); });
    return true;
  });
  source.Start();
  sim.RunUntil(600 * kMillisecond);
  EXPECT_GT(source.offered(), 500u);
  EXPECT_GT(source.shed(), 0u);
  EXPECT_EQ(source.offered(), source.dispatched() + source.shed());
  EXPECT_EQ(source.tenant_offered(id), source.offered());
  EXPECT_LE(source.in_flight_peak(), tenant.max_in_flight);
  EXPECT_EQ(source.in_flight(), 0u);  // Drained.
  EXPECT_EQ(source.completed(), source.dispatched());
  EXPECT_EQ(source.latencies().count(), source.completed());
}

TEST(OpenLoopSourceTest, MemoryIsFlatInUserCount) {
  // 100x the offered rate (the "users") must not grow simulator state: slab
  // occupancy follows in-flight work + one tick chain per tenant.
  auto slab_after = [](double rps) {
    Simulator sim;
    CostModel cost = CostModel::Default();
    Env env{&sim, &cost};
    OpenLoopSource::Options options;
    options.horizon = 200 * kMillisecond;
    OpenLoopSource source(env, options);
    OpenLoopSource::TenantOptions tenant;
    tenant.schedule.base_rps = rps;
    tenant.max_in_flight = 64;
    source.AddTenant(tenant);
    source.SetDispatch([&](uint32_t t, SimTime issued_at) {
      sim.Schedule(1 * kMillisecond, [&, t, issued_at]() { source.OnComplete(t, issued_at); });
      return true;
    });
    source.Start();
    sim.RunUntil(300 * kMillisecond);
    EXPECT_GT(source.offered(), static_cast<uint64_t>(rps * 0.1));
    return sim.slab_slots();
  };
  const size_t small = slab_after(1000.0);
  const size_t large = slab_after(100000.0);
  // The 100x run may batch more arrivals per tick but stays the same order of
  // magnitude: slots are bounded by cap + per-tick batch, never user count.
  EXPECT_LT(large, small + 4096);
}

TEST(OpenLoopSourceTest, MillionUserBatchesStayOutOfTheHeaps) {
  // 1M users over 4 shards admit ~10,000 arrivals per 10 ms tick. Entries
  // past a shard's frontier wait unsorted in the far-future tier, so the
  // heaps the pop path sifts hold at most about one 65.5 us slab of arrivals
  // per shard (~65 over the four) plus the few events around them, never
  // the tick's whole batch.
  Simulator sim;
  sim.SetShardCount(4);
  CostModel cost = CostModel::Default();
  Env env{&sim, &cost};
  OpenLoopSource::Options options;
  options.horizon = 100 * kMillisecond;
  OpenLoopSource source(env, options);
  for (uint32_t shard = 0; shard < 4; ++shard) {
    OpenLoopSource::TenantOptions tenant;
    tenant.schedule.base_rps = 250000.0;
    tenant.shard = shard;
    tenant.max_in_flight = 16;
    source.AddTenant(tenant);
  }
  // Service takes 1-2 ms, so the in-flight cap sheds most arrivals.
  Rng service(11);
  source.SetDispatch([&](uint32_t t, SimTime issued_at) {
    const SimDuration latency =
        1 * kMillisecond + static_cast<SimDuration>(service.UniformInt(0, kMillisecond));
    sim.Schedule(latency, [&, t, issued_at]() { source.OnComplete(t, issued_at); });
    return true;
  });
  size_t peak = 0;
  size_t total = 0;
  uint64_t probes = 0;
  std::function<void()> probe = [&]() {
    peak = std::max(peak, sim.heap_entries());
    total += sim.heap_entries();
    ++probes;
    if (sim.now() < options.horizon) {
      sim.Schedule(50 * kMicrosecond, probe);
    }
  };
  sim.Schedule(0, probe);
  source.Start();
  sim.RunUntil(options.horizon + 10 * kMillisecond);
  EXPECT_GT(source.offered(), 90000u);
  EXPECT_GT(source.shed(), 0u);
  ASSERT_GE(probes, 2000u);
  EXPECT_LE(peak, 100u);
  EXPECT_LE(total / probes, 50u);
}

TEST(OpenLoopScaleTest, ShardCountInvarianceEndToEnd) {
  // The full harness (cluster + DNE echo + diurnal/burst schedule) must emit
  // byte-identical metrics whether the event queue is one heap or per-node
  // shards — the §3g invariant the golden benches pin.
  OpenLoopScaleOptions options;
  options.nodes = 4;
  options.tenants = 4;
  options.users = 2000;
  options.horizon = 300 * kMillisecond;
  options.drain = 100 * kMillisecond;
  options.max_in_flight_per_tenant = 128;
  options.flash_crowd_fraction = 0.5;
  const CostModel& cost = CostModel::Default();

  options.event_shards = 1;
  const OpenLoopScaleResult single = RunOpenLoopScale(cost, options);
  options.event_shards = 0;  // One shard per node (4).
  const OpenLoopScaleResult sharded = RunOpenLoopScale(cost, options);

  EXPECT_GT(single.completed, 0u);
  EXPECT_EQ(single.offered, sharded.offered);
  EXPECT_EQ(single.dispatched, sharded.dispatched);
  EXPECT_EQ(single.completed, sharded.completed);
  EXPECT_EQ(single.shed, sharded.shed);
  EXPECT_EQ(single.sim_events, sharded.sim_events);
  EXPECT_EQ(single.unmatched_responses, 0u);
  EXPECT_EQ(sharded.unmatched_responses, 0u);
  EXPECT_EQ(single.metrics_text, sharded.metrics_text);
  EXPECT_EQ(single.metrics_json, sharded.metrics_json);
}

}  // namespace
}  // namespace nadino
