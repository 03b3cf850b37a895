// Tail-window regression tests: PeriodicSampler::Stop() must flush the final
// partial window instead of dropping it, and RateMeter::Roll must treat a
// zero-width window as a no-op rather than dividing by zero elapsed time.

#include <gtest/gtest.h>

#include "src/runtime/workload.h"
#include "src/sim/stats.h"

namespace nadino {
namespace {

TEST(RateMeterTest, ZeroWidthRollIsANoOp) {
  RateMeter meter;
  meter.RecordCompletion(5);
  EXPECT_DOUBLE_EQ(meter.Roll(100 * kMillisecond), 50.0);
  ASSERT_EQ(meter.series().samples().size(), 1u);
  // Rolling again at the same instant: no sample, no NaN/inf, and the open
  // window's completions survive for the next real roll.
  meter.RecordCompletion(3);
  EXPECT_DOUBLE_EQ(meter.Roll(100 * kMillisecond), 0.0);
  EXPECT_EQ(meter.series().samples().size(), 1u);
  EXPECT_EQ(meter.in_window(), 3u);
  EXPECT_DOUBLE_EQ(meter.Roll(200 * kMillisecond), 30.0);
  EXPECT_EQ(meter.series().samples().size(), 2u);
  EXPECT_EQ(meter.total(), 8u);
}

TEST(PeriodicSamplerTest, StopFlushesThePartialTailWindow) {
  Simulator sim;
  CostModel cost = CostModel::Default();
  Env env{&sim, &cost};
  RateMeter meter;
  PeriodicSampler sampler(env, 100 * kMillisecond);
  sampler.AddRate(&meter);
  int hooks = 0;
  sampler.AddHook([&](SimTime) { ++hooks; });
  sampler.Start();
  // 2 full windows tick at 100 ms and 200 ms; then 4 completions land in the
  // half-open tail [200 ms, 250 ms) that the old Stop() silently discarded.
  sim.Schedule(220 * kMillisecond, [&]() { meter.RecordCompletion(4); });
  sim.RunUntil(250 * kMillisecond);
  sampler.Stop();
  ASSERT_EQ(meter.series().samples().size(), 3u);
  EXPECT_EQ(meter.series().samples()[2].at, 250 * kMillisecond);
  EXPECT_DOUBLE_EQ(meter.series().samples()[2].value, 80.0);  // 4 per 0.05 s.
  EXPECT_EQ(hooks, 3);
  EXPECT_EQ(meter.total(), 4u);
}

TEST(PeriodicSamplerTest, StopEndsTheTickChainAndIsIdempotent) {
  Simulator sim;
  CostModel cost = CostModel::Default();
  Env env{&sim, &cost};
  RateMeter meter;
  PeriodicSampler sampler(env, 100 * kMillisecond);
  sampler.AddRate(&meter);
  sampler.Start();
  sim.RunUntil(150 * kMillisecond);
  sampler.Stop();
  sampler.Stop();  // Second stop: no duplicate flush sample.
  const size_t at_stop = meter.series().samples().size();
  EXPECT_EQ(at_stop, 2u);  // 100 ms tick + 150 ms flush.
  // The pending 200 ms tick fires as a no-op: running on adds nothing and
  // the event queue drains (a leaked tick chain would run forever).
  sim.Run();
  EXPECT_EQ(meter.series().samples().size(), at_stop);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(PeriodicSamplerTest, StopAtAnExactTickBoundaryAddsNoEmptySample) {
  Simulator sim;
  CostModel cost = CostModel::Default();
  Env env{&sim, &cost};
  RateMeter meter;
  PeriodicSampler sampler(env, 100 * kMillisecond);
  sampler.AddRate(&meter);
  sampler.Start();
  sim.RunUntil(200 * kMillisecond);
  // The 200 ms tick already rolled; Stop() at the same instant must not
  // record a zero-width sample on top of it.
  sampler.Stop();
  EXPECT_EQ(meter.series().samples().size(), 2u);
}

}  // namespace
}  // namespace nadino
