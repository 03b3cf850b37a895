// Tests for the structured tracer and its engine/gateway integration.

#include "src/sim/trace.h"

#include <gtest/gtest.h>

#include "src/core/experiments.h"
#include "src/runtime/message_header.h"

namespace nadino {
namespace {

TEST(TracerTest, RecordsWithVirtualTimestamps) {
  Simulator sim;
  Tracer tracer(&sim, 16);
  sim.Schedule(5 * kMicrosecond,
               [&]() { tracer.Record(TraceCategory::kApp, 1, "hello", 42, 43); });
  sim.Run();
  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].at, 5 * kMicrosecond);
  EXPECT_EQ(events[0].label, "hello");
  EXPECT_EQ(events[0].arg0, 42u);
  EXPECT_EQ(events[0].arg1, 43u);
}

TEST(TracerTest, RingDropsOldestBeyondCapacity) {
  Simulator sim;
  Tracer tracer(&sim, 4);
  for (int i = 0; i < 10; ++i) {
    tracer.Record(TraceCategory::kApp, 0, "e" + std::to_string(i));
  }
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().label, "e6");  // Oldest retained.
  EXPECT_EQ(events.back().label, "e9");
}

TEST(TracerTest, FilterAndCount) {
  Simulator sim;
  Tracer tracer(&sim, 64);
  tracer.Record(TraceCategory::kEngine, 1, "tx_post");
  tracer.Record(TraceCategory::kEngine, 2, "tx_post");
  tracer.Record(TraceCategory::kIpc, 1, "skmsg");
  EXPECT_EQ(tracer.CountLabel("tx_post"), 2u);
  const auto engine_events = tracer.Filter(
      [](const TraceEvent& e) { return e.category == TraceCategory::kEngine; });
  EXPECT_EQ(engine_events.size(), 2u);
}

TEST(TracerTest, ToTextRendersLines) {
  Simulator sim;
  Tracer tracer(&sim, 8);
  tracer.Record(TraceCategory::kIngress, 3, "http_request", 7, 256);
  const std::string text = tracer.ToText();
  EXPECT_NE(text.find("[ingress/3] http_request"), std::string::npos);
  EXPECT_NE(text.find("arg0=7"), std::string::npos);
}

TEST(TracerTest, EngineEmitsTxAndRxEvents) {
  CostModel cost = CostModel::Default();
  ClusterConfig config;
  config.worker_nodes = 2;
  config.with_ingress_node = false;
  Cluster cluster(&cost, config);
  cluster.CreateTenantPools(1, 512, 8192);
  Tracer tracer(&cluster.sim());
  cluster.env().SetTracer(&tracer);
  NadinoDataPlane dp(cluster.env(), &cluster.routing(), {});
  dp.AddWorkerNode(cluster.worker(0));
  dp.AddWorkerNode(cluster.worker(1));
  dp.AttachTenant(1, 1);
  dp.Start();
  FunctionRuntime src(11, 1, "s", cluster.worker(0), cluster.worker(0)->AllocateCore(),
                      cluster.worker(0)->tenants().PoolOfTenant(1));
  FunctionRuntime dst(12, 1, "d", cluster.worker(1), cluster.worker(1)->AllocateCore(),
                      cluster.worker(1)->tenants().PoolOfTenant(1));
  dp.RegisterFunction(&src);
  dp.RegisterFunction(&dst);
  dst.SetHandler([](FunctionRuntime& fn, Buffer* b) { fn.pool()->Put(b, fn.owner_id()); });
  Buffer* out = src.pool()->Get(src.owner_id());
  MessageHeader header;
  header.src = 11;
  header.dst = 12;
  header.payload_length = 777;
  WriteMessage(out, header);
  dp.Send(&src, out);
  cluster.sim().RunFor(10 * kMillisecond);
  EXPECT_EQ(tracer.CountLabel("tx_post"), 1u);
  EXPECT_EQ(tracer.CountLabel("rx_deliver"), 1u);
  // The RX event carries the destination function and wire length.
  const auto rx = tracer.Filter([](const TraceEvent& e) { return e.label == "rx_deliver"; });
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].arg0, 12u);
  EXPECT_EQ(rx[0].arg1, 777u + MessageHeader::kWireSize);
  // Chronology: the TX post precedes the RX delivery.
  const auto tx = tracer.Filter([](const TraceEvent& e) { return e.label == "tx_post"; });
  EXPECT_LT(tx[0].at, rx[0].at);
}

TEST(TracerTest, ClearResets) {
  Simulator sim;
  Tracer tracer(&sim, 8);
  tracer.Record(TraceCategory::kApp, 0, "x");
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_TRUE(tracer.Snapshot().empty());
}

}  // namespace
}  // namespace nadino
