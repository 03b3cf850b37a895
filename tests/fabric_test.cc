// Tests for the RDMA fabric: exact delivery times through the closed-form
// links, port contention, FIFO order at a shared downlink, and kLink faults
// intercepted on the destination's downlink.

#include "src/rdma/fabric.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/core/fault.h"

namespace nadino {
namespace {

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : fabric_(env_) {
    fabric_.AttachNode(1);
    fabric_.AttachNode(2);
    fabric_.AttachNode(3);
  }

  // Serialization time of `payload` bytes (plus header) on a fabric port.
  SimDuration Wire(uint64_t payload) const {
    return port_.SerializationTime(payload + kWireHeaderBytes);
  }

  // Delivery time of one message between idle ports.
  SimDuration Crossing(uint64_t payload) const {
    return 2 * (Wire(payload) + cost_.link_propagation) + cost_.switch_latency;
  }

  CostModel cost_ = CostModel::Default();
  Simulator sim_;
  Env env_{&sim_, &cost_};
  Fabric fabric_;
  Fabric::DirectSender sender_ = fabric_.AttachDirectSender();
  const Link port_{&sim_, cost_.fabric_gbps, cost_.link_propagation};
};

TEST_F(FabricTest, DeliversWithSerializationAndPropagation) {
  SimTime delivered_at = 0;
  sender_.Send(1, 2, 1000, [&]() { delivered_at = sim_.now(); });
  sim_.Run();
  // Two link traversals (serialize + propagate each) plus the switch hop.
  EXPECT_EQ(delivered_at, 2 * (Wire(1000) + cost_.link_propagation) + cost_.switch_latency);
  EXPECT_EQ(fabric_.messages_delivered(), 1u);
  // One event where the message reaches the downlink, one delivery.
  EXPECT_EQ(sim_.events_processed(), 2u);
}

TEST_F(FabricTest, SharedUplinkSerializesSenders) {
  // Two large messages from node 1 serialize on its uplink even when headed
  // to different destinations.
  SimTime first = 0;
  SimTime second = 0;
  sender_.Send(1, 2, 1000000, [&]() { first = sim_.now(); });
  sender_.Send(1, 3, 1000000, [&]() { second = sim_.now(); });
  sim_.Run();
  const SimDuration wire = 1000060LL * 8 / 200;
  EXPECT_GT(second, first + wire / 2);
}

TEST_F(FabricTest, DistinctUplinksRunInParallel) {
  SimTime to_two = 0;
  SimTime to_three = 0;
  sender_.Send(1, 2, 1000000, [&]() { to_two = sim_.now(); });
  sender_.Send(3, 2, 1000000, [&]() { to_three = sim_.now(); });
  sim_.Run();
  // Different sources: only node 2's downlink is shared; arrivals are within
  // one serialization of each other, not two.
  const SimDuration wire = 1000060LL * 8 / 200;
  EXPECT_LT(std::max(to_two, to_three), std::min(to_two, to_three) + 2 * wire);
}

TEST_F(FabricTest, UplinkBacklogDeliversAtMultiplesOfSerialization) {
  // Ten equal messages queue on node 1's uplink. Each reaches node 2's
  // downlink just as the one before it finishes there, so deliveries are
  // exactly one serialization time apart and nothing else is added.
  constexpr uint64_t kPayload = 500000;
  std::vector<SimTime> delivered;
  for (int i = 0; i < 10; ++i) {
    sender_.Send(1, 2, kPayload, [&]() { delivered.push_back(sim_.now()); });
  }
  sim_.Run();
  ASSERT_EQ(delivered.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(delivered[i], Crossing(kPayload) + i * Wire(kPayload)) << "message " << i;
  }
  EXPECT_EQ(fabric_.messages_delivered(), 10u);
  EXPECT_EQ(sim_.events_processed(), 20u);
}

TEST_F(FabricTest, ConvergingSourcesShareTheDownlinkInArrivalOrder) {
  // Node 1's uplink is busy with a message to node 2, so its message to node
  // 3 (sent first) reaches node 3's downlink after node 2's larger message
  // (sent second). The downlink serves them in order of arrival after the
  // switch, not in order of Send: node 1's message waits behind node 2's.
  constexpr uint64_t kSmall = 100000;
  constexpr uint64_t kLarge = 150000;
  SimTime blocker = 0;
  SimTime first_sent = 0;
  SimTime second_sent = 0;
  sender_.Send(1, 2, kSmall, [&]() { blocker = sim_.now(); });
  sender_.Send(1, 3, kSmall, [&]() { first_sent = sim_.now(); });
  sender_.Send(2, 3, kLarge, [&]() { second_sent = sim_.now(); });
  sim_.Run();
  EXPECT_EQ(blocker, Crossing(kSmall));
  EXPECT_EQ(second_sent, Crossing(kLarge));
  // Node 1's message reaches the downlink while node 2's still serializes.
  const SimTime first_at_downlink =
      2 * Wire(kSmall) + cost_.link_propagation + cost_.switch_latency;
  const SimTime downlink_free = second_sent - cost_.link_propagation;
  ASSERT_LT(first_at_downlink, downlink_free);
  EXPECT_EQ(first_sent, downlink_free + Wire(kSmall) + cost_.link_propagation);
}

// kLink specs scoped to the destination node match only its downlink, which
// intercepts when the message arrives there, after the uplink and the switch.
class FabricDownlinkFaultTest : public FabricTest {
 protected:
  static constexpr TenantId kTenant = 4;
  static constexpr uint64_t kPayload = 4096;

  FaultSpec DownlinkSpec(FaultAction action) const {
    FaultSpec spec;
    spec.site = FaultSite::kLink;
    spec.action = action;
    spec.node = 2;
    // Opens after Send: a spec that matched at Send time would miss it.
    spec.window_start = 1;
    return spec;
  }

  uint64_t Injected(const char* name) const {
    MetricLabels labels;
    labels.tenant = kTenant;
    labels.node = 2;
    return env_.metrics().ValueOf(name, labels);
  }

  std::vector<SimTime> SendOne() {
    std::vector<SimTime> delivered;
    sender_.Send(1, 2, kPayload, [&delivered, this]() { delivered.push_back(sim_.now()); },
                 kTenant);
    sim_.Run();
    return delivered;
  }
};

TEST_F(FabricDownlinkFaultTest, DropOnDownlinkNeverDelivers) {
  ASSERT_GE(env_.faults().Install(DownlinkSpec(FaultAction::kDrop)), 0);
  EXPECT_TRUE(SendOne().empty());
  EXPECT_EQ(fabric_.messages_delivered(), 0u);
  EXPECT_EQ(Injected("fault_injected_link_drop"), 1u);
}

TEST_F(FabricDownlinkFaultTest, DelayOnDownlinkStretchesDelivery) {
  FaultSpec spec = DownlinkSpec(FaultAction::kDelay);
  spec.delay = 70000;
  ASSERT_GE(env_.faults().Install(spec), 0);
  EXPECT_EQ(SendOne(), std::vector<SimTime>{Crossing(kPayload) + 70000});
  EXPECT_EQ(Injected("fault_injected_link_delay"), 1u);
}

TEST_F(FabricDownlinkFaultTest, DuplicateOnDownlinkSerializesTwice) {
  ASSERT_GE(env_.faults().Install(DownlinkSpec(FaultAction::kDuplicate)), 0);
  // The copy departs first; the original serializes behind it.
  EXPECT_EQ(SendOne(), (std::vector<SimTime>{Crossing(kPayload),
                                             Crossing(kPayload) + Wire(kPayload)}));
  EXPECT_EQ(fabric_.messages_delivered(), 2u);
  EXPECT_EQ(Injected("fault_injected_link_duplicate"), 1u);
}

TEST_F(FabricTest, AttachIsIdempotent) {
  fabric_.AttachNode(1);
  SimTime delivered = 0;
  sender_.Send(1, 2, 64, [&]() { delivered = sim_.now(); });
  sim_.Run();
  EXPECT_GT(delivered, 0);
}

}  // namespace
}  // namespace nadino
