// The unified FaultPlane (src/core/fault.h): spec matching, per-site action
// support, determinism, payload corruption, trace emission, and the
// wire-level micro-behaviors (link/fabric drop, delay, duplicate).
//
// The end-to-end contract — equal seed + equal spec list ⇒ byte-identical
// metrics snapshots — is asserted here against the RunMultiTenant experiment.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "src/core/experiments.h"
#include "src/core/fault.h"
#include "src/dpu/comch.h"
#include "src/mem/buffer.h"
#include "src/rdma/fabric.h"
#include "src/sim/link.h"
#include "tests/registry_read.h"

namespace nadino {
namespace {

FaultSpec DropAt(FaultSite site) {
  FaultSpec spec;
  spec.site = site;
  spec.action = FaultAction::kDrop;
  return spec;
}

class FaultPlaneTest : public ::testing::Test {
 protected:
  CostModel cost_ = CostModel::Default();
  Simulator sim_;
  Env env_{&sim_, &cost_};
  FaultPlane& plane_ = env_.faults();
};

TEST_F(FaultPlaneTest, UnarmedSiteDrawsNothingAndPasses) {
  for (size_t i = 0; i < kFaultSiteCount; ++i) {
    const FaultDecision d = plane_.Intercept(static_cast<FaultSite>(i), FaultScope{});
    EXPECT_EQ(d.action, FaultAction::kPass);
  }
  EXPECT_EQ(plane_.injected_total(), 0u);
  // The workload stream is untouched: Env's rng produces the same sequence
  // as a fresh Env with the same seed.
  Simulator sim2;
  Env fresh{&sim2, &cost_};
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(env_.rng().NextU64(), fresh.rng().NextU64());
  }
}

TEST_F(FaultPlaneTest, InstallRejectsUnsupportedActions) {
  // Descriptor channels cannot duplicate (a duplicated descriptor would
  // double-free its buffer); SK_MSG and the ingress transport carry no
  // payload to corrupt; kPass is never installable.
  FaultSpec spec;
  spec.site = FaultSite::kComch;
  spec.action = FaultAction::kDuplicate;
  EXPECT_EQ(plane_.Install(spec), -1);
  spec.site = FaultSite::kSkMsg;
  spec.action = FaultAction::kCorrupt;
  EXPECT_EQ(plane_.Install(spec), -1);
  spec.site = FaultSite::kTransport;
  spec.action = FaultAction::kDuplicate;
  EXPECT_EQ(plane_.Install(spec), -1);
  spec.site = FaultSite::kLink;
  spec.action = FaultAction::kCorrupt;  // Links move opaque byte counts.
  EXPECT_EQ(plane_.Install(spec), -1);
  spec.action = FaultAction::kPass;
  EXPECT_EQ(plane_.Install(spec), -1);
  EXPECT_EQ(plane_.armed(), 0u);

  // Every entry in the support matrix is installable.
  for (size_t i = 0; i < kFaultSiteCount; ++i) {
    const auto site = static_cast<FaultSite>(i);
    const uint8_t mask = FaultSiteSupportedActions(site);
    for (FaultAction action : {FaultAction::kDrop, FaultAction::kDelay, FaultAction::kDuplicate,
                               FaultAction::kCorrupt}) {
      FaultSpec s;
      s.site = site;
      s.action = action;
      const bool supported =
          (mask & (action == FaultAction::kDrop        ? kFaultCanDrop
                   : action == FaultAction::kDelay     ? kFaultCanDelay
                   : action == FaultAction::kDuplicate ? kFaultCanDuplicate
                                                       : kFaultCanCorrupt)) != 0;
      EXPECT_EQ(plane_.Install(s) >= 0, supported)
          << FaultSiteName(site) << "/" << FaultActionName(action);
    }
  }
}

TEST_F(FaultPlaneTest, OneShotFiresExactlyOnceAtOrAfterT) {
  FaultSpec spec = DropAt(FaultSite::kDneTx);
  spec.one_shot = true;
  spec.at = 5000;
  ASSERT_GE(plane_.Install(spec), 0);

  std::vector<FaultAction> seen;
  for (SimTime t : {1000, 4999, 5000, 5001, 9000}) {
    sim_.ScheduleAt(t, [this, &seen]() {
      seen.push_back(plane_.Intercept(FaultSite::kDneTx, FaultScope{}).action);
    });
  }
  sim_.Run();
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen[0], FaultAction::kPass);
  EXPECT_EQ(seen[1], FaultAction::kPass);
  EXPECT_EQ(seen[2], FaultAction::kDrop);  // First crossing at/after `at`.
  EXPECT_EQ(seen[3], FaultAction::kPass);  // Latched: never again.
  EXPECT_EQ(seen[4], FaultAction::kPass);
  EXPECT_EQ(plane_.injected_total(), 1u);
}

TEST_F(FaultPlaneTest, BurstWindowBoundsInjection) {
  FaultSpec spec = DropAt(FaultSite::kComch);
  spec.window_start = 2000;
  spec.window_end = 4000;
  ASSERT_GE(plane_.Install(spec), 0);

  std::vector<FaultAction> seen;
  for (SimTime t : {1999, 2000, 3999, 4000}) {
    sim_.ScheduleAt(t, [this, &seen]() {
      seen.push_back(plane_.Intercept(FaultSite::kComch, FaultScope{}).action);
    });
  }
  sim_.Run();
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], FaultAction::kPass);  // Before [start, end).
  EXPECT_EQ(seen[1], FaultAction::kDrop);
  EXPECT_EQ(seen[2], FaultAction::kDrop);
  EXPECT_EQ(seen[3], FaultAction::kPass);  // end is exclusive.
}

TEST_F(FaultPlaneTest, ScopeNarrowsToTenantAndNode) {
  FaultSpec spec = DropAt(FaultSite::kDneRx);
  spec.tenant = 7;
  spec.node = 2;
  ASSERT_GE(plane_.Install(spec), 0);

  EXPECT_EQ(plane_.Intercept(FaultSite::kDneRx, FaultScope{7, 1}).action, FaultAction::kPass);
  EXPECT_EQ(plane_.Intercept(FaultSite::kDneRx, FaultScope{8, 2}).action, FaultAction::kPass);
  EXPECT_EQ(plane_.Intercept(FaultSite::kDneRx, FaultScope{}).action, FaultAction::kPass);
  EXPECT_EQ(plane_.Intercept(FaultSite::kDneRx, FaultScope{7, 2}).action, FaultAction::kDrop);
  // The registry instrument carries the crossing's scope as labels.
  MetricLabels labels;
  labels.tenant = 7;
  labels.node = 2;
  EXPECT_EQ(env_.metrics().ValueOf("fault_injected_dne_rx_drop", labels), 1u);
}

TEST_F(FaultPlaneTest, MaxInjectionsExhaustsTheSpec) {
  FaultSpec spec = DropAt(FaultSite::kSkMsg);
  spec.max_injections = 3;
  ASSERT_GE(plane_.Install(spec), 0);
  int drops = 0;
  for (int i = 0; i < 10; ++i) {
    if (plane_.Intercept(FaultSite::kSkMsg, FaultScope{}).action == FaultAction::kDrop) {
      ++drops;
    }
  }
  EXPECT_EQ(drops, 3);
  EXPECT_EQ(plane_.injected_at(FaultSite::kSkMsg), 3u);
}

TEST_F(FaultPlaneTest, DelayReturnsTheSpecDelta) {
  FaultSpec spec;
  spec.site = FaultSite::kRnicTx;
  spec.action = FaultAction::kDelay;
  spec.delay = 12345;
  ASSERT_GE(plane_.Install(spec), 0);
  const FaultDecision d = plane_.Intercept(FaultSite::kRnicTx, FaultScope{});
  EXPECT_EQ(d.action, FaultAction::kDelay);
  EXPECT_EQ(d.delay, 12345);
}

TEST_F(FaultPlaneTest, CorruptFlipsExactlyOneByteAndChecksumsCatchIt) {
  FaultSpec spec;
  spec.site = FaultSite::kRnicRx;
  spec.action = FaultAction::kCorrupt;
  ASSERT_GE(plane_.Install(spec), 0);

  std::vector<std::byte> payload(256, std::byte{0xAB});
  const uint64_t before = Checksum(payload);
  const FaultDecision d =
      plane_.Intercept(FaultSite::kRnicRx, FaultScope{}, payload.data(), payload.size());
  EXPECT_EQ(d.action, FaultAction::kCorrupt);
  EXPECT_NE(Checksum(payload), before);  // No silent corruption.
  int flipped = 0;
  for (const std::byte b : payload) {
    if (b != std::byte{0xAB}) {
      ++flipped;
    }
  }
  EXPECT_EQ(flipped, 1);
}

TEST_F(FaultPlaneTest, CorruptWithoutPayloadIsSkippedUncounted) {
  FaultSpec spec;
  spec.site = FaultSite::kSocDma;
  spec.action = FaultAction::kCorrupt;
  ASSERT_GE(plane_.Install(spec), 0);
  const FaultDecision d = plane_.Intercept(FaultSite::kSocDma, FaultScope{});
  EXPECT_EQ(d.action, FaultAction::kPass);
  EXPECT_EQ(plane_.injected_total(), 0u);
}

TEST_F(FaultPlaneTest, EqualSeedAndSpecYieldIdenticalDecisions) {
  // Two planes, same seed, same probabilistic spec, same crossing sequence:
  // the decision streams must match exactly.
  Simulator sim_b;
  Env env_b{&sim_b, &cost_, env_.seed()};
  FaultSpec spec = DropAt(FaultSite::kFabric);
  spec.probability = 0.3;
  ASSERT_GE(env_.faults().Install(spec), 0);
  ASSERT_GE(env_b.faults().Install(spec), 0);
  int drops = 0;
  for (int i = 0; i < 200; ++i) {
    const FaultAction a = env_.faults().Intercept(FaultSite::kFabric, FaultScope{}).action;
    const FaultAction b = env_b.faults().Intercept(FaultSite::kFabric, FaultScope{}).action;
    ASSERT_EQ(a, b) << "diverged at crossing " << i;
    drops += a == FaultAction::kDrop ? 1 : 0;
  }
  EXPECT_GT(drops, 20);   // ~60 expected; the stream is genuinely random...
  EXPECT_LT(drops, 120);  // ...but seeded.
  EXPECT_EQ(env_.faults().injected_total(), env_b.faults().injected_total());
}

TEST_F(FaultPlaneTest, InjectionsLandInTraceRing) {
  Tracer tracer(&sim_);
  env_.SetTracer(&tracer);
  FaultSpec spec = DropAt(FaultSite::kComch);
  spec.tenant = 3;
  spec.node = 1;
  ASSERT_GE(plane_.Install(spec), 0);
  ASSERT_EQ(plane_.Intercept(FaultSite::kComch, FaultScope{3, 1}).action, FaultAction::kDrop);

  const auto events = tracer.Filter(
      [](const TraceEvent& e) { return e.category == TraceCategory::kFault; });
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].label, "comch/drop");
  EXPECT_EQ(events[0].actor, 1u);  // The crossing's node.
  EXPECT_EQ(events[0].arg0, 3u);   // The crossing's tenant.
  EXPECT_EQ(events[0].arg1, 1u);   // Running injection total.
}

// --- Wire-level micro-behaviors ---------------------------------------------

TEST_F(FaultPlaneTest, LinkDropNeverDeliversAndCounts) {
  FaultSpec spec = DropAt(FaultSite::kLink);
  spec.max_injections = 1;
  ASSERT_GE(plane_.Install(spec), 0);
  Link link(&sim_, 200.0, 500, &plane_, 1);
  int delivered = 0;
  link.Transfer(1024, [&]() { ++delivered; }, /*tenant=*/1);
  link.Transfer(1024, [&]() { ++delivered; }, /*tenant=*/1);
  sim_.Run();
  EXPECT_EQ(delivered, 1);  // Second transfer passes (spec exhausted).
  EXPECT_EQ(link.dropped(), 1u);
  EXPECT_EQ(env_.metrics().ValueOf("fault_injected_link_drop", MetricLabels::Tenant(1)), 0u);
  MetricLabels labels;
  labels.tenant = 1;
  labels.node = 1;
  EXPECT_EQ(env_.metrics().ValueOf("fault_injected_link_drop", labels), 1u);
}

TEST_F(FaultPlaneTest, LinkDuplicateDeliversTwice) {
  FaultSpec spec;
  spec.site = FaultSite::kLink;
  spec.action = FaultAction::kDuplicate;
  spec.max_injections = 1;
  ASSERT_GE(plane_.Install(spec), 0);
  Link link(&sim_, 200.0, 500, &plane_, 1);
  int delivered = 0;
  link.Transfer(1024, [&]() { ++delivered; });
  sim_.Run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.bytes_transferred(), 2048u);
}

TEST_F(FaultPlaneTest, LinkDelayStretchesArrival) {
  Link baseline(&sim_, 200.0, 500, &plane_, 1);
  SimTime clean_arrival = 0;
  baseline.Transfer(1024, [&]() { clean_arrival = sim_.now(); });
  sim_.Run();

  FaultSpec spec;
  spec.site = FaultSite::kLink;
  spec.action = FaultAction::kDelay;
  spec.delay = 70000;
  Simulator sim2;
  Env env2{&sim2, &cost_};
  ASSERT_GE(env2.faults().Install(spec), 0);
  Link slow(&sim2, 200.0, 500, &env2.faults(), 1);
  SimTime slow_arrival = 0;
  slow.Transfer(1024, [&]() { slow_arrival = sim2.now(); });
  sim2.Run();
  EXPECT_EQ(slow_arrival, clean_arrival + 70000);
}

TEST_F(FaultPlaneTest, FabricDropAndDuplicate) {
  Fabric fabric(env_);
  fabric.AttachNode(1);
  fabric.AttachNode(2);
  FaultSpec spec = DropAt(FaultSite::kFabric);
  spec.max_injections = 1;
  ASSERT_GE(plane_.Install(spec), 0);
  FaultSpec dup;
  dup.site = FaultSite::kFabric;
  dup.action = FaultAction::kDuplicate;
  dup.max_injections = 1;
  ASSERT_GE(plane_.Install(dup), 0);

  int delivered = 0;
  Fabric::DirectSender sender = fabric.AttachDirectSender();
  sender.Send(1, 2, 4096, [&]() { ++delivered; }, /*tenant=*/5);  // Dropped: 0.
  sender.Send(1, 2, 4096, [&]() { ++delivered; }, /*tenant=*/5);  // Duplicated: 2.
  sim_.Run();
  EXPECT_EQ(delivered, 2);
  MetricLabels labels;
  labels.tenant = 5;
  labels.node = 1;  // kFabric scopes to the source port.
  EXPECT_EQ(env_.metrics().ValueOf("fault_injected_fabric_drop", labels), 1u);
  EXPECT_EQ(env_.metrics().ValueOf("fault_injected_fabric_duplicate", labels), 1u);
}

// A dropped delivery is counted on exactly one path: the comch_dropped
// registry counter of the endpoint's (node, tenant). No other comch_dropped
// key moves, so the per-tenant counter and the sum over every key agree.
TEST_F(FaultPlaneTest, ComchDropCountedOnOneRegistryKey) {
  FifoResource dpu_core(&sim_, "dpu", cost_.dpu_speed_factor);
  FifoResource host_core(&sim_, "host");
  ComchServer server(env_, &dpu_core, /*engine_managed_polling=*/false, /*node=*/3);
  server.SetReceiver([](FunctionId, const BufferDescriptor&) {});
  server.ConnectEndpoint(7, ComchVariant::kEvent, &host_core,
                         [](const BufferDescriptor&) {}, /*tenant=*/5);

  MetricLabels labels;
  labels.tenant = 5;
  labels.node = 3;
  // Created on the first drop; the strict reads below pin the key's spelling.
  EXPECT_FALSE(RegistryHas(env_.metrics(), "comch_dropped", labels));

  // One injected kComch drop => exactly one increment, on exactly one key.
  FaultSpec spec = DropAt(FaultSite::kComch);
  spec.max_injections = 1;
  ASSERT_GE(plane_.Install(spec), 0);
  EXPECT_FALSE(server.SendToDpu(7, BufferDescriptor{1, 2, 3, 4}));
  sim_.Run();
  EXPECT_EQ(RegistryCounter(env_.metrics(), "comch_dropped", labels), 1u);
  EXPECT_EQ(RegistryCounterSum(env_.metrics(), "comch_dropped"), 1u);
  EXPECT_EQ(server.messages_to_dpu(), 0u);
}

// --- End-to-end determinism under chaos --------------------------------------

TEST(FaultPlaneE2eTest, EqualSeedEqualSpecByteIdenticalSnapshots) {
  CostModel cost = CostModel::Default();
  MultiTenantOptions options;
  options.duration = 150 * kMillisecond;
  options.sample_period = 50 * kMillisecond;
  options.seed = 0xFEEDFACEull;
  options.tenants.push_back(TenantScenario{1, 1, 0, 150 * kMillisecond, 32, 1024});
  options.tenants.push_back(TenantScenario{2, 2, 0, 150 * kMillisecond, 32, 1024});
  FaultSpec drop = DropAt(FaultSite::kDneTx);
  drop.probability = 0.002;
  drop.max_injections = 8;  // Keep well below the tenants' windows.
  options.faults.push_back(drop);
  FaultSpec delay;
  delay.site = FaultSite::kRnicTx;
  delay.action = FaultAction::kDelay;
  delay.probability = 0.01;
  delay.delay = 5 * kMicrosecond;
  options.faults.push_back(delay);

  const MultiTenantResult a = RunMultiTenant(cost, options);
  const MultiTenantResult b = RunMultiTenant(cost, options);
  EXPECT_EQ(a.metrics_text, b.metrics_text);  // Byte-identical.
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  // Faults actually fired and are visible in the snapshot.
  EXPECT_NE(a.metrics_text.find("fault_injected_dne_tx_drop"), std::string::npos);
  EXPECT_NE(a.metrics_text.find("fault_injected_rnic_tx_delay"), std::string::npos);

  // A different seed moves the injection points: the snapshots diverge.
  options.seed = 0xBADC0FFEEull;
  const MultiTenantResult c = RunMultiTenant(cost, options);
  EXPECT_NE(a.metrics_text, c.metrics_text);
}

}  // namespace
}  // namespace nadino
