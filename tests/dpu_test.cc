// Tests for the DPU model: wimpy cores, SoC DMA, cross-processor mmap, and
// the Comch channel variants.

#include "src/dpu/comch.h"
#include "src/dpu/cross_mmap.h"
#include "src/dpu/dpu.h"

#include <gtest/gtest.h>

#include "src/mem/tenant_registry.h"
#include "src/rdma/rdma_engine.h"
#include "tests/registry_read.h"

namespace nadino {
namespace {

TEST(DpuTest, CoresAreWimpy) {
  CostModel cost = CostModel::Default();
  Simulator sim;
  Env env{&sim, &cost};
  Dpu dpu(env, 1);
  EXPECT_EQ(dpu.num_cores(), kDpuCores);
  SimTime done = 0;
  dpu.core(0).Submit(1000, [&]() { done = sim.now(); });
  sim.Run();
  EXPECT_EQ(done, static_cast<SimTime>(1000 * cost.dpu_speed_factor));
}

TEST(DpuTest, SocDmaCostMatchesCalibration) {
  CostModel cost = CostModel::Default();
  Simulator sim;
  Env env{&sim, &cost};
  Dpu dpu(env, 1);
  // 64 B read ~= 2.6 us (paper section 4.1.1, citing [95]).
  EXPECT_NEAR(static_cast<double>(dpu.SocDmaCost(64)), 2600.0, 100.0);
  EXPECT_GT(dpu.SocDmaCost(65536), dpu.SocDmaCost(64));
}

TEST(DpuTest, SocDmaSerializesTransfers) {
  CostModel cost = CostModel::Default();
  Simulator sim;
  Env env{&sim, &cost};
  Dpu dpu(env, 1);
  SimTime first = 0;
  SimTime second = 0;
  dpu.SocDmaTransfer(64, [&](bool) { first = sim.now(); });
  dpu.SocDmaTransfer(64, [&](bool) { second = sim.now(); });
  sim.Run();
  EXPECT_GE(second, first * 2 - 10);
  EXPECT_EQ(dpu.soc_dma_transfers(), 2u);
}

class CrossMmapTest : public ::testing::Test {
 protected:
  CrossMmapTest() : network_(env_), rnic_(env_, 1, &network_) {
    pool_ = registry_.CreatePool(1, "t1", {8, 256});
  }

  CostModel cost_ = CostModel::Default();
  Simulator sim_;
  Env env_{&sim_, &cost_};
  RdmaNetwork network_;
  RdmaEngine rnic_;
  TenantRegistry registry_;
  BufferPool* pool_ = nullptr;
  HostMemoryExporter exporter_;
};

TEST_F(CrossMmapTest, ExportImportGrantsAccess) {
  DpuMmapTable table(&exporter_);
  const MmapExportDescriptor desc = exporter_.Export(pool_, true, true);
  ASSERT_TRUE(table.CreateFromExport(desc, pool_));
  EXPECT_TRUE(table.CanPciAccess(pool_->id()));
  EXPECT_TRUE(table.CanRdmaRegister(pool_->id()));
}

TEST_F(CrossMmapTest, ForgedDescriptorRejected) {
  DpuMmapTable table(&exporter_);
  MmapExportDescriptor forged;
  forged.pool = pool_->id();
  forged.pci_access = true;
  forged.rdma_access = true;
  forged.auth = 0xDEADBEEF;
  EXPECT_FALSE(table.CreateFromExport(forged, pool_));
  EXPECT_EQ(table.rejected_imports(), 1u);
  EXPECT_FALSE(table.CanPciAccess(pool_->id()));
}

TEST_F(CrossMmapTest, EscalatedFlagsRejected) {
  DpuMmapTable table(&exporter_);
  // Host exported PCI-only; the DPU tries to claim RDMA rights too.
  MmapExportDescriptor desc = exporter_.Export(pool_, true, false);
  desc.rdma_access = true;
  EXPECT_FALSE(table.CreateFromExport(desc, pool_));
}

TEST_F(CrossMmapTest, RnicRegistrationRequiresRdmaExport) {
  DpuMmapTable table(&exporter_);
  const MmapExportDescriptor pci_only = exporter_.Export(pool_, true, false);
  ASSERT_TRUE(table.CreateFromExport(pci_only, pool_));
  EXPECT_FALSE(table.RegisterWithRnic(pool_->id(), &rnic_, kMrLocal));
  EXPECT_FALSE(rnic_.mr_table().IsRegistered(pool_->id()));

  const MmapExportDescriptor full = exporter_.Export(pool_, true, true);
  ASSERT_TRUE(table.CreateFromExport(full, pool_));
  EXPECT_TRUE(table.RegisterWithRnic(pool_->id(), &rnic_, kMrLocal));
  EXPECT_TRUE(rnic_.mr_table().IsRegistered(pool_->id()));
}

class ComchTest : public ::testing::Test {
 protected:
  ComchTest() {
    dpu_core_ = std::make_unique<FifoResource>(&sim_, "dpu", cost_.dpu_speed_factor);
    host_core_ = std::make_unique<FifoResource>(&sim_, "host");
    server_ = std::make_unique<ComchServer>(env_, dpu_core_.get());
  }

  CostModel cost_ = CostModel::Default();
  Simulator sim_;
  Env env_{&sim_, &cost_};
  std::unique_ptr<FifoResource> dpu_core_;
  std::unique_ptr<FifoResource> host_core_;
  std::unique_ptr<ComchServer> server_;
};

TEST_F(ComchTest, RoundTripDeliversDescriptor) {
  BufferDescriptor received_at_dpu;
  BufferDescriptor received_at_host;
  bool host_got = false;
  server_->SetReceiver([&](FunctionId fn, const BufferDescriptor& desc) {
    received_at_dpu = desc;
    server_->SendToHost(fn, desc);
  });
  server_->ConnectEndpoint(7, ComchVariant::kEvent, host_core_.get(),
                           [&](const BufferDescriptor& desc) {
                             received_at_host = desc;
                             host_got = true;
                           });
  const BufferDescriptor sent{3, 14, 159, 26};
  server_->SendToDpu(7, sent);
  sim_.Run();
  EXPECT_TRUE(host_got);
  EXPECT_EQ(received_at_dpu, sent);
  EXPECT_EQ(received_at_host, sent);
  EXPECT_EQ(server_->messages_to_dpu(), 1u);
  EXPECT_EQ(server_->messages_to_host(), 1u);
}

TEST_F(ComchTest, SendToUnconnectedEndpointDropped) {
  server_->SendToDpu(99, BufferDescriptor{});
  sim_.Run();
  // No node and no tenant to attribute: the drop lands on the unlabelled key.
  EXPECT_EQ(RegistryCounter(env_.metrics(), "comch_dropped"), 1u);
}

// A descriptor in flight to the host is delivered to whatever endpoint the
// function has when it arrives: a reconnect replaces the receiver, and a
// receiver-less endpoint drops it on arrival, counted.
TEST_F(ComchTest, InFlightDescriptorReachesTheReplacedEndpoint) {
  int first = 0;
  int second = 0;
  server_->ConnectEndpoint(7, ComchVariant::kEvent, host_core_.get(),
                           [&](const BufferDescriptor&) { ++first; });
  ASSERT_TRUE(server_->SendToHost(7, BufferDescriptor{}));
  server_->ConnectEndpoint(7, ComchVariant::kEvent, host_core_.get(),
                           [&](const BufferDescriptor&) { ++second; });
  sim_.Run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);

  ASSERT_TRUE(server_->SendToHost(7, BufferDescriptor{}));
  server_->ConnectEndpoint(7, ComchVariant::kEvent, host_core_.get(), nullptr);
  sim_.Run();
  EXPECT_EQ(second, 1);
  EXPECT_EQ(RegistryCounter(env_.metrics(), "comch_dropped"), 1u);
}

TEST_F(ComchTest, PollingVariantPinsHostCore) {
  EXPECT_FALSE(host_core_->pinned());
  server_->ConnectEndpoint(1, ComchVariant::kPolling, host_core_.get(),
                           [](const BufferDescriptor&) {});
  EXPECT_TRUE(host_core_->pinned());
  EXPECT_EQ(server_->polling_endpoints(), 1);
}

TEST_F(ComchTest, EventVariantDoesNotPin) {
  server_->ConnectEndpoint(1, ComchVariant::kEvent, host_core_.get(),
                           [](const BufferDescriptor&) {});
  EXPECT_FALSE(host_core_->pinned());
}

TEST_F(ComchTest, ProgressEngineSweepGrowsWithPollingEndpoints) {
  // The DPU-side cost per message grows linearly with the number of polling
  // endpoints — the Fig. 9 Comch-P scalability wall.
  std::vector<std::unique_ptr<FifoResource>> cores;
  server_->SetReceiver([&](FunctionId fn, const BufferDescriptor& desc) {
    server_->SendToHost(fn, desc);
  });
  SimTime done = 0;
  bool got = false;
  server_->ConnectEndpoint(1, ComchVariant::kPolling, host_core_.get(),
                           [&](const BufferDescriptor&) {
                             done = sim_.now();
                             got = true;
                           });
  auto round_trip = [&]() {
    got = false;
    const SimTime start = sim_.now();
    server_->SendToDpu(1, BufferDescriptor{});
    sim_.Run();
    EXPECT_TRUE(got);
    return done - start;
  };
  const SimTime rtt_with_1 = round_trip();
  for (int i = 0; i < 8; ++i) {
    cores.push_back(std::make_unique<FifoResource>(&sim_, "h"));
    server_->ConnectEndpoint(static_cast<FunctionId>(100 + i), ComchVariant::kPolling,
                             cores.back().get(), [](const BufferDescriptor&) {});
  }
  const SimTime rtt_with_9 = round_trip();
  EXPECT_GT(rtt_with_9, rtt_with_1 + 8 * cost_.comch_p_progress_sweep_per_endpoint);
}

}  // namespace
}  // namespace nadino
