#include "src/dpu/dpu.h"

#include <string>
#include <utility>

namespace nadino {

Dpu::Dpu(Env& env, NodeId node)
    : env_(&env), node_(node), dma_engine_(&env.sim(), "soc_dma:" + std::to_string(node)) {
  cores_.reserve(kDpuCores);
  for (int i = 0; i < kDpuCores; ++i) {
    cores_.push_back(std::make_unique<FifoResource>(
        &env.sim(), "dpu_core:" + std::to_string(node) + ":" + std::to_string(i),
        env.cost().dpu_speed_factor));
  }
}

SimDuration Dpu::SocDmaCost(uint64_t bytes) const {
  const double bytes_per_ns = env_->cost().soc_dma_gbps / 8.0;
  return env_->cost().soc_dma_base +
         static_cast<SimDuration>(static_cast<double>(bytes) / bytes_per_ns + 0.5);
}

void Dpu::SocDmaTransfer(uint64_t bytes, DmaCallback done, TenantId tenant, std::byte* payload,
                         size_t payload_len) {
  // kSocDma fault site. A drop still occupies the DMA engine for the full
  // service time (the transfer ran and failed), then completes with ok=false
  // so the caller recycles whatever it was staging. Corruption flips staged
  // payload bytes in place; delay models PCIe backpressure on the engine.
  const FaultDecision fault =
      env_->faults().Intercept(FaultSite::kSocDma, FaultScope{tenant, node_}, payload,
                               payload_len);
  ++soc_dma_transfers_;
  soc_dma_bytes_ += bytes;
  SimDuration service = SocDmaCost(bytes);
  if (fault.action == FaultAction::kDelay) {
    service += fault.delay;
  }
  const bool ok = fault.action != FaultAction::kDrop;
  dma_engine_.Submit(service, [done = std::move(done), ok]() {
    if (done) {
      done(ok);
    }
  });
}

}  // namespace nadino
