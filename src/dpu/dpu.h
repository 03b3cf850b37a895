// BlueField-2-class DPU SoC model.
//
// The DPU contributes three resources the paper's design reasons about:
//   * wimpy general-purpose ARM cores (A72 @ <=2.5 GHz vs host Xeon @ 3.7 GHz):
//     modelled as FifoResources with a speed factor > 1;
//   * a SoC DMA engine for host<->DPU staging: low per-op latency when idle
//     (2.6 us for 64 B [95]) but poor throughput under concurrency — the
//     reason on-path offloading loses (section 4.1.1);
//   * the integrated RNIC, which DMAs at line rate directly into *host*
//     memory and is modelled separately (src/rdma/rdma_engine.h).

#ifndef SRC_DPU_DPU_H_
#define SRC_DPU_DPU_H_

#include <memory>
#include <vector>

#include "src/core/env.h"
#include "src/core/types.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"

namespace nadino {

// Arm cores per DPU: a BlueField-2 carries eight.
inline constexpr int kDpuCores = 8;

class Dpu {
 public:
  Dpu(Env& env, NodeId node);

  Dpu(const Dpu&) = delete;
  Dpu& operator=(const Dpu&) = delete;

  NodeId node() const { return node_; }
  int num_cores() const { return static_cast<int>(cores_.size()); }

  // A wimpy ARM core. Jobs submitted here should use *host-CPU-equivalent*
  // service times; the core's speed factor applies the DPU penalty.
  FifoResource& core(int i) { return *cores_.at(static_cast<size_t>(i)); }

  // The shared SoC DMA engine (one per DPU; transfers serialize on it).
  FifoResource& dma_engine() { return dma_engine_; }

  // `done(false)` means an injected kSocDma drop killed the transfer: the
  // engine time was still charged, but the data did NOT land — the caller
  // must recycle the buffer it was staging.
  using DmaCallback = std::function<void(bool ok)>;

  // Queues a host<->SoC staging transfer of `bytes` through the SoC DMA
  // engine; `done(ok)` fires when the transfer finishes. `tenant` scopes
  // fault interception; `payload`/`payload_len`, when provided, expose the
  // staged bytes for kCorrupt flips.
  void SocDmaTransfer(uint64_t bytes, DmaCallback done, TenantId tenant = kInvalidTenant,
                      std::byte* payload = nullptr, size_t payload_len = 0);

  // Service time of a single SoC DMA transfer when the engine is idle.
  SimDuration SocDmaCost(uint64_t bytes) const;

  uint64_t soc_dma_transfers() const { return soc_dma_transfers_; }
  uint64_t soc_dma_bytes() const { return soc_dma_bytes_; }

 private:
  Env* env_;
  NodeId node_;
  std::vector<std::unique_ptr<FifoResource>> cores_;
  FifoResource dma_engine_;
  uint64_t soc_dma_transfers_ = 0;
  uint64_t soc_dma_bytes_ = 0;
};

}  // namespace nadino

#endif  // SRC_DPU_DPU_H_
