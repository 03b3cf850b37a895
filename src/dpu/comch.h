// Cross-processor communication channel between host functions and the DNE.
//
// Models DOCA Comch (paper section 3.5.4) in its two variants plus the TCP
// baseline the paper benchmarks in Fig. 9:
//   * Comch-E — event-driven send/recv over blocking epoll: no pinned cores,
//     moderate per-message cost; NADINO's choice for dense multi-tenancy.
//   * Comch-P — producer/consumer ring with busy polling: lowest latency but
//     pins one host core per function, and the DOCA progress engine's
//     internal epoll_wait costs the single-core DNE time per *endpoint*,
//     which overloads it beyond ~6 functions.
//   * TCP — descriptors over the kernel stack (PCIe netdev), the slow path.
//
// Only 16-byte buffer descriptors travel here; payloads stay in the
// cross-processor shared memory pool. Every message crosses the FaultPlane's
// kComch site; a scoped kComch drop severs one tenant's channel, the
// isolation lever the paper contrasts with raw intra-node RDMA (section
// 3.5.4). Drops land in the comch_dropped{node,tenant} registry counters.

#ifndef SRC_DPU_COMCH_H_
#define SRC_DPU_COMCH_H_

#include <cstdint>
#include <functional>
#include <map>

#include "src/core/env.h"
#include "src/core/types.h"
#include "src/mem/buffer.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"

namespace nadino {

enum class ComchVariant : uint8_t {
  kEvent,    // Comch-E
  kPolling,  // Comch-P
  kTcp,      // Kernel TCP baseline
};

class ComchServer {
 public:
  // Receives (function, descriptor) messages after DPU-side processing.
  using ServerReceiver = std::function<void(FunctionId, const BufferDescriptor&)>;
  using HostReceiver = std::function<void(const BufferDescriptor&)>;

  // `dpu_core` is the DNE core that executes channel handling; costs given in
  // host time are scaled by that core's speed factor automatically. `node`
  // labels this server's drop counters and scopes fault interception.
  //
  // With `engine_managed_polling` set, the server does NOT charge the
  // DPU-side handling cost itself: the owning engine busy-polls the endpoints
  // inside its run-to-completion event loop (section 3.5.4) and accounts for
  // the per-message channel handling as part of its scheduled TX/RX stages.
  // This keeps per-tenant DWRR in control of *all* per-message engine work.
  ComchServer(Env& env, FifoResource* dpu_core, bool engine_managed_polling = false,
              NodeId node = kInvalidNode);

  // DPU-side per-message handling cost (host time) for this server's
  // configuration — what an engine-managed owner must charge per message.
  SimDuration DpuSideCost(ComchVariant variant) const { return CostsFor(variant).dpu_side; }

  ComchServer(const ComchServer&) = delete;
  ComchServer& operator=(const ComchServer&) = delete;

  void SetReceiver(ServerReceiver receiver) { receiver_ = std::move(receiver); }

  // Registers a host-side endpoint for `fn`, owned by `tenant` (labels the
  // drop accounting; kInvalidTenant is accepted for tenant-less tests).
  // `host_core` runs the function's send/receive costs; with kPolling it
  // becomes a pinned (busy-poll) core.
  void ConnectEndpoint(FunctionId fn, ComchVariant variant, FifoResource* host_core,
                       HostReceiver host_receiver, TenantId tenant = kInvalidTenant);

  // Host -> DPU: called from function context. Charges the function's core,
  // the channel latency, then DPU-side processing before handing the
  // descriptor to the server receiver. Returns false when the message is
  // dropped at entry (unconnected endpoint or injected fault): the caller still
  // owns the buffer and must recycle it.
  bool SendToDpu(FunctionId fn, const BufferDescriptor& desc);

  // DPU -> host: called from DNE context. Charges DPU-side processing, the
  // channel, then the function-side receive cost before invoking the host
  // receiver. Returns false when dropped at entry (see SendToDpu); an
  // endpoint with no host receiver drops on arrival, counted but not reported.
  bool SendToHost(FunctionId fn, const BufferDescriptor& desc);

  uint64_t messages_to_dpu() const { return to_dpu_; }
  uint64_t messages_to_host() const { return to_host_; }
  int polling_endpoints() const { return polling_endpoints_; }

 private:
  struct Endpoint {
    ComchVariant variant = ComchVariant::kEvent;
    FifoResource* host_core = nullptr;
    HostReceiver host_receiver;
    TenantId tenant = kInvalidTenant;  // Labels the endpoint's drop accounting.
  };

  struct Costs {
    SimDuration host_send = 0;
    SimDuration host_recv = 0;
    SimDuration channel = 0;
    SimDuration dpu_side = 0;  // Host time; includes the progress sweep.
  };

  Costs CostsFor(ComchVariant variant) const;

  // Registry counter for drops attributed to `fn`'s tenant (lazily created).
  void CountDrop(FunctionId fn);
  TenantId TenantOf(FunctionId fn) const;

  Simulator& sim() const { return env_->sim(); }

  Env* env_;
  FifoResource* dpu_core_;
  bool engine_managed_polling_;
  NodeId node_;
  ServerReceiver receiver_;
  // Never erased, and ConnectEndpoint replaces an endpoint in place, so an
  // Endpoint* stays valid (and sees a replacement) for the server's lifetime.
  std::map<FunctionId, Endpoint> endpoints_;
  std::map<TenantId, CounterMetric*> drop_counters_;
  int polling_endpoints_ = 0;
  uint64_t to_dpu_ = 0;
  uint64_t to_host_ = 0;
};

}  // namespace nadino

#endif  // SRC_DPU_COMCH_H_
