// The RDMA fabric: per-node uplinks/downlinks joined by a cut-through switch.
//
// Matches the testbed topology (section 4): worker-node DPUs and the ingress
// RNIC hang off one 200 Gbps switch. Contention is modelled per-port: a
// node's egress stream serializes on its uplink, ingress on its downlink.
//
// Both links are closed-form (src/sim/link.h), so a crossing costs two
// events: one where the message reaches the downlink, after the uplink and
// the switch hop, and its delivery. A delivery is a move-only InlineCallback
// that rides both stages by move; only a capture over Delivery::kInlineBytes
// heap-allocates, once, at Send (counted by callback_spills()). An RDMA
// packet's delivery is {network, PacketRef} (16 B, src/rdma/rdma_engine.h),
// so the RNIC's traffic never spills.

#ifndef SRC_RDMA_FABRIC_H_
#define SRC_RDMA_FABRIC_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/core/env.h"
#include "src/core/types.h"
#include "src/sim/inline_callback.h"
#include "src/sim/link.h"

namespace nadino {

// Bytes added to every message on the wire (Ethernet + IB BTH-class headers).
inline constexpr uint64_t kWireHeaderBytes = 60;

class Fabric {
 public:
  // 32 bytes: a stage closure ({this, down link, bytes, tenant, Delivery})
  // fits Link::Callback, which fits the event slot; an RDMA packet delivery
  // fits here with room to spare (static_assert in rdma_engine.cc).
  using Delivery = InlineCallback<32>;

  explicit Fabric(Env& env);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // Adds a port for `node`. Must be called before Send touches that node.
  void AttachNode(NodeId node);

  // Moves `payload_bytes` (+ header) from src to dst; `delivered` fires when
  // the last byte arrives at dst's port. `tenant` scopes fault interception
  // (kFabric on the whole transit, kLink per direction); a dropped message is
  // counted by the FaultPlane and `delivered` never fires. A duplicate
  // (kFabric or kLink) delivers a Clone() of `delivered`, so the callable must
  // then be copy-constructible.
  void Send(NodeId src, NodeId dst, uint64_t payload_bytes, Delivery delivered,
            TenantId tenant = kInvalidTenant);

  uint64_t messages_delivered() const { return messages_delivered_; }

  // Sends whose `delivered` capture exceeded Delivery::kInlineBytes and
  // heap-allocated.
  uint64_t callback_spills() const { return callback_spills_; }

 private:
  struct Port {
    std::unique_ptr<Link> up;    // node -> switch
    std::unique_ptr<Link> down;  // switch -> node
  };

  Env* env_;
  std::map<NodeId, Port> ports_;
  uint64_t messages_delivered_ = 0;
  uint64_t callback_spills_ = 0;
};

}  // namespace nadino

#endif  // SRC_RDMA_FABRIC_H_
