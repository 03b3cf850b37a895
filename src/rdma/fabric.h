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
// heap-allocates, once, when it is sent (counted by callback_spills()). An RDMA
// packet's delivery is {network, PacketRef} (16 B, src/rdma/rdma_engine.h),
// so the RNIC's traffic never spills.
//
// Two kinds of sender share the uplinks. An RNIC (RdmaEngine, the only
// class that may call SendAt) hands a packet over when it posts it, with the
// instant its TX pipeline will finish the packet as `depart_at`, and the
// uplink is reserved right then: no event marks the departure. Every other
// component sends at the instant its message leaves, and can do so only
// through the DirectSender that AttachDirectSender returns. Reserving early
// keeps every delivery time only when nothing else touches the uplink, or
// draws a fault, between the post and the departure. So SendAt keeps a
// departure event, scheduled at `depart_at`, while a direct sender is
// attached or a kFabric or kLink spec is armed; the setup decides, there is
// no option. Delivery times are unchanged either way, but with no departure
// event a downlink arrival's event is queued at the post, not at the
// departure, so two arrivals due at the same nanosecond now run in the order
// their packets were posted (the FOUND tie-order line in CHANGES.md).

#ifndef SRC_RDMA_FABRIC_H_
#define SRC_RDMA_FABRIC_H_

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
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

  // Adds a port for `node`. Must be called before a send touches that node.
  void AttachNode(NodeId node);

  // A component that puts messages on the fabric itself (gateway proxy
  // modes, the kernel-TCP and Junction baselines, the lock service). Its
  // Send is the only public way to send: holding one is what makes the
  // fabric keep every RNIC departure event, so each uplink serves all
  // senders in departure order.
  class DirectSender {
   public:
    // Moves `payload_bytes` (+ header) from src to dst, leaving now;
    // `delivered` fires when the last byte arrives at dst's port. `tenant`
    // scopes fault interception (kFabric on the whole transit, kLink per
    // direction); a dropped message is counted by the FaultPlane and
    // `delivered` never fires. A duplicate (kFabric or kLink) delivers a
    // Clone() of `delivered`, so the callable must then be
    // copy-constructible.
    void Send(NodeId src, NodeId dst, uint64_t payload_bytes, Delivery delivered,
              TenantId tenant = kInvalidTenant) {
      fabric_->SendAt(src, dst, payload_bytes, std::move(delivered), tenant, 0);
    }

   private:
    friend class Fabric;
    explicit DirectSender(Fabric* fabric) : fabric_(fabric) {}

    Fabric* fabric_;
  };

  DirectSender AttachDirectSender() {
    ++direct_senders_;
    return DirectSender(this);
  }

  uint64_t messages_delivered() const { return messages_delivered_; }

  // Sends whose `delivered` capture exceeded Delivery::kInlineBytes and
  // heap-allocated.
  uint64_t callback_spills() const { return callback_spills_; }

 private:
  struct Port {
    std::unique_ptr<Link> up;    // node -> switch
    std::unique_ptr<Link> down;  // switch -> node
  };

  friend class RdmaEngine;

  // The message leaves src at max(now, `depart_at`). An RNIC passes its
  // packet's TX-pipeline finish as `depart_at` (never earlier than the
  // node's previous packet): the uplink is reserved now, or a departure
  // event is kept when ReservesAhead() is false. A direct sender passes 0.
  void SendAt(NodeId src, NodeId dst, uint64_t payload_bytes, Delivery delivered,
              TenantId tenant, SimTime depart_at);

  // Whether a send may reserve its uplink before it departs.
  bool ReservesAhead() const;

  Env* env_;
  std::map<NodeId, Port> ports_;
  int direct_senders_ = 0;
  uint64_t messages_delivered_ = 0;
  uint64_t callback_spills_ = 0;
};

}  // namespace nadino

#endif  // SRC_RDMA_FABRIC_H_
