// Network link model: serialization delay (bytes / bandwidth) on a FIFO
// resource plus fixed propagation delay. Two links and a switch hop compose
// into the RDMA fabric (src/rdma/fabric.h).
//
// Deliveries are move-only InlineCallbacks: a transfer moves its continuation
// into the pipe's job and then into the arrival event, never copying it.

#ifndef SRC_SIM_LINK_H_
#define SRC_SIM_LINK_H_

#include <cstdint>
#include <string>

#include "src/core/fault.h"
#include "src/core/types.h"
#include "src/sim/inline_callback.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace nadino {

class Link {
 public:
  // 80 bytes: sizeof(Callback) is 96, so a delivery fits the event slot it
  // is scheduled into and a pipe job ({this, lag, Callback}) fits
  // FifoResource::Callback. Fabric stage closures are sized to fit here.
  using Callback = InlineCallback<80>;

  // `bandwidth_gbps` in gigabits/second; `propagation` is the fixed one-way
  // delay added after the message finishes serializing. `faults` (optional)
  // is the FaultPlane this link consults per transfer, with `node` naming the
  // port owner for fault scoping.
  Link(Simulator* sim, std::string name, double bandwidth_gbps, SimDuration propagation,
       FaultPlane* faults = nullptr, NodeId node = kInvalidNode);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Sends `bytes` through the link; `delivered` fires at arrival time.
  // A kLink drop fault discards the message before it serializes (`delivered`
  // never fires; dropped() counts it); delay stretches propagation; duplicate
  // serializes and delivers the message twice (through a Clone() of
  // `delivered`, so the callable must then be copy-constructible).
  void Transfer(uint64_t bytes, Callback delivered, TenantId tenant = kInvalidTenant);

  // Serialization time for a message of `bytes` at this link's bandwidth.
  SimDuration SerializationTime(uint64_t bytes) const;

  // Bytes delivered since construction.
  uint64_t bytes_transferred() const { return bytes_transferred_; }

  // Messages discarded by injected kLink drop faults.
  uint64_t dropped() const { return dropped_; }

  // Queue depth of messages waiting to serialize (congestion signal).
  size_t queue_depth() const { return pipe_.queue_depth(); }

  // Deliveries whose capture exceeded Callback::kInlineBytes and
  // heap-allocated.
  uint64_t callback_spills() const { return callback_spills_; }

  double WindowUtilization() const { return pipe_.WindowUtilization(); }
  void ResetWindow() { pipe_.ResetWindow(); }

 private:
  void Serialize(uint64_t bytes, SimDuration extra_propagation, Callback delivered);

  Simulator* sim_;
  double bytes_per_ns_;
  SimDuration propagation_;
  FifoResource pipe_;
  FaultPlane* faults_;
  NodeId node_;
  uint64_t bytes_transferred_ = 0;
  uint64_t dropped_ = 0;
  uint64_t callback_spills_ = 0;
};

}  // namespace nadino

#endif  // SRC_SIM_LINK_H_
