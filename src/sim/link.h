// Network link model: serialization delay (bytes / bandwidth) behind a FIFO
// of earlier messages, plus fixed propagation delay. Two links and a switch
// hop compose into the RDMA fabric (src/rdma/fabric.h).
//
// The service time is deterministic, so the link is closed-form: a message's
// departure follows Lindley's recurrence d_i = max(a_i, d_{i-1}) + s_i and
// needs no event of its own. The link keeps only `free_at_`, when its last
// message finishes serializing, and schedules each delivery once, at
// departure + propagation + lag. A move-only InlineCallback delivery moves
// straight into that event, never copied.
//
// A sender that knows when a message will reach the link may reserve it
// early: Transfer's `at` is the arrival a_i, which may lie in the future (an
// RNIC passes the instant its TX pipeline finishes the packet). Departure
// times stay what they would be only while reservations come in
// non-decreasing arrival order, as they do when one sender owns the link;
// Debug builds assert it. The delivery event is queued at the reservation,
// so deliveries due at the same nanosecond on different links run in
// reservation order.

#ifndef SRC_SIM_LINK_H_
#define SRC_SIM_LINK_H_

#include <cstdint>

#include "src/core/fault.h"
#include "src/core/types.h"
#include "src/sim/inline_callback.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace nadino {

class Link {
 public:
  // 80 bytes: sizeof(Callback) is 96, so a delivery fits the event slot it
  // is scheduled into. Fabric stage closures are sized to fit here.
  using Callback = InlineCallback<80>;

  // `bandwidth_gbps` in gigabits/second; `propagation` is the fixed one-way
  // delay added after the message finishes serializing. `faults` (optional)
  // is the FaultPlane this link consults per transfer, with `node` naming the
  // port owner for fault scoping.
  Link(Simulator* sim, double bandwidth_gbps, SimDuration propagation,
       FaultPlane* faults = nullptr, NodeId node = kInvalidNode);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Sends `bytes` through the link; `delivered` fires at arrival time, `lag`
  // after propagation ends (the fabric passes its switch hop here). The
  // message reaches the link at max(now, `at`): a later `at` reserves the
  // wire ahead of time, and every reservation's arrival must be no earlier
  // than the one before it. A kLink
  // drop fault discards the message before it serializes (`delivered` never
  // fires; dropped() counts it); delay stretches the lag; duplicate
  // serializes and delivers the message twice (through a Clone() of
  // `delivered`, so the callable must then be copy-constructible).
  void Transfer(uint64_t bytes, Callback delivered, TenantId tenant = kInvalidTenant,
                SimDuration lag = 0, SimTime at = 0);

  // Serialization time for a message of `bytes` at this link's bandwidth.
  SimDuration SerializationTime(uint64_t bytes) const;

  // Bytes delivered since construction.
  uint64_t bytes_transferred() const { return bytes_transferred_; }

  // Messages discarded by injected kLink drop faults.
  uint64_t dropped() const { return dropped_; }

  // Deliveries whose capture exceeded Callback::kInlineBytes and
  // heap-allocated.
  uint64_t callback_spills() const { return callback_spills_; }

 private:
  // Serializes a message that reaches the link at `arrival` behind every
  // earlier message and schedules its delivery.
  void Depart(uint64_t bytes, SimTime arrival, SimDuration lag, Callback delivered);

  Simulator* sim_;
  double bytes_per_ns_;
  SimDuration propagation_;
  FaultPlane* faults_;
  NodeId node_;
  SimTime free_at_ = 0;  // When the last message finishes serializing.
#ifndef NDEBUG
  SimTime last_arrival_ = 0;  // Reservations must not go back in time.
#endif
  uint64_t bytes_transferred_ = 0;
  uint64_t dropped_ = 0;
  uint64_t callback_spills_ = 0;
};

}  // namespace nadino

#endif  // SRC_SIM_LINK_H_
