#include "src/sim/link.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace nadino {

Link::Link(Simulator* sim, double bandwidth_gbps, SimDuration propagation, FaultPlane* faults,
           NodeId node)
    : sim_(sim),
      bytes_per_ns_(bandwidth_gbps / 8.0),  // Gbit/s == bits/ns; /8 -> bytes/ns.
      propagation_(propagation),
      faults_(faults),
      node_(node) {}

SimDuration Link::SerializationTime(uint64_t bytes) const {
  return static_cast<SimDuration>(static_cast<double>(bytes) / bytes_per_ns_ + 0.5);
}

void Link::Depart(uint64_t bytes, SimTime arrival, SimDuration lag, Callback delivered) {
  static_assert(sizeof(Callback) <= internal::EventCallback::kInlineBytes,
                "a delivery must not spill out of the event slot");
  bytes_transferred_ += bytes;
  free_at_ = std::max(arrival, free_at_) + SerializationTime(bytes);
  if (delivered) {
    // Only serialization holds the wire: back-to-back messages overlap their
    // propagation with the next message's serialization.
    sim_->ScheduleAt(free_at_ + propagation_ + lag, std::move(delivered));
  }
}

void Link::Transfer(uint64_t bytes, Callback delivered, TenantId tenant, SimDuration lag,
                    SimTime at) {
  callback_spills_ += delivered.spilled() ? 1 : 0;
  const SimTime arrival = std::max(sim_->now(), at);
  // A message reserved out of arrival order would be served as if it had
  // queued behind a later one: some sender shares this link without taking
  // the departure-event path (Fabric::AttachDirectSender).
  assert(arrival >= last_arrival_);
#ifndef NDEBUG
  last_arrival_ = arrival;
#endif
  FaultDecision fault;
  if (faults_ != nullptr) {
    fault = faults_->Intercept(FaultSite::kLink, FaultScope{tenant, node_});
  }
  switch (fault.action) {
    case FaultAction::kDrop:
      ++dropped_;  // Lost on the wire: never serializes, never arrives.
      return;
    case FaultAction::kDuplicate:
      Depart(bytes, arrival, lag, delivered.Clone());  // Two independent deliveries.
      break;
    case FaultAction::kDelay:
      lag += fault.delay;
      break;
    default:
      break;
  }
  Depart(bytes, arrival, lag, std::move(delivered));
}

}  // namespace nadino
