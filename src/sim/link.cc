#include "src/sim/link.h"

#include <utility>

namespace nadino {

Link::Link(Simulator* sim, std::string name, double bandwidth_gbps, SimDuration propagation,
           FaultPlane* faults, NodeId node)
    : sim_(sim),
      bytes_per_ns_(bandwidth_gbps / 8.0),  // Gbit/s == bits/ns; /8 -> bytes/ns.
      propagation_(propagation),
      pipe_(sim, std::move(name)),
      faults_(faults),
      node_(node) {}

SimDuration Link::SerializationTime(uint64_t bytes) const {
  return static_cast<SimDuration>(static_cast<double>(bytes) / bytes_per_ns_ + 0.5);
}

void Link::Serialize(uint64_t bytes, SimDuration extra_propagation, Callback delivered) {
  bytes_transferred_ += bytes;
  const SimDuration arrival_lag = propagation_ + extra_propagation;
  auto job = [this, arrival_lag, delivered = std::move(delivered)]() mutable {
    if (!delivered) {
      return;
    }
    // Propagation happens off the shared pipe: back-to-back messages overlap
    // their propagation with the next message's serialization.
    sim_->Schedule(arrival_lag, std::move(delivered));
  };
  static_assert(sizeof(job) <= FifoResource::Callback::kInlineBytes,
                "a link job must not spill out of the resource ring");
  static_assert(sizeof(Callback) <= internal::EventCallback::kInlineBytes,
                "a delivery must not spill out of the event slot");
  pipe_.Submit(SerializationTime(bytes), std::move(job));
}

void Link::Transfer(uint64_t bytes, Callback delivered, TenantId tenant) {
  callback_spills_ += delivered.spilled() ? 1 : 0;
  FaultDecision fault;
  if (faults_ != nullptr) {
    fault = faults_->Intercept(FaultSite::kLink, FaultScope{tenant, node_});
  }
  switch (fault.action) {
    case FaultAction::kDrop:
      ++dropped_;  // Lost on the wire: never serializes, never arrives.
      return;
    case FaultAction::kDuplicate:
      Serialize(bytes, 0, delivered.Clone());  // Two independent deliveries.
      break;
    default:
      break;
  }
  Serialize(bytes, fault.action == FaultAction::kDelay ? fault.delay : 0, std::move(delivered));
}

}  // namespace nadino
