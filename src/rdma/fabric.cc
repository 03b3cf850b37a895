#include "src/rdma/fabric.h"

#include <cassert>
#include <utility>

namespace nadino {

Fabric::Fabric(Env& env) : env_(&env) {}

void Fabric::AttachNode(NodeId node) {
  // Single-probe insert: the node's slot is claimed (or found) once instead
  // of a count() walk followed by an emplace() walk.
  const auto [it, inserted] = ports_.try_emplace(node);
  if (!inserted) {
    return;
  }
  const CostModel& cost = env_->cost();
  it->second.up = std::make_unique<Link>(&env_->sim(), cost.fabric_gbps, cost.link_propagation,
                                         &env_->faults(), node);
  it->second.down = std::make_unique<Link>(&env_->sim(), cost.fabric_gbps, cost.link_propagation,
                                           &env_->faults(), node);
}

bool Fabric::ReservesAhead() const {
  const FaultPlane& faults = env_->faults();
  return direct_senders_ == 0 && !faults.ArmedAt(FaultSite::kFabric) &&
         !faults.ArmedAt(FaultSite::kLink);
}

void Fabric::SendAt(NodeId src, NodeId dst, uint64_t payload_bytes, Delivery delivered,
                    TenantId tenant, SimTime depart_at) {
  if (depart_at > env_->sim().now() && !ReservesAhead()) {
    // Another sender or a fault draw could come between now and the
    // departure: send at the departure instant, as the sender would have.
    auto depart = [this, src, dst, payload_bytes, tenant,
                   delivered = std::move(delivered)]() mutable {
      SendAt(src, dst, payload_bytes, std::move(delivered), tenant, 0);
    };
    static_assert(sizeof(depart) <= internal::EventCallback::kInlineBytes,
                  "a departure must not spill out of its event slot");
    env_->sim().ScheduleAt(depart_at, std::move(depart));
    return;
  }
  callback_spills_ += delivered.spilled() ? 1 : 0;
  // One lookup per port on this per-packet path (the old code paid a count()
  // probe in the assert plus a checked at() walk for each endpoint).
  const auto src_it = ports_.find(src);
  const auto dst_it = ports_.find(dst);
  assert(src_it != ports_.end() && dst_it != ports_.end());
  // The fabric is the chokepoint all inter-node traffic (RDMA packets, proxy
  // TCP, lock messages) funnels through; kFabric specs scope by the sender.
  const FaultDecision fault = env_->faults().Intercept(FaultSite::kFabric, FaultScope{tenant, src});
  if (fault.action == FaultAction::kDrop) {
    return;  // Lost in transit; the FaultPlane counted it.
  }
  const uint64_t wire_bytes = payload_bytes + kWireHeaderBytes;
  Link* up = src_it->second.up.get();
  Link* down = dst_it->second.down.get();
  // The uplink delivers `switch_latency` late, where the message reaches the
  // downlink: that event decides its place in the downlink's FIFO, because
  // every source merges there. Each stage moves `done` into the next.
  auto transit = [this, up, down, wire_bytes, tenant, depart_at](Delivery done) {
    auto at_downlink = [this, down, wire_bytes, tenant, done = std::move(done)]() mutable {
      down->Transfer(
          wire_bytes,
          [this, done = std::move(done)]() {
            ++messages_delivered_;
            if (done) {
              done();
            }
          },
          tenant);
    };
    static_assert(sizeof(at_downlink) <= Link::Callback::kInlineBytes,
                  "a fabric stage must not spill out of its link slot");
    up->Transfer(wire_bytes, std::move(at_downlink), tenant, env_->cost().switch_latency,
                 depart_at);
  };
  if (fault.action == FaultAction::kDuplicate) {
    transit(delivered.Clone());  // Two independent deliveries.
  }
  if (fault.action == FaultAction::kDelay) {
    auto delayed = [transit, delivered = std::move(delivered)]() mutable {
      transit(std::move(delivered));
    };
    static_assert(sizeof(delayed) <= internal::EventCallback::kInlineBytes,
                  "a delayed send must not spill out of its event slot");
    env_->sim().Schedule(fault.delay, std::move(delayed));
    return;
  }
  transit(std::move(delivered));
}

}  // namespace nadino
