#include "src/rdma/fabric.h"

#include <cassert>
#include <string>
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
  it->second.up = std::make_unique<Link>(&env_->sim(), "up:" + std::to_string(node),
                                         cost.fabric_gbps, cost.link_propagation,
                                         &env_->faults(), node);
  it->second.down = std::make_unique<Link>(&env_->sim(), "down:" + std::to_string(node),
                                           cost.fabric_gbps, cost.link_propagation,
                                           &env_->faults(), node);
}

void Fabric::Send(NodeId src, NodeId dst, uint64_t payload_bytes, Delivery delivered,
                  TenantId tenant) {
  callback_spills_ += delivered.spilled() ? 1 : 0;
  // One lookup per port on this per-packet path (the old code paid a count()
  // probe in the assert plus a checked at() walk for each endpoint).
  const auto src_it = ports_.find(src);
  const auto dst_it = ports_.find(dst);
  assert(src_it != ports_.end() && dst_it != ports_.end());
  // Pair-aware interception: a node_partition window on EITHER endpoint kills
  // the crossing here — the fabric is the chokepoint all inter-node traffic
  // (RDMA packets, proxy TCP, heartbeats) funnels through — before the
  // regular kFabric specs get a look.
  const FaultDecision fault =
      env_->faults().InterceptPair(FaultSite::kFabric, FaultScope{tenant, src}, dst);
  if (fault.action == FaultAction::kDrop) {
    return;  // Lost in transit; the FaultPlane counted it.
  }
  const uint64_t wire_bytes = payload_bytes + kWireHeaderBytes;
  Link* up = src_it->second.up.get();
  Link* down = dst_it->second.down.get();
  // Each stage moves `done` into the next. The uplink stage and the switch
  // event carry the same captures, so one compile-time check covers both.
  auto transit = [this, up, down, wire_bytes, tenant](Delivery done) {
    auto uplink_done = [this, down, wire_bytes, tenant, done = std::move(done)]() mutable {
      env_->sim().Schedule(
          env_->cost().switch_latency,
          [this, down, wire_bytes, tenant, done = std::move(done)]() mutable {
            down->Transfer(
                wire_bytes,
                [this, done = std::move(done)]() {
                  ++messages_delivered_;
                  if (done) {
                    done();
                  }
                },
                tenant);
          });
    };
    static_assert(sizeof(uplink_done) <= Link::Callback::kInlineBytes &&
                      sizeof(uplink_done) <= internal::EventCallback::kInlineBytes,
                  "a fabric stage must not spill out of its link or event slot");
    up->Transfer(wire_bytes, std::move(uplink_done), tenant);
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

size_t Fabric::UplinkQueueDepth(NodeId node) const {
  const auto it = ports_.find(node);
  return it == ports_.end() ? 0 : it->second.up->queue_depth();
}

}  // namespace nadino
