#include "src/cluster/membership.h"

#include <cassert>
#include <string>

namespace nadino {

const char* NodeHealthName(NodeHealth health) {
  switch (health) {
    case NodeHealth::kAlive:
      return "alive";
    case NodeHealth::kSuspect:
      return "suspect";
    case NodeHealth::kDead:
      return "dead";
  }
  return "?";
}

Membership::Membership(Env& env, RoutingTable* routing) : env_(&env), routing_(routing) {}

void Membership::AddNode(NodeId node, NodeRole role) {
  assert(node != kInvalidNode);
  members_[node] = Member{role, NodeHealth::kAlive};
}

NodeRole Membership::RoleOf(NodeId node) const {
  const auto it = members_.find(node);
  assert(it != members_.end());
  return it->second.role;
}

NodeHealth Membership::HealthOf(NodeId node) const {
  const auto it = members_.find(node);
  return it == members_.end() ? NodeHealth::kDead : it->second.health;
}

void Membership::MarkSuspect(NodeId node) { Transition(node, NodeHealth::kSuspect); }
void Membership::MarkDead(NodeId node) { Transition(node, NodeHealth::kDead); }
void Membership::MarkAlive(NodeId node) { Transition(node, NodeHealth::kAlive); }

std::vector<NodeId> Membership::LiveWorkers() const {
  std::vector<NodeId> live;
  for (const auto& [node, member] : members_) {
    if (member.role == NodeRole::kWorker && member.health != NodeHealth::kDead) {
      live.push_back(node);
    }
  }
  return live;
}

size_t Membership::live_count() const {
  size_t n = 0;
  for (const auto& [node, member] : members_) {
    n += member.health != NodeHealth::kDead ? 1 : 0;
  }
  return n;
}

void Membership::Transition(NodeId node, NodeHealth next) {
  const auto it = members_.find(node);
  if (it == members_.end() || it->second.health == next) {
    return;
  }
  it->second.health = next;
  // One epoch bump per transition, no exceptions: liveness flips bump via
  // SetNodeLive; transitions that leave routability unchanged (alive <->
  // suspect) bump explicitly so epoch-holding readers still re-read.
  const uint64_t epoch_before = routing_->epoch();
  switch (next) {
    case NodeHealth::kDead:
      routing_->SetNodeLive(node, false);
      break;
    case NodeHealth::kAlive:
      routing_->SetNodeLive(node, true);
      break;
    case NodeHealth::kSuspect:
      break;
  }
  if (routing_->epoch() == epoch_before) {
    routing_->BumpEpoch();
  }
  if (!handles_ready_) {
    handles_ready_ = true;
    MetricsRegistry& reg = env_->metrics();
    m_transitions_ = reg.ResolveCounter("cluster_membership_transitions");
    m_epoch_ = reg.ResolveGauge("cluster_epoch");
    m_live_ = reg.ResolveGauge("cluster_nodes_live");
  }
  m_transitions_.Increment();
  m_epoch_.Set(static_cast<double>(routing_->epoch()));
  m_live_.Set(static_cast<double>(live_count()));
  std::string label = "membership_";
  label += NodeHealthName(next);
  env_->Trace(TraceCategory::kCluster, node, label, routing_->epoch(), live_count());
  for (const Observer& observer : observers_) {
    observer(node, next, routing_->epoch());
  }
}

}  // namespace nadino
