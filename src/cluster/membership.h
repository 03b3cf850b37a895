// Cluster membership: the authoritative node roster (roles, health) behind
// the versioned RoutingTable. Mirrors how multi-node RDMA systems (ALock,
// NDN-DPDK) keep forwarding state keyed off an explicit member list instead
// of fixed peer wiring.
//
// Health transitions (alive -> suspect -> dead -> alive) come from the
// HealthMonitor's seeded heartbeats or directly from tests; every transition
// bumps the routing epoch, flips the node's routability for dead/alive, and
// notifies subscribed observers. Metrics (`cluster_*`) and trace events are
// created lazily on the first transition so steady-state experiments keep
// byte-identical snapshots (the bench-golden contract, DESIGN.md §3a/§3d).

#ifndef SRC_CLUSTER_MEMBERSHIP_H_
#define SRC_CLUSTER_MEMBERSHIP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/core/env.h"
#include "src/core/types.h"
#include "src/runtime/routing_table.h"

namespace nadino {

enum class NodeRole : uint8_t { kWorker, kIngress };
enum class NodeHealth : uint8_t { kAlive, kSuspect, kDead };

const char* NodeHealthName(NodeHealth health);

class Membership {
 public:
  // Fires after a health transition commits (epoch already bumped).
  using Observer = std::function<void(NodeId, NodeHealth, uint64_t epoch)>;

  struct Member {
    NodeRole role = NodeRole::kWorker;
    NodeHealth health = NodeHealth::kAlive;
  };

  Membership(Env& env, RoutingTable* routing);

  Membership(const Membership&) = delete;
  Membership& operator=(const Membership&) = delete;

  void AddNode(NodeId node, NodeRole role);
  size_t size() const { return members_.size(); }

  NodeRole RoleOf(NodeId node) const;
  NodeHealth HealthOf(NodeId node) const;

  // The membership epoch IS the routing epoch: one version number for
  // "who is in the cluster and where can I route".
  uint64_t epoch() const { return routing_->epoch(); }

  // Suspect keeps the node routable (it may just be slow); dead removes it
  // from routing; alive restores it. All three bump the epoch.
  void MarkSuspect(NodeId node);
  void MarkDead(NodeId node);
  void MarkAlive(NodeId node);

  std::vector<NodeId> LiveWorkers() const;
  size_t live_count() const;

  void Subscribe(Observer observer) { observers_.push_back(std::move(observer)); }

  const std::map<NodeId, Member>& members() const { return members_; }

 private:
  void Transition(NodeId node, NodeHealth next);

  Env* env_;
  RoutingTable* routing_;
  std::map<NodeId, Member> members_;
  std::vector<Observer> observers_;
  // Lazily resolved on the first transition (golden-preservation contract).
  bool handles_ready_ = false;
  CounterHandle m_transitions_;
  GaugeHandle m_epoch_;
  GaugeHandle m_live_;
};

}  // namespace nadino

#endif  // SRC_CLUSTER_MEMBERSHIP_H_
