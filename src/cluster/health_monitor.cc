#include "src/cluster/health_monitor.h"

#include <memory>

namespace nadino {

HealthMonitor::HealthMonitor(Env& env, Membership* membership, Fabric* fabric,
                             NodeId monitor_node)
    : env_(&env),
      membership_(membership),
      fabric_(fabric),
      monitor_node_(monitor_node),
      // Decorrelated from both the workload stream and the FaultPlane so
      // heartbeat jitter never perturbs either (equal-seed contract).
      rng_(env.seed() ^ 0x9E3779B97F4A7C15ull) {}

void HealthMonitor::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  MetricsRegistry& reg = env_->metrics();
  m_probes_ = reg.ResolveCounter("cluster_heartbeat_probes");
  m_misses_ = reg.ResolveCounter("cluster_heartbeat_misses");
  env_->sim().Schedule(kPeriod, [this]() { Tick(); });
}

void HealthMonitor::Tick() {
  ++rounds_;
  for (const auto& [node, member] : membership_->members()) {
    if (node == monitor_node_) {
      continue;
    }
    const auto jitter =
        static_cast<SimDuration>(rng_.UniformInt(0, static_cast<uint64_t>(kMaxJitter)));
    const NodeId target = node;
    env_->sim().Schedule(jitter, [this, target]() { Probe(target); });
  }
  env_->sim().Schedule(kPeriod, [this]() { Tick(); });
}

void HealthMonitor::Probe(NodeId target) {
  ++probes_sent_;
  m_probes_.Increment();
  auto acked = std::make_shared<bool>(false);
  // Request leg; on delivery the target echoes straight back (control-plane
  // work, no core time modeled). Either leg crossing a node_partition window
  // is dropped by the fabric, so `acked` stays false past the deadline.
  fabric_->Send(monitor_node_, target, kProbeBytes, [this, target, acked]() {
    fabric_->Send(target, monitor_node_, kProbeBytes, [acked]() { *acked = true; });
  });
  env_->sim().Schedule(kProbeTimeout,
                       [this, target, acked]() { OnProbeResult(target, *acked); });
}

void HealthMonitor::OnProbeResult(NodeId target, bool acked) {
  PeerState& peer = peers_[target];
  if (acked) {
    peer.consecutive_misses = 0;
    if (membership_->HealthOf(target) != NodeHealth::kAlive) {
      membership_->MarkAlive(target);  // Healed partition: rejoin this epoch.
    }
    return;
  }
  ++probes_missed_;
  m_misses_.Increment();
  ++peer.consecutive_misses;
  env_->Trace(TraceCategory::kCluster, target, "heartbeat_miss",
              static_cast<uint64_t>(peer.consecutive_misses), rounds_);
  const NodeHealth health = membership_->HealthOf(target);
  if (peer.consecutive_misses >= kDeadAfter) {
    if (health != NodeHealth::kDead) {
      membership_->MarkDead(target);
    }
  } else if (peer.consecutive_misses >= kSuspectAfter &&
             health == NodeHealth::kAlive) {
    membership_->MarkSuspect(target);
  }
}

}  // namespace nadino
