// Seeded-heartbeat health monitor: a control-plane prober on one cluster node
// that round-trips a small probe over the fabric to every other member each
// period. A node inside a node_partition window drops the probe (both legs
// cross Fabric::Send, the partition chokepoint), so consecutive misses drive
// the member suspect -> dead through Membership, bumping the routing epoch;
// the first successful probe after the window heals marks it alive again —
// within one heartbeat period of the heal (the ISSUE acceptance bound).
//
// Determinism: the monitor is OPT-IN (Cluster::StartHealthMonitor) and owns a
// private Rng decorrelated from Env's workload stream, so experiments that
// never start it are byte-identical to builds without it, and equal seeds
// reproduce probe schedules bit-for-bit.

#ifndef SRC_CLUSTER_HEALTH_MONITOR_H_
#define SRC_CLUSTER_HEALTH_MONITOR_H_

#include <cstdint>
#include <map>

#include "src/cluster/membership.h"
#include "src/core/env.h"
#include "src/rdma/fabric.h"
#include "src/sim/random.h"

namespace nadino {

class HealthMonitor {
 public:
  static constexpr SimDuration kPeriod = 2 * kMillisecond;        // One probe round.
  static constexpr SimDuration kProbeTimeout = 1 * kMillisecond;  // Must be < kPeriod.
  static constexpr uint32_t kProbeBytes = 64;                     // Wire size of each leg.
  static constexpr int kSuspectAfter = 1;                         // Consecutive misses.
  static constexpr int kDeadAfter = 2;
  // Per-probe launch stagger upper bound (seeded; avoids a thundering herd
  // of same-tick probes without perturbing the workload's random stream).
  static constexpr SimDuration kMaxJitter = 10 * kMicrosecond;

  HealthMonitor(Env& env, Membership* membership, Fabric* fabric, NodeId monitor_node);

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  // Schedules the first probe round; idempotent.
  void Start();

  bool started() const { return started_; }
  uint64_t rounds() const { return rounds_; }
  uint64_t probes_sent() const { return probes_sent_; }
  uint64_t probes_missed() const { return probes_missed_; }

 private:
  struct PeerState {
    int consecutive_misses = 0;
  };

  void Tick();
  void Probe(NodeId target);
  void OnProbeResult(NodeId target, bool acked);

  Env* env_;
  Membership* membership_;
  Fabric* fabric_;
  NodeId monitor_node_;
  Rng rng_;
  std::map<NodeId, PeerState> peers_;
  bool started_ = false;
  uint64_t rounds_ = 0;
  uint64_t probes_sent_ = 0;
  uint64_t probes_missed_ = 0;
  // Resolved in Start(): only monitored runs carry heartbeat instruments.
  CounterHandle m_probes_;
  CounterHandle m_misses_;
};

}  // namespace nadino

#endif  // SRC_CLUSTER_HEALTH_MONITOR_H_
