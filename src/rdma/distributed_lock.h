// Distributed lock service used by the OWDL baseline (one-sided write with
// distributed locks, Fig. 3 (1) / Fig. 12).
//
// A lock manager lives on one node; remote parties acquire/release named
// locks via small messages over the RDMA fabric. Every acquire costs at least
// a fabric round trip plus manager processing on the manager's core — the
// synchronization overhead two-sided RDMA avoids by construction.

#ifndef SRC_RDMA_DISTRIBUTED_LOCK_H_
#define SRC_RDMA_DISTRIBUTED_LOCK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>

#include "src/core/env.h"
#include "src/core/types.h"
#include "src/rdma/rdma_engine.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"

namespace nadino {

class DistributedLockService {
 public:
  using Granted = std::function<void()>;

  // `manager_core` is the CPU/DPU core that executes manager logic (lock
  // table updates); message transport rides the shared RDMA fabric.
  DistributedLockService(Env& env, RdmaNetwork* network, NodeId home,
                         FifoResource* manager_core);

  DistributedLockService(const DistributedLockService&) = delete;
  DistributedLockService& operator=(const DistributedLockService&) = delete;

  // Requests `lock_id` from `requester`; `granted` runs on grant delivery
  // back at the requester. FIFO fairness across waiters.
  void Acquire(NodeId requester, uint64_t lock_id, Granted granted);

  // Releases `lock_id`; the next waiter (if any) is granted. A holder whose
  // Release is lost (its node partitioned) wedges the lock and every queued
  // waiter: the OWDL hazard, with no recovery.
  void Release(NodeId requester, uint64_t lock_id);

  uint64_t acquires() const { return m_acquires_.value(); }
  uint64_t contended_acquires() const { return m_contended_.value(); }

 private:
  struct LockState {
    bool held = false;
    std::deque<std::pair<NodeId, Granted>> waiters;
  };

  void ManagerAcquire(NodeId requester, uint64_t lock_id, Granted granted);
  void ManagerRelease(uint64_t lock_id);
  void Grant(NodeId requester, Granted granted);

  Simulator& sim() const { return env_->sim(); }

  Env* env_;
  Fabric::DirectSender wire_;
  NodeId home_;
  FifoResource* manager_core_;
  std::map<uint64_t, LockState> locks_;
  // Registry-backed counters (labels: the manager's home node).
  CounterHandle m_acquires_;
  CounterHandle m_contended_;
};

}  // namespace nadino

#endif  // SRC_RDMA_DISTRIBUTED_LOCK_H_
