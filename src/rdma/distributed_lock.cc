#include "src/rdma/distributed_lock.h"

#include <utility>

namespace nadino {

namespace {
constexpr uint64_t kLockMessageBytes = 32;
}  // namespace

DistributedLockService::DistributedLockService(Env& env, RdmaNetwork* network, NodeId home,
                                               FifoResource* manager_core)
    : env_(&env),
      // Lock messages bypass the RNIC.
      wire_(network->fabric().AttachDirectSender()),
      home_(home),
      manager_core_(manager_core) {
  const MetricLabels labels = MetricLabels::Node(home);
  m_acquires_ = env_->metrics().ResolveCounter("dlock_acquires", labels);
  m_contended_ = env_->metrics().ResolveCounter("dlock_contended_acquires", labels);
}

void DistributedLockService::Acquire(NodeId requester, uint64_t lock_id, Granted granted) {
  m_acquires_.Increment();
  if (requester == home_) {
    // Local acquires still pay manager processing but skip the fabric.
    manager_core_->Submit(env_->cost().dlock_manager_op,
                          [this, requester, lock_id, granted = std::move(granted)]() mutable {
                            ManagerAcquire(requester, lock_id, std::move(granted));
                          });
    return;
  }
  wire_.Send(requester, home_, kLockMessageBytes,
             [this, requester, lock_id, granted = std::move(granted)]() mutable {
               manager_core_->Submit(
                   env_->cost().dlock_manager_op,
                   [this, requester, lock_id, granted = std::move(granted)]() mutable {
                     ManagerAcquire(requester, lock_id, std::move(granted));
                   });
             });
}

void DistributedLockService::ManagerAcquire(NodeId requester, uint64_t lock_id, Granted granted) {
  LockState& state = locks_[lock_id];
  if (state.held) {
    m_contended_.Increment();
    state.waiters.emplace_back(requester, std::move(granted));
    return;
  }
  state.held = true;
  Grant(requester, std::move(granted));
}

void DistributedLockService::Release(NodeId requester, uint64_t lock_id) {
  if (requester == home_) {
    manager_core_->Submit(env_->cost().dlock_manager_op,
                          [this, lock_id]() { ManagerRelease(lock_id); });
    return;
  }
  wire_.Send(requester, home_, kLockMessageBytes, [this, lock_id]() {
    manager_core_->Submit(env_->cost().dlock_manager_op, [this, lock_id]() { ManagerRelease(lock_id); });
  });
}

void DistributedLockService::ManagerRelease(uint64_t lock_id) {
  LockState& state = locks_[lock_id];
  if (state.waiters.empty()) {
    state.held = false;
    return;
  }
  auto [next, granted] = std::move(state.waiters.front());
  state.waiters.pop_front();
  Grant(next, std::move(granted));  // The lock passes on still held.
}

void DistributedLockService::Grant(NodeId requester, Granted granted) {
  if (requester == home_) {
    sim().Schedule(0, std::move(granted));
    return;
  }
  wire_.Send(home_, requester, kLockMessageBytes, std::move(granted));
}

}  // namespace nadino
