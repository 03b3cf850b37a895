#include "src/runtime/node.h"

#include <string>

#include "src/rdma/control_plane.h"

namespace nadino {

Node::Node(Env& env, NodeId id, RdmaNetwork* network, const Config& config)
    : env_(&env), id_(id) {
  cores_.reserve(static_cast<size_t>(config.host_cores));
  for (int i = 0; i < config.host_cores; ++i) {
    cores_.push_back(std::make_unique<FifoResource>(
        &env.sim(), "cpu:" + std::to_string(id) + ":" + std::to_string(i)));
  }
  if (config.with_dpu) {
    dpu_ = std::make_unique<Dpu>(env, id);
  }
  rnic_ = std::make_unique<RdmaEngine>(env, id, network);
  tenants_.BindMetrics(&env.metrics(), static_cast<int64_t>(id));
}

Node::~Node() = default;

ConnectionService& Node::connections() {
  if (!connections_) {
    connections_ = std::make_unique<ConnectionService>(*env_, rnic_.get());
  }
  return *connections_;
}

FifoResource* Node::AllocateCore() {
  FifoResource* core = cores_.at(static_cast<size_t>(next_core_)).get();
  next_core_ = (next_core_ + 1) % static_cast<int>(cores_.size());
  ++allocated_cores_;
  if (allocated_cores_ > static_cast<int>(cores_.size())) {
    // The allocator wrapped: this "dedicated" core is already owned by an
    // earlier function/engine. Record it — silent sharing skews per-core
    // utilization readings and the autoscaler signals built on them.
    if (!m_oversubscribed_.resolved()) {
      m_oversubscribed_ = env_->metrics().ResolveCounter("node_core_oversubscribed",
                                                         MetricLabels::Node(id_));
    }
    m_oversubscribed_.Increment();
    env_->Trace(TraceCategory::kCluster, id_, "core_oversubscribed",
                static_cast<uint64_t>(allocated_cores_),
                static_cast<uint64_t>(cores_.size()));
  }
  return core;
}

void Node::ResetUtilizationWindows() {
  for (const auto& core : cores_) {
    core->ResetWindow();
  }
  if (dpu_) {
    for (int i = 0; i < dpu_->num_cores(); ++i) {
      dpu_->core(i).ResetWindow();
    }
  }
}

}  // namespace nadino
