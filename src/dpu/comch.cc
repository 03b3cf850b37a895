#include "src/dpu/comch.h"

#include <utility>

namespace nadino {

ComchServer::ComchServer(Env& env, FifoResource* dpu_core, bool engine_managed_polling,
                         NodeId node)
    : env_(&env),
      dpu_core_(dpu_core),
      engine_managed_polling_(engine_managed_polling),
      node_(node) {}

ComchServer::Costs ComchServer::CostsFor(ComchVariant variant) const {
  switch (variant) {
    case ComchVariant::kEvent:
      return {env_->cost().comch_e_host_send, env_->cost().comch_e_host_recv, env_->cost().comch_e_channel,
              env_->cost().comch_e_dpu_side};
    case ComchVariant::kPolling:
      return {env_->cost().comch_p_host_side, env_->cost().comch_p_host_side, env_->cost().comch_p_channel,
              env_->cost().comch_p_dpu_side +
                  env_->cost().comch_p_progress_sweep_per_endpoint * polling_endpoints_};
    case ComchVariant::kTcp:
      return {env_->cost().comch_tcp_host_side, env_->cost().comch_tcp_host_side, env_->cost().comch_tcp_channel,
              env_->cost().comch_tcp_dpu_side};
  }
  return {};
}

void ComchServer::ConnectEndpoint(FunctionId fn, ComchVariant variant, FifoResource* host_core,
                                  HostReceiver host_receiver, TenantId tenant) {
  Endpoint ep;
  ep.variant = variant;
  ep.host_core = host_core;
  ep.host_receiver = std::move(host_receiver);
  ep.tenant = tenant;
  if (variant == ComchVariant::kPolling) {
    ++polling_endpoints_;
    host_core->set_pinned(true);  // Busy polling ties up the function's core.
  }
  endpoints_[fn] = std::move(ep);
}

TenantId ComchServer::TenantOf(FunctionId fn) const {
  const auto it = endpoints_.find(fn);
  return it == endpoints_.end() ? kInvalidTenant : it->second.tenant;
}

void ComchServer::CountDrop(FunctionId fn) {
  const TenantId tenant = TenantOf(fn);
  auto& counter = drop_counters_[tenant];
  if (counter == nullptr) {
    MetricLabels labels;
    if (node_ != kInvalidNode) {
      labels.node = static_cast<int64_t>(node_);
    }
    if (tenant != kInvalidTenant) {
      labels.tenant = static_cast<int64_t>(tenant);
    }
    counter = &env_->metrics().Counter("comch_dropped", labels);
  }
  counter->Increment();
}

bool ComchServer::SendToDpu(FunctionId fn, const BufferDescriptor& desc) {
  const auto it = endpoints_.find(fn);
  if (it == endpoints_.end()) {
    CountDrop(fn);
    return false;
  }
  // kComch fault site. Corruption flips bits in the 16-byte descriptor as it
  // crosses PCIe; the DPU side decodes the damaged wire image and the
  // resolve/ownership checks downstream must reject it (no silent corruption).
  BufferDescriptor crossing = desc;
  auto wire = crossing.Encode();
  const FaultDecision fault = env_->faults().Intercept(
      FaultSite::kComch, FaultScope{it->second.tenant, node_}, wire.data(), wire.size());
  if (fault.action == FaultAction::kDrop) {
    CountDrop(fn);
    return false;
  }
  if (fault.action == FaultAction::kCorrupt) {
    crossing = BufferDescriptor::Decode(wire);
  }
  ++to_dpu_;
  const Costs costs = CostsFor(it->second.variant);
  const SimDuration channel =
      costs.channel + (fault.action == FaultAction::kDelay ? fault.delay : 0);
  it->second.host_core->Submit(costs.host_send, [this, fn, desc = crossing, channel, costs]() {
    sim().Schedule(channel, [this, fn, desc, costs]() {
      if (engine_managed_polling_) {
        // The owning engine discovers the descriptor on its next loop pass
        // and charges the handling cost within its scheduled stage.
        if (receiver_) {
          receiver_(fn, desc);
        }
        return;
      }
      dpu_core_->Submit(costs.dpu_side, [this, fn, desc]() {
        if (receiver_) {
          receiver_(fn, desc);
        }
      });
    });
  });
  return true;
}

bool ComchServer::SendToHost(FunctionId fn, const BufferDescriptor& desc) {
  const auto it = endpoints_.find(fn);
  if (it == endpoints_.end()) {
    CountDrop(fn);
    return false;
  }
  Endpoint* endpoint = &it->second;
  BufferDescriptor crossing = desc;
  auto wire = crossing.Encode();
  const FaultDecision fault = env_->faults().Intercept(
      FaultSite::kComch, FaultScope{endpoint->tenant, node_}, wire.data(), wire.size());
  if (fault.action == FaultAction::kDrop) {
    CountDrop(fn);
    return false;
  }
  if (fault.action == FaultAction::kCorrupt) {
    crossing = BufferDescriptor::Decode(wire);
  }
  ++to_host_;
  const Costs costs = CostsFor(endpoint->variant);
  const SimDuration channel =
      costs.channel + (fault.action == FaultAction::kDelay ? fault.delay : 0);
  // Each stage reads the endpoint through the pointer, so a ConnectEndpoint
  // that replaces it while the message is in flight is seen.
  auto after_dpu_side = [this, fn, endpoint, desc = crossing, channel, costs]() {
    sim().Schedule(channel, [this, fn, endpoint, desc, costs]() {
      endpoint->host_core->Submit(costs.host_recv, [this, fn, endpoint, desc]() {
        if (!endpoint->host_receiver) {
          CountDrop(fn);
          return;
        }
        endpoint->host_receiver(desc);
      });
    });
  };
  if (engine_managed_polling_) {
    after_dpu_side();  // The engine already charged the DPU-side handling.
    return true;
  }
  dpu_core_->Submit(costs.dpu_side, std::move(after_dpu_side));
  return true;
}

}  // namespace nadino
