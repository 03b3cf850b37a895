#include "src/mem/tenant_registry.h"

namespace nadino {

void TenantRegistry::BindMetrics(MetricsRegistry* registry, int64_t node) {
  metrics_ = registry;
  node_label_ = node;
  for (const auto& pool : pools_) {
    PublishPoolMetrics(*pool);
  }
}

void TenantRegistry::PublishPoolMetrics(const BufferPool& pool) {
  if (metrics_ == nullptr) {
    return;
  }
  MetricLabels labels;
  labels.tenant = static_cast<int64_t>(pool.tenant());
  labels.node = node_label_;
  const BufferPool* p = &pool;
  metrics_->RegisterCallback("pool_gets", labels, [p] { return p->stats().gets; });
  metrics_->RegisterCallback("pool_puts", labels, [p] { return p->stats().puts; });
  metrics_->RegisterCallback("pool_get_failures", labels,
                             [p] { return p->stats().get_failures; });
  metrics_->RegisterCallback("pool_ownership_violations", labels,
                             [p] { return p->stats().ownership_violations; });
  metrics_->RegisterCallback("pool_transfers", labels, [p] { return p->stats().transfers; });
  metrics_->RegisterCallback("pool_free_buffers", labels,
                             [p] { return static_cast<uint64_t>(p->free_count()); });
}

BufferPool* TenantRegistry::CreatePool(TenantId tenant, const std::string& file_prefix,
                                       const PoolConfig& config) {
  if (prefix_to_tenant_.count(file_prefix) > 0 || tenant_to_pool_.count(tenant) > 0) {
    return nullptr;
  }
  const auto pool_id = static_cast<PoolId>(pools_.size());
  pools_.push_back(std::make_unique<BufferPool>(pool_id, tenant, config.buffer_count,
                                                config.buffer_size, &arena_));
  prefix_to_tenant_[file_prefix] = tenant;
  tenant_to_pool_[tenant] = pool_id;
  PublishPoolMetrics(*pools_.back());
  return pools_.back().get();
}

bool TenantRegistry::RegisterFunction(FunctionId function, TenantId tenant) {
  return function_to_tenant_.emplace(function, tenant).second;
}

BufferPool* TenantRegistry::Attach(FunctionId function, const std::string& file_prefix) {
  const auto prefix_it = prefix_to_tenant_.find(file_prefix);
  const auto fn_it = function_to_tenant_.find(function);
  if (prefix_it == prefix_to_tenant_.end() || fn_it == function_to_tenant_.end() ||
      prefix_it->second != fn_it->second) {
    ++denied_attaches_;
    return nullptr;
  }
  return PoolOfTenant(prefix_it->second);
}

BufferPool* TenantRegistry::PoolOfTenant(TenantId tenant) {
  const auto it = tenant_to_pool_.find(tenant);
  return it == tenant_to_pool_.end() ? nullptr : pools_[it->second].get();
}

BufferPool* TenantRegistry::PoolById(PoolId pool) {
  return pool < pools_.size() ? pools_[pool].get() : nullptr;
}

TenantId TenantRegistry::TenantOfFunction(FunctionId function) const {
  const auto it = function_to_tenant_.find(function);
  return it == function_to_tenant_.end() ? kInvalidTenant : it->second;
}

}  // namespace nadino
