// Per-tenant memory isolation via file-prefix binding.
//
// Models NADINO's use of DPDK's file-prefix feature (paper section 3.4.1):
// a per-tenant shared-memory agent (the DPDK primary process) creates the
// pool and publishes a memory-mapped configuration under a distinct file
// prefix; functions (DPDK secondary processes) attach only through the prefix
// their tenant owns. Attaching with the wrong prefix, or from a function of a
// different tenant, is rejected — this is the isolation boundary the paper's
// threat model relies on for shared-memory processing.

#ifndef SRC_MEM_TENANT_REGISTRY_H_
#define SRC_MEM_TENANT_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/types.h"
#include "src/mem/buffer_pool.h"
#include "src/mem/hugepage_arena.h"
#include "src/sim/metrics.h"

namespace nadino {

class TenantRegistry {
 public:
  struct PoolConfig {
    size_t buffer_count = 1024;
    size_t buffer_size = 8192;
  };

  TenantRegistry() = default;
  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  // Publishes per-pool callback metrics (labels: {tenant, node}) into
  // `registry`. Pools created before or after the bind are both covered;
  // pools keep their local counters, the registry samples them at snapshot
  // time. Pass MetricLabels::kUnset as `node` when the registry is not
  // node-scoped (standalone tests).
  void BindMetrics(MetricsRegistry* registry, int64_t node);

  // The shared-memory agent path: creates the tenant's unified pool and binds
  // it to `file_prefix`. Returns nullptr if the prefix or tenant is already
  // bound (each tenant has exactly one pool; each prefix one tenant).
  BufferPool* CreatePool(TenantId tenant, const std::string& file_prefix,
                         const PoolConfig& config);

  // Registers which tenant a function belongs to. A function belongs to
  // exactly one tenant (a tenant == a function chain in NADINO).
  bool RegisterFunction(FunctionId function, TenantId tenant);

  // The function attach path (DPDK secondary process loading the mapped
  // config). Succeeds only when `function` is registered to the tenant that
  // owns `file_prefix`. Failed attaches are counted.
  BufferPool* Attach(FunctionId function, const std::string& file_prefix);

  // Direct lookup for trusted infrastructure (the DNE), which may see all
  // tenant pools because it proxies the RNIC for everyone.
  BufferPool* PoolOfTenant(TenantId tenant);
  BufferPool* PoolById(PoolId pool);

  TenantId TenantOfFunction(FunctionId function) const;

  uint64_t denied_attaches() const { return denied_attaches_; }
  size_t pool_count() const { return pools_.size(); }
  const HugepageArena& arena() const { return arena_; }

 private:
  void PublishPoolMetrics(const BufferPool& pool);

  MetricsRegistry* metrics_ = nullptr;  // Unowned; null until BindMetrics.
  int64_t node_label_ = MetricLabels::kUnset;
  HugepageArena arena_;
  std::vector<std::unique_ptr<BufferPool>> pools_;
  std::map<std::string, TenantId> prefix_to_tenant_;
  std::map<TenantId, PoolId> tenant_to_pool_;
  std::map<FunctionId, TenantId> function_to_tenant_;
  uint64_t denied_attaches_ = 0;
};

}  // namespace nadino

#endif  // SRC_MEM_TENANT_REGISTRY_H_
