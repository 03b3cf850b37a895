// Tenant policy demo: customizing the DNE beyond weighted fairness (section
// 4.2's "workload-specific optimizations by customizing policies in DNE").
// Shows a token-bucket rate cap on a noisy tenant plus structured tracing of
// the engines' TX/RX stages.
//
//   ./build/examples/tenant_policies

#include <cstdio>

#include "src/core/nadino.h"

using namespace nadino;

int main() {
  const CostModel& cost = CostModel::Default();
  ClusterConfig config;
  config.worker_nodes = 2;
  config.with_ingress_node = false;
  Testbed testbed(cost, config);
  testbed.cluster().CreateTenantPools(1, 1024, 8192);
  testbed.cluster().CreateTenantPools(2, 1024, 8192);
  Simulator& sim = testbed.sim();

  NadinoDataPlane& dp = testbed.UseNadino({});
  NetworkEngine* engine = testbed.engines()[0];
  dp.AttachTenant(1, 1);
  dp.AttachTenant(2, 1);
  dp.Start();

  // Policy: tenant 2 is capped at ~160 Mbit/s of egress, burst 8 KB.
  engine->SetTenantRate(2, 160e6, 8192);

  // Trace the run: every component emits through the Env's tracer.
  Tracer tracer(&sim, 1 << 16);
  testbed.env().SetTracer(&tracer);

  std::vector<TenantEchoLoad*> loads;
  for (const TenantId tenant : {1u, 2u}) {
    const EchoPair pair = testbed.SpawnEchoPair(tenant, 100 + tenant, 200 + tenant,
                                                testbed.worker(0), testbed.worker(1));
    loads.push_back(testbed.AddEchoLoad(pair, /*payload=*/1024, /*window=*/48));
    loads.back()->SetActive(true);
  }

  sim.RunFor(2 * kSecond);

  std::printf("tenant 1 (unshaped):        %8.0f rps\n",
              static_cast<double>(loads[0]->completed()) / 2.0);
  std::printf("tenant 2 (capped 160 Mbps): %8.0f rps  (~%.0f expected at 1.1 KB wire "
              "size)\n",
              static_cast<double>(loads[1]->completed()) / 2.0, 160e6 / 8 / 1124);
  const auto& shaping = engine->rate_limiter().stats();
  std::printf("shaper: %llu admitted, %llu delayed, mean hold %.1f us\n",
              static_cast<unsigned long long>(shaping.admitted),
              static_cast<unsigned long long>(shaping.delayed),
              shaping.delayed == 0
                  ? 0.0
                  : ToUs(shaping.total_delay) / static_cast<double>(shaping.delayed));

  std::printf("\nlast trace events:\n");
  const auto recent = tracer.Snapshot();
  const size_t show = recent.size() < 8 ? recent.size() : 8;
  for (size_t i = recent.size() - show; i < recent.size(); ++i) {
    std::printf("  t=%.2fus [%s/%u] %s arg0=%llu arg1=%llu\n", ToUs(recent[i].at),
                TraceCategoryName(recent[i].category), recent[i].actor,
                recent[i].label.c_str(), static_cast<unsigned long long>(recent[i].arg0),
                static_cast<unsigned long long>(recent[i].arg1));
  }
  return 0;
}
