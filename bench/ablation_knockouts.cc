// Ablation — knock out NADINO's design choices one at a time and measure the
// damage on the end-to-end boutique workload and the fairness experiment:
//   * on-path DNE instead of cross-processor shared memory (section 3.4.2);
//   * CNE instead of DPU offloading (section 3.2);
//   * FCFS instead of DWRR (section 3.3);
//   * deferred transport conversion instead of the early-conversion ingress
//     (section 3.6) — NADINO's data plane behind an F-Ingress.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/experiments.h"
#include "src/runtime/chain.h"

using namespace nadino;

namespace {

// NADINO (DNE) end-to-end with a configurable knockout.
struct KnockoutResult {
  double rps = 0.0;
  double latency_ms = 0.0;
};

KnockoutResult RunKnockout(bool on_path) {
  ClusterConfig config;
  config.worker_nodes = 2;
  Testbed s(CostModel::Default(), config);
  NadinoDataPlane::Options dp_options;
  dp_options.engine.on_path = on_path;
  IngressGateway& gateway =
      s.DeployBoutique(BuildBoutiqueSpec(1), SystemUnderTest::kNadinoDne, dp_options);

  ClosedLoopClients::Options client_options;
  client_options.num_clients = 60;
  client_options.path = "/home";
  client_options.payload_bytes = 256;
  ClosedLoopClients clients(s.env(), &gateway, client_options);
  clients.Start();
  uint64_t before = 0;
  const SimDuration window = s.RunWindow(200 * kMillisecond, 500 * kMillisecond, [&] {
    clients.mutable_latencies().Reset();
    before = clients.completed();
  });
  KnockoutResult result;
  result.rps = RatePerSecond(clients.completed() - before, window);
  result.latency_ms = clients.latencies().MeanUs() / 1000.0;
  return result;
}

}  // namespace

int main() {
  bench::Title("Ablation — NADINO design-choice knockouts",
               "sections 3.2-3.6 mechanisms, measured on Home Query @ 60 clients");
  const CostModel& cost = CostModel::Default();

  std::printf("%-44s %10s %12s %8s\n", "configuration", "RPS", "mean lat", "vs full");
  const KnockoutResult full = RunKnockout(false);
  std::printf("%-44s %10.0f %9.2f ms %8s\n", "NADINO (full: off-path DNE, early conv.)",
              full.rps, full.latency_ms, "1.00x");
  const KnockoutResult on_path = RunKnockout(true);
  std::printf("%-44s %10.0f %9.2f ms %7.2fx\n", "  - cross-proc shm (on-path SoC DMA)",
              on_path.rps, on_path.latency_ms, full.rps / on_path.rps);
  // The conversion knockout is measured where the ingress is the contended
  // resource (the Fig. 13 workload): the boutique's chain load would mask it
  // because removing the ingress RDMA leg also unloads the DNE.
  IngressEchoOptions ingress_options;
  ingress_options.clients = 32;
  ingress_options.duration = 400 * kMillisecond;
  ingress_options.warmup = 100 * kMillisecond;
  ingress_options.mode = IngressMode::kNadino;
  const IngressEchoResult early = RunIngressEcho(cost, ingress_options);
  ingress_options.mode = IngressMode::kFIngress;
  const IngressEchoResult deferred = RunIngressEcho(cost, ingress_options);
  std::printf("%-44s %10.0f %9.2f ms %7.2fx   (http-echo @32 clients)\n",
              "  - early conversion (F-Ingress deferred)", deferred.rps,
              deferred.mean_latency_us / 1000.0, early.rps / deferred.rps);
  BoutiqueOptions cne_options;
  cne_options.system = SystemUnderTest::kNadinoCne;
  cne_options.clients = 60;
  cne_options.duration = 500 * kMillisecond;
  cne_options.warmup = 200 * kMillisecond;
  const BoutiqueResult cne = RunBoutique(cost, cne_options);
  std::printf("%-44s %10.0f %9.2f ms %7.2fx\n", "  - DPU offloading (CNE on a host core)",
              cne.rps, cne.mean_latency_ms, full.rps / cne.rps);

  // DWRR -> FCFS knockout on the two-tenant contention scenario.
  MultiTenantOptions mt;
  mt.duration = 2 * kSecond;
  mt.tenants = {{1, 6, 0, 2 * kSecond, 64, 1024}, {2, 1, 0, 2 * kSecond, 64, 1024}};
  mt.use_dwrr = true;
  const MultiTenantResult dwrr = RunMultiTenant(cost, mt);
  mt.use_dwrr = false;
  const MultiTenantResult fcfs = RunMultiTenant(cost, mt);
  const double dwrr_ratio = static_cast<double>(dwrr.tenant_completed.at(1)) /
                            static_cast<double>(dwrr.tenant_completed.at(2));
  const double fcfs_ratio = static_cast<double>(fcfs.tenant_completed.at(1)) /
                            static_cast<double>(fcfs.tenant_completed.at(2));
  std::printf("%-44s %10s %12s\n", "  - DWRR (FCFS scheduler), weights 6:1:", "", "");
  std::printf("      share ratio with DWRR: %.2f : 1  (target 6:1)\n", dwrr_ratio);
  std::printf("      share ratio with FCFS: %.2f : 1  (weights ignored)\n", fcfs_ratio);
  return 0;
}
