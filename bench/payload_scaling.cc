// Payload-scaling study: the four-stage media pipeline at growing frame
// sizes, NADINO vs the copy-per-hop baselines. Large payloads are where
// zero-copy pays: NADINO's cost per hop is descriptor-sized while SPRIGHT
// and Junction serialize every frame through their transports.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/apps/pipeline.h"
#include "src/core/nadino.h"

using namespace nadino;

namespace {

struct Row {
  double rps = 0.0;
  double latency_us = 0.0;
  uint64_t copies = 0;
};

Row RunPipeline(uint32_t frame_bytes, SystemUnderTest system) {
  ClusterConfig config;
  config.worker_nodes = 2;
  config.with_ingress_node = false;
  Testbed s(CostModel::Default(), config);
  const PipelineSpec spec = BuildPipelineSpec(frame_bytes);
  s.cluster().CreateTenantPools(spec.tenant, 2048, frame_bytes + 4096);
  s.Deploy(system, spec.tenant);
  s.UseExecutor().RegisterChain(spec.chain);
  for (size_t i = 0; i < spec.stages.size(); ++i) {
    s.Spawn(spec.stages[i], spec.tenant, "stage" + std::to_string(i),
            s.worker(static_cast<int>(i % 2)));  // Every hop crosses.
  }
  ChainClients clients(s);
  clients.Add(30, spec.chain, spec.chain.entry_request_payload);

  // Closed loop: keep `window` requests in flight.
  int outstanding = 0;
  const int window = 8;
  std::function<void()> fill = [&]() {
    while (outstanding < window && clients.Issue(0)) {
      ++outstanding;
    }
  };
  clients.SetOnResponse([&]() {
    --outstanding;
    fill();
  });
  fill();
  uint64_t before = 0;
  const SimDuration measured = s.RunWindow(100 * kMillisecond, 400 * kMillisecond, [&] {
    clients.latencies().Reset();
    before = clients.completed();
  });
  Row row;
  row.rps = RatePerSecond(clients.completed() - before, measured);
  row.latency_us = clients.latencies().MeanUs();
  row.copies = s.cluster().metrics().ValueOf("dataplane_payload_copies");
  return row;
}

}  // namespace

int main() {
  bench::Title("Payload scaling — 4-stage media pipeline, every hop cross-node",
               "zero-copy leverage at growing frame sizes (extension study)");
  std::printf("%-10s | %10s %12s %10s | %10s %12s %10s | %10s %12s\n", "frame", "NADINO",
              "lat (us)", "copies", "SPRIGHT", "lat (us)", "copies", "Junction",
              "lat (us)");
  for (const uint32_t frame : {4096u, 16384u, 65536u, 262144u}) {
    const Row nadino = RunPipeline(frame, SystemUnderTest::kNadinoDne);
    const Row spright = RunPipeline(frame, SystemUnderTest::kSpright);
    const Row junction = RunPipeline(frame, SystemUnderTest::kJunction);
    std::printf("%-10u | %10.0f %12.1f %10llu | %10.0f %12.1f %10llu | %10.0f %12.1f\n",
                frame, nadino.rps, nadino.latency_us,
                static_cast<unsigned long long>(nadino.copies), spright.rps,
                spright.latency_us, static_cast<unsigned long long>(spright.copies),
                junction.rps, junction.latency_us);
  }
  bench::Note(
      "NADINO's copy count stays zero at every size; the baselines' per-hop "
      "serialization grows linearly with the frame, so the gap widens with "
      "payload size — the distributed zero-copy claim, quantified.");
  return 0;
}
