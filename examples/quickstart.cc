// Quickstart: assemble a minimal NADINO deployment by hand — two worker
// nodes with DPUs, one tenant, two functions — and push a checksummed message
// from a function on node 1 to a function on node 2 through the full
// zero-copy pipeline: SK_MSG descriptor -> Comch -> DNE -> two-sided RDMA ->
// peer DNE -> Comch -> destination function.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "src/core/nadino.h"

using namespace nadino;

int main() {
  const CostModel& cost = CostModel::Default();

  // 1. A two-worker cluster on a 200 Gbps fabric (no ingress needed here).
  ClusterConfig config;
  config.worker_nodes = 2;
  config.with_ingress_node = false;
  Cluster cluster(&cost, config);

  // 2. One tenant (= one function chain) with a unified memory pool per node.
  const TenantId tenant = 1;
  cluster.CreateTenantPools(tenant, /*buffers=*/1024, /*buffer_size=*/8192);

  // 3. The NADINO data plane: a DNE on each worker's DPU, RC connections
  //    pre-established between the nodes, receive buffers posted.
  NadinoDataPlane dataplane(cluster.env(), &cluster.routing(),
                            NadinoDataPlane::Options{});
  dataplane.AddWorkerNode(cluster.worker(0));
  dataplane.AddWorkerNode(cluster.worker(1));
  dataplane.AttachTenant(tenant, /*weight=*/1);
  dataplane.Start();

  // 4. Two functions of that tenant, one per node, each with a dedicated core.
  FunctionRuntime producer(/*id=*/11, tenant, "producer", cluster.worker(0),
                           cluster.worker(0)->AllocateCore(),
                           cluster.worker(0)->tenants().PoolOfTenant(tenant));
  FunctionRuntime consumer(/*id=*/12, tenant, "consumer", cluster.worker(1),
                           cluster.worker(1)->AllocateCore(),
                           cluster.worker(1)->tenants().PoolOfTenant(tenant));
  dataplane.RegisterFunction(&producer);
  dataplane.RegisterFunction(&consumer);

  // 5. The consumer verifies integrity on arrival and recycles the buffer.
  consumer.SetHandler([&](FunctionRuntime& fn, Buffer* buffer) {
    const std::optional<MessageHeader> header = ReadMessage(*buffer);
    if (!header.has_value()) {
      std::printf("message corrupted in flight!\n");
    } else {
      std::printf("consumer got request %llu: %u payload bytes, checksum %016llx OK, "
                  "at t=%.1f us\n",
                  static_cast<unsigned long long>(header->request_id),
                  header->payload_length,
                  static_cast<unsigned long long>(header->payload_checksum),
                  ToUs(cluster.sim().now()));
    }
    fn.pool()->Put(buffer, fn.owner_id());
  });

  // 6. The producer grabs a pool buffer (no malloc on the data path), writes
  //    a 2 KB message, and hands it to the unified I/O library.
  Buffer* buffer = producer.pool()->Get(producer.owner_id());
  MessageHeader header;
  header.src = producer.id();
  header.dst = consumer.id();
  header.payload_length = 2048;
  header.request_id = 1;
  WriteMessage(buffer, header);
  std::printf("producer sends 2 KB from node %u to node %u...\n",
              cluster.worker(0)->id(), cluster.worker(1)->id());
  dataplane.Send(&producer, buffer);

  cluster.sim().RunFor(10 * kMillisecond);

  std::printf("\ndata plane stats: %llu sends (%llu inter-node), %llu software copies "
              "(zero-copy!)\n",
              static_cast<unsigned long long>(cluster.metrics().ValueOf("dataplane_sends")),
              static_cast<unsigned long long>(cluster.metrics().ValueOf("dataplane_inter_node")),
              static_cast<unsigned long long>(
                  cluster.metrics().ValueOf("dataplane_payload_copies")));

  // 7. The packaged experiments do the heavy lifting for real studies:
  DneEchoOptions echo;
  echo.payload = 64;
  echo.duration = 200 * kMillisecond;
  const EchoResult result = RunDneEcho(cost, echo);
  std::printf("two-sided 64 B echo through a pair of DNEs: %.2f us mean RTT, %.0f RPS "
              "(paper: 8.4 us)\n",
              result.mean_latency_us, result.rps);
  return 0;
}
