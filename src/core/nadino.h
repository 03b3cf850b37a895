// NADINO — public API façade.
//
// Include this header to get the full library: the simulation kernel, memory
// subsystem, RDMA/DPU/transport substrates, the DNE network engine, the
// NADINO data plane, ingress gateway, baselines, the Online Boutique
// application, and the experiment harness that regenerates every table and
// figure of the paper.
//
// Typical usage (see examples/quickstart.cc):
//
//   nadino::CostModel cost = nadino::CostModel::Default();
//   nadino::DneEchoOptions options;
//   options.payload = 64;
//   nadino::EchoResult r = nadino::RunDneEcho(cost, options);
//
// or assemble a cluster by hand with nadino::Cluster, NadinoDataPlane,
// ChainExecutor, and IngressGateway for custom topologies.

#ifndef SRC_CORE_NADINO_H_
#define SRC_CORE_NADINO_H_

#include "src/apps/boutique.h"
#include "src/baselines/baseline_dataplane.h"
#include "src/baselines/capabilities.h"
#include "src/core/calibration.h"
#include "src/core/experiments.h"
#include "src/core/types.h"
#include "src/dne/nadino_dataplane.h"
#include "src/dne/network_engine.h"
#include "src/dne/rbr_table.h"
#include "src/dne/scheduler.h"
#include "src/dpu/comch.h"
#include "src/dpu/cross_mmap.h"
#include "src/dpu/dpu.h"
#include "src/ingress/gateway.h"
#include "src/mem/buffer_pool.h"
#include "src/mem/copy_engine.h"
#include "src/mem/hugepage_arena.h"
#include "src/mem/tenant_registry.h"
#include "src/rdma/control_plane.h"
#include "src/rdma/distributed_lock.h"
#include "src/rdma/rdma_engine.h"
#include "src/runtime/chain.h"
#include "src/runtime/dataplane.h"
#include "src/runtime/function.h"
#include "src/runtime/message_header.h"
#include "src/runtime/node.h"
#include "src/runtime/routing_table.h"
#include "src/runtime/workload.h"
#include "src/sim/link.h"
#include "src/sim/random.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/transport/http.h"
#include "src/transport/tcp_model.h"

#endif  // SRC_CORE_NADINO_H_
