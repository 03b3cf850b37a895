// Experiment harness: one entry point per paper experiment. The bench
// binaries under bench/ are thin wrappers that call these and print the
// paper-shaped rows; tests reuse them for calibration and integration
// coverage.

#ifndef SRC_CORE_EXPERIMENTS_H_
#define SRC_CORE_EXPERIMENTS_H_

#include <map>
#include <string>
#include <vector>

#include "src/core/calibration.h"
#include "src/core/env.h"
#include "src/core/scenario.h"
#include "src/dpu/comch.h"
#include "src/rdma/rdma_engine.h"
#include "src/runtime/node.h"
#include "src/runtime/routing_table.h"
#include "src/sim/simulator.h"

namespace nadino {

// Every entry point assembles its experiment through the scenario module
// (src/core/scenario.h), which owns cluster, data-plane, function and gateway
// assembly, the measure window and the metrics tail the results end with.

// ---------------------------------------------------------------------------
// Echo microbenchmarks (Figs. 6, 11, 12)
// ---------------------------------------------------------------------------

struct EchoResult : RunMetrics {
  double mean_latency_us = 0.0;
  double p99_latency_us = 0.0;
  double rps = 0.0;
  uint64_t completed = 0;
};

// DNE/CNE echo across two worker nodes.
struct DneEchoOptions {
  uint32_t payload = 64;
  int concurrency = 1;
  SimDuration duration = 1 * kSecond;
  SimDuration warmup = 100 * kMillisecond;
  bool on_path = false;
  NetworkEngine::Kind kind = NetworkEngine::Kind::kDne;
  // false: the engines themselves are the echo endpoints (Fig. 12 setup);
  // true: host functions echo through Comch/SK_MSG (Fig. 6 setup).
  bool via_functions = false;
  SimDuration extra_engine_cost = 0;
};
EchoResult RunDneEcho(const CostModel& cost, const DneEchoOptions& options);

// Functions drive two-sided verbs directly, on host or DPU cores (Fig. 6).
struct NativeEchoOptions {
  uint32_t payload = 64;
  int concurrency = 1;
  SimDuration duration = 1 * kSecond;
  SimDuration warmup = 100 * kMillisecond;
  bool on_dpu_cores = false;
};
EchoResult RunNativeRdmaEcho(const CostModel& cost, const NativeEchoOptions& options);

// One-sided alternatives of Fig. 3 / Fig. 12.
enum class OneSidedVariant {
  kOwrcBest,   // One-sided write + receiver-side copy, cache-hot copy.
  kOwrcWorst,  // Same with forced main-memory copy.
  kOwdl,       // One-sided write + distributed locks, unified pool.
};
struct OneSidedEchoOptions {
  OneSidedVariant variant = OneSidedVariant::kOwrcBest;
  uint32_t payload = 64;
  int concurrency = 1;
  SimDuration duration = 1 * kSecond;
  SimDuration warmup = 100 * kMillisecond;
};
EchoResult RunOneSidedEcho(const CostModel& cost, const OneSidedEchoOptions& options);

// ---------------------------------------------------------------------------
// Cross-processor channel benchmark (Fig. 9)
// ---------------------------------------------------------------------------

struct ComchBenchOptions {
  ComchVariant variant = ComchVariant::kEvent;
  int num_functions = 1;
  SimDuration duration = 500 * kMillisecond;
  SimDuration warmup = 50 * kMillisecond;
};
struct ComchBenchResult : RunMetrics {
  double mean_rtt_us = 0.0;
  double descriptor_rps = 0.0;
};
ComchBenchResult RunComchBench(const CostModel& cost, const ComchBenchOptions& options);

// ---------------------------------------------------------------------------
// Ingress experiments (Figs. 13, 14)
// ---------------------------------------------------------------------------

// Faults, SLOs and retries as in MultiTenantOptions; the gateway tenant is 1.
struct IngressEchoOptions : SloOptions {
  IngressMode mode = IngressMode::kNadino;
  int clients = 1;
  SimDuration duration = 1 * kSecond;
  SimDuration warmup = 200 * kMillisecond;
  uint32_t payload = 256;
  bool autoscale = false;
  int initial_workers = 1;
  int max_workers = 8;
  // Fig. 14 ramp: add one client every `ramp_interval` until `clients`.
  SimDuration ramp_interval = 0;
  SimDuration sample_period = kSecond;
  uint64_t seed = kDefaultSeed;
};
struct IngressEchoResult : RunMetrics {
  double mean_latency_us = 0.0;
  double p99_latency_us = 0.0;
  double rps = 0.0;
  TimeSeries cpu_series;  // Worker cores in use (busy-poll aware).
  TimeSeries rps_series;
  uint64_t scale_ups = 0;
  uint64_t scale_downs = 0;
  int final_workers = 0;
  // Total simulator callbacks executed, for wall-clock perf accounting
  // (bench/simperf.cc divides wall time by this to get ns/event).
  uint64_t sim_events = 0;
};
IngressEchoResult RunIngressEcho(const CostModel& cost, const IngressEchoOptions& options);

// ---------------------------------------------------------------------------
// RDMA multi-tenancy (Figs. 15, 17)
// ---------------------------------------------------------------------------

struct TenantScenario {
  TenantId tenant = 1;
  uint32_t weight = 1;
  SimTime start = 0;
  SimTime stop = 0;
  int window = 64;
  uint32_t payload = 1024;
};
struct MultiTenantOptions : SloOptions {
  bool use_dwrr = true;
  std::vector<TenantScenario> tenants;
  SimDuration duration = 10 * kSecond;
  SimDuration sample_period = kSecond;
  // Throttle reproducing "DNE configured to sustain ~110K RPS on one core".
  SimDuration extra_engine_cost = 1200;
  uint64_t seed = kDefaultSeed;
};
struct MultiTenantResult : RunMetrics {
  std::map<TenantId, TimeSeries> tenant_rps;
  std::map<TenantId, uint64_t> tenant_completed;
  // Per-tenant messages the TX schedulers served, read back from the
  // registry's engine_tenant_served instruments (summed over engines).
  std::map<TenantId, uint64_t> tenant_served;
  // dataplane_drops from the registry.
  uint64_t drops = 0;
  double aggregate_rps = 0.0;
  // Total simulator callbacks executed (wall-clock perf accounting).
  uint64_t sim_events = 0;
};
MultiTenantResult RunMultiTenant(const CostModel& cost, const MultiTenantOptions& options);

// ---------------------------------------------------------------------------
// Online Boutique end-to-end (Fig. 16, Table 2)
// ---------------------------------------------------------------------------

// SystemUnderTest and its data-plane/gateway mapping live in scenario.h.
struct BoutiqueOptions {
  SystemUnderTest system = SystemUnderTest::kNadinoDne;
  ChainId chain = kHomeQueryChain;
  int clients = 20;
  SimDuration duration = 2 * kSecond;
  SimDuration warmup = 300 * kMillisecond;
  uint64_t seed = kDefaultSeed;
};
struct BoutiqueResult : RunMetrics {
  double rps = 0.0;
  double mean_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  // Worker-side data-plane CPU (engines, pollers, portals, scheduler cores),
  // in cores; function cores are excluded since the app is identical across
  // systems. DPU cores are the DNE's two wimpy cores.
  double dataplane_cpu_cores = 0.0;
  double dpu_cores = 0.0;
  uint64_t errors = 0;
};
BoutiqueResult RunBoutique(const CostModel& cost, const BoutiqueOptions& options);

// ---------------------------------------------------------------------------
// N-node scaling (DESIGN.md §3e)
// ---------------------------------------------------------------------------

// Per-tenant pipeline chains over an N-worker cluster: stages placed by
// ChainPlacer (locality-aware), each stage registered on `replicas` nodes,
// requests rotated over the replicas by the cluster's routing table.
// bench/node_scale.cc sweeps `nodes` in {2, 8, 16, 64}.
struct NodeScaleOptions {
  int nodes = 8;
  int replicas = 2;       // Placements per stage (1 = no spreading possible).
  int tenants = 2;        // One pipeline chain per tenant.
  int stages = 3;         // Functions per pipeline, entry included.
  int requests_per_tenant = 400;
  SimDuration spacing = 200 * kMicrosecond;  // Open-loop inter-request gap.
  uint32_t payload = 512;
  SimDuration duration = 2 * kSecond;  // Total run (sends + drain).
  uint64_t seed = kDefaultSeed;
};
struct NodeScaleResult : RunMetrics {
  double rps = 0.0;
  double mean_latency_us = 0.0;
  double p99_latency_us = 0.0;
  uint64_t completed = 0;
  uint64_t errors = 0;
  // Sum of ChainPlacer crossing scores across tenants (2 per cross-node
  // call edge; the locality objective the placer minimizes).
  int chain_crossing_score = 0;
  // Committing resolutions of each tenant's entry function, per node —
  // direct evidence of replica spreading.
  std::map<NodeId, uint64_t> entry_resolved;
  // Worst max/min resolved ratio across multi-replica functions that saw
  // at least 100 picks (1.0 = perfectly even; tests assert <= 1.5).
  double replica_skew = 0.0;
};
NodeScaleResult RunNodeScale(const CostModel& cost, const NodeScaleOptions& options);

// ---------------------------------------------------------------------------
// Tenant churn: the elastic control plane under arrival/departure (DESIGN.md
// §3f). Tenants arrive by a seeded Poisson process on a two-worker cluster,
// echo for an exponential lifetime, then idle out: the cold-start sweeper
// retires the server instance and the retirement hook tears the tenant's QPs
// down (ConnectionService::DestroyTenant). Compares setup policies: eager
// per-tenant prewarm vs. lazy on-demand vs. lazy + tenant-shared QPs.
// ---------------------------------------------------------------------------

struct TenantChurnOptions {
  ConnectPolicy policy = ConnectPolicy::kEager;
  int tenants = 200;
  SimDuration mean_interarrival = 10 * kMillisecond;  // Poisson arrivals.
  SimDuration mean_lifetime = 120 * kMillisecond;     // Exponential, >= 5 ms.
  SimDuration duration = 5 * kSecond;
  uint32_t payload = 256;
  int window = 2;
  int establish_batch = 1;
  int prewarm_connections = 2;  // Eager policy only.
  // Instance lifetime: a server instance idle this long is retired by the
  // sweeper, which triggers the tenant's control-plane reclaim.
  SimDuration keep_warm_timeout = 60 * kMillisecond;
  SimDuration sweep_period = 20 * kMillisecond;
  uint64_t seed = kDefaultSeed;
};
struct TenantChurnResult : RunMetrics {
  uint64_t tenants_arrived = 0;
  uint64_t tenants_departed = 0;    // Retired and reclaimed.
  uint64_t tenants_first_byte = 0;  // Completed at least one echo.
  uint64_t completed = 0;           // Echo invocations across all tenants.
  // Time from tenant arrival to its first completed echo — what a cold
  // tenant actually waits on the control plane for.
  double ttfb_mean_ms = 0.0;
  double ttfb_p99_ms = 0.0;
  // Control-plane verb accounting, summed over both node services.
  uint64_t setup_verbs = 0;    // create + modify.
  uint64_t destroy_verbs = 0;
  uint64_t connects = 0;
  uint64_t establishes = 0;    // On-demand setups (lazy policies).
  uint64_t destroys = 0;       // QPs reclaimed on departure.
  // Amplification: (setup + destroy verbs) per completed invocation.
  double verbs_per_invocation = 0.0;
  uint64_t sim_events = 0;
};
TenantChurnResult RunTenantChurn(const CostModel& cost, const TenantChurnOptions& options);

// ---------------------------------------------------------------------------
// Open-loop scale (DESIGN.md §3g): simulated users aggregated into per-tenant
// Poisson arrival processes (diurnal curve + optional flash crowd) driving
// DNE echo pairs across an N-worker cluster. Arrivals are batch-admitted onto
// per-node event-queue shards; load that outruns capacity is shed, not
// queued, so memory stays O(tenants + in-flight) while offered load scales
// from 10k to 1M users. bench/openloop_scale.cc sweeps `users` and, in
// --perf-compare mode, races sharded admission against the single heap.
// ---------------------------------------------------------------------------

struct OpenLoopScaleOptions : FaultOptions {
  int nodes = 4;
  int tenants = 8;     // One echo pair per tenant, round-robin across nodes.
  uint64_t users = 10000;
  double rps_per_user = 1.0;  // users x rps_per_user = aggregate offered rate.
  uint32_t event_shards = 0;  // 0 = one shard per worker node; 1 = single heap.
  uint32_t payload = 256;
  SimDuration tick = 10 * kMillisecond;  // Admission quantum.
  SimTime horizon = 1 * kSecond;         // Generation window.
  SimDuration drain = 200 * kMillisecond;
  uint64_t max_in_flight_per_tenant = 1024;  // Open-loop shed threshold.
  // Rate shaping: one compressed diurnal cycle over the horizon, plus a
  // flash crowd adding this fraction of the base rate for horizon/10 at
  // mid-run (0 disables the burst).
  bool diurnal = true;
  double flash_crowd_fraction = 0.0;
  SimDuration sample_period = 250 * kMillisecond;
  SimDuration extra_engine_cost = 1200;  // Same DNE throttle as Fig. 15.
  uint64_t seed = kDefaultSeed;
};
struct OpenLoopScaleResult : RunMetrics {
  uint64_t offered = 0;
  uint64_t dispatched = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t in_flight_peak = 0;
  double offered_rps = 0.0;
  double goodput_rps = 0.0;
  double mean_latency_us = 0.0;
  double p99_latency_us = 0.0;
  // Responses that matched no pending request (fault-free runs: 0).
  uint64_t unmatched_responses = 0;
  // Requests still pending after the drain (lost in flight under faults).
  uint64_t pending_at_end = 0;
  // Simulator slab slots ever allocated: the flat-per-user-memory evidence
  // (stays bounded by in-flight + ticks, not by users).
  uint64_t slab_slots = 0;
  uint64_t sim_events = 0;
};
OpenLoopScaleResult RunOpenLoopScale(const CostModel& cost, const OpenLoopScaleOptions& options);

// ---------------------------------------------------------------------------
// Parallel shard drain (DESIGN.md §3h)
// ---------------------------------------------------------------------------

// The shard-confined open-loop workload that exercises the simulator's
// multi-worker drain: one tenant per node, the tenant's client state pinned
// to its node's event-queue shard, its server engine pinned to the opposite
// shard, every cross-shard transition a fabric hop >= the installed
// lookahead (OpenLoopShardEchoDriver::HopFloor). Aggregates are
// worker-count independent; the parallel drain tests assert exact equality
// across event_workers in {1, 2, 4, 8} and bench/openloop_scale gates
// multi-worker wall-clock beating the serial drain at the 1M-user point.
struct ParallelDrainOptions {
  int nodes = 16;  // == tenants == event shards: one echo lane per node.
  uint64_t users = 100000;
  double rps_per_user = 1.0;
  uint32_t event_workers = 1;  // Simulator drain threads (1 = serial).
  // StageWork rounds per service: real ALU work the parallel drain spreads
  // across cores, and ~payload/4 ns of modeled service time.
  uint32_t payload = 256;
  SimDuration tick = 10 * kMillisecond;
  SimTime horizon = 250 * kMillisecond;
  SimDuration drain = 100 * kMillisecond;
  // Effectively uncapped by default: a binding cap makes the shed decision
  // depend on the order of same-nanosecond cross-shard ties, which the
  // strided parallel seqs order differently from the serial run (DESIGN.md
  // §3h, determinism contract). Lower it only in fixed-worker-count runs.
  uint64_t max_in_flight_per_tenant = 1ull << 30;
  // Per-shard server buffer pool; sized generously for the same reason —
  // exhaustion decisions must not ride on tie order.
  uint64_t buffers_per_shard = 8192;
  SimDuration slo_target = 1 * kMillisecond;
  bool diurnal = false;
  double flash_crowd_fraction = 0.0;
  uint64_t seed = kDefaultSeed;
};
struct ParallelDrainResult {
  // Source-side accounting (offered == dispatched + shed).
  uint64_t offered = 0;
  uint64_t dispatched = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t dropped = 0;
  // Server-side accounting.
  uint64_t served = 0;
  uint64_t server_drops = 0;
  uint64_t slo_violations = 0;
  // XOR digest over shard engines: certifies identical request service
  // timings across worker counts, not merely identical counts.
  uint64_t digest = 0;
  uint64_t buffers_leaked = 0;  // 0 after a clean drain.
  double goodput_rps = 0.0;
  double mean_latency_us = 0.0;
  double p99_latency_us = 0.0;
  // Per-tenant lanes (index == tenant index).
  std::vector<uint64_t> tenant_completed;
  std::vector<uint64_t> tenant_served;
  std::vector<uint64_t> tenant_shed;
  std::vector<uint64_t> tenant_dropped;
  std::vector<uint64_t> tenant_slo_violations;
  // Engine-side evidence.
  uint64_t sim_events = 0;
  uint64_t slab_slots = 0;
  uint64_t heap_spills = 0;        // EventCallback heap spills (hot paths: 0).
  uint64_t windows = 0;            // Conservative windows executed (0 serial).
  uint64_t mail_delivered = 0;     // Cross-shard events via mailboxes.
  uint64_t horizon_clamps = 0;     // Windows clamped by the run deadline.
  // The per-worker CounterLanes demo: dispatched requests counted on each
  // worker's lane and folded at every window barrier; equals `dispatched`.
  uint64_t lane_dispatched = 0;
};
ParallelDrainResult RunParallelDrain(const CostModel& cost, const ParallelDrainOptions& options);

// ---------------------------------------------------------------------------
// NIC-offloaded chain dispatch (DESIGN.md §3i)
// ---------------------------------------------------------------------------

// Linear per-tenant pipeline chains striped across the cluster (stage i of
// tenant t on node (t + i) % nodes, so every hop crosses the wire; the client
// is colocated with its entry). With `offload` set the chains are compiled
// into WR programs (ChainExecutor::OffloadChain) and every hop executes on
// the RNIC — no DPU/host core occupancy per hop; otherwise the identical
// workload runs through the software executor. bench/chain_offload.cc
// compares both against the Comch-E/Comch-P software variants. Faults at
// wrprog_trigger / wrprog_cond exercise the offload's software fallback.
struct ChainOffloadOptions : FaultOptions {
  int nodes = 3;
  int stages = 3;  // Functions per pipeline, entry included.
  int tenants = 2;
  int requests_per_tenant = 300;
  uint32_t payload = 256;
  SimDuration spacing = 150 * kMicrosecond;  // Open-loop inter-request gap.
  ComchVariant comch_variant = ComchVariant::kEvent;
  bool offload = true;
  SimDuration duration = 2 * kSecond;  // Total run (sends + drain).
  uint64_t seed = kDefaultSeed;
};
struct ChainOffloadResult : RunMetrics {
  uint64_t completed = 0;  // Responses observed by the clients.
  uint64_t errors = 0;
  // Per-tenant completions — what the offload/software equivalence property
  // test compares under equal seeds.
  std::map<TenantId, uint64_t> tenant_completed;
  uint64_t hops_installed = 0;      // WR programs installed at setup.
  uint64_t offloaded_hops = 0;      // Hops executed on-NIC.
  uint64_t offloaded_responses = 0; // Final-hop responses issued on-NIC.
  uint64_t fallbacks = 0;           // Runtime declines to the software path.
  uint64_t wrprog_send_errors = 0;
  uint64_t software_requests = 0;   // Hops handled by the software executor.
  double rps = 0.0;
  double mean_latency_us = 0.0;
  double p99_latency_us = 0.0;
  // mean / (stages + 1): the chain traverses stages+1 wire legs per request
  // (client->entry, the stages-1 interior forwards, final->client).
  double per_hop_latency_us = 0.0;
  // Tenant-pool buffers still out after the drain, NET of the engines'
  // standing posted-RECV credits (RNIC-owned at quiesce by design): 0 when
  // nothing leaked, in software and offloaded runs alike.
  uint64_t buffers_in_use_at_end = 0;
};
ChainOffloadResult RunChainOffload(const CostModel& cost, const ChainOffloadOptions& options);

}  // namespace nadino

#endif  // SRC_CORE_EXPERIMENTS_H_
