// Open-loop load generation (DESIGN.md §3g): aggregated arrival processes
// that offer load at a scheduled rate regardless of how fast the system
// drains it — the production-facing complement to the closed-loop fleet in
// src/runtime/workload.h.
//
// The scaling trick is aggregation. A million simulated users are not a
// million client objects: each tenant carries one ArrivalSchedule (its users'
// summed rate curve) and one O(1) accounting record, and a per-tenant tick
// loop draws the number of arrivals in the next quantum from a Poisson
// distribution, then bulk-admits them into the tenant's event-queue shard
// with Simulator::ScheduleBatch. Memory is O(tenants + in-flight), never
// O(users); the 1M-user sweep in bench/openloop_scale holds the in-flight cap
// fixed while the offered rate scales 100x.
//
// Open-loop semantics: an arrival that cannot be issued (in-flight cap hit,
// buffer-pool backpressure, a refused send) is SHED and counted —
// it does not queue, and it does not slow subsequent arrivals. Goodput vs
// offered load is the measurement, exactly the quantity a closed loop hides.

#ifndef SRC_RUNTIME_OPENLOOP_H_
#define SRC_RUNTIME_OPENLOOP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/calibration.h"
#include "src/core/env.h"
#include "src/runtime/dataplane.h"
#include "src/runtime/function.h"
#include "src/runtime/message_header.h"
#include "src/sim/random.h"
#include "src/sim/stats.h"

namespace nadino {

// One step of a piecewise-constant diurnal modulation: from `start` (phase
// within the schedule period, or absolute time when period == 0) the base
// rate is multiplied by `multiplier` until the next segment begins.
struct RateSegment {
  SimTime start = 0;
  double multiplier = 1.0;
};

// A flash crowd: `add_rps` extra arrivals per second layered on top of the
// scheduled rate for [start, start + duration). Always absolute-time.
struct FlashBurst {
  SimTime start = 0;
  SimDuration duration = 0;
  double add_rps = 0.0;
};

// Per-tenant offered-rate curve: base rate x diurnal segments + bursts.
// Evaluation keeps amortized-O(1) cursors, relying on the tick loop
// evaluating time monotonically; cursors reset when the diurnal phase wraps.
class ArrivalSchedule {
 public:
  double base_rps = 0.0;
  // When > 0, segment starts are phases within this period (e.g. a 24 h
  // diurnal cycle evaluated at now % period). Bursts stay absolute.
  SimDuration period = 0;
  std::vector<RateSegment> segments;  // Sorted by start.
  std::vector<FlashBurst> bursts;     // Sorted by start.

  // Offered rate (arrivals/sec) at `now`. Amortized O(1) for monotonically
  // nondecreasing `now`; an arbitrary rewind just resets the cursors.
  double RateAt(SimTime now) const;

 private:
  mutable size_t seg_cursor_ = 0;
  mutable size_t burst_cursor_ = 0;
  mutable SimTime last_phase_ = 0;
};

// A smooth day/night curve: `steps` piecewise-constant segments over `period`
// following a raised cosine between trough_multiplier (at phase 0) and
// peak_multiplier (at phase period/2).
ArrivalSchedule MakeDiurnalSchedule(double base_rps, SimDuration period, int steps,
                                    double trough_multiplier, double peak_multiplier);

// The arrival engine. Each tenant ticks once per admission quantum: draw
// n ~ Poisson(rate x quantum), scatter n arrival instants uniformly across
// the quantum, and ScheduleBatch them onto the tenant's event-queue shard.
// Arrivals call the installed DispatchFn; the sink reports completions back
// through OnComplete so goodput/latency are measured end to end.
class OpenLoopSource {
 public:
  struct Options {
    // Admission quantum: one Poisson draw + one batch per tenant per tick.
    // Smaller quanta track rate curves more faithfully; larger quanta
    // amortize better. 10 ms resolves everything the benches sweep.
    SimDuration tick = 10 * kMillisecond;
    // Stop generating at this virtual time (0 = until Stop()). In-flight
    // requests still complete, so RunUntil(horizon + drain) settles cleanly.
    SimTime horizon = 0;
    // Shard-confined mode for the parallel drain (DESIGN.md §3h): every
    // tenant draws from a private PRNG (seeded env.seed() ^ mix(tenant)),
    // scatters into a private scratch buffer, and records into a private
    // latency histogram, so tenants pinned to different shards never touch
    // shared source state. All accounting is per tenant; the aggregate
    // accessors fold. The RNG stream differs from the legacy shared stream,
    // so results are NOT comparable across the two modes — but within this
    // mode they are identical for every worker count, which is the
    // equivalence the parallel drain tests assert. Tenants and their
    // completions must stay on their configured shard.
    bool parallel = false;
  };

  struct TenantOptions {
    ArrivalSchedule schedule;
    // Event-queue shard (the tenant's node) for batch admission; taken modulo
    // the simulator's shard count.
    uint32_t shard = 0;
    // Open-loop discipline: arrivals beyond this many unanswered requests are
    // shed, bounding memory no matter how far offered load exceeds capacity.
    uint64_t max_in_flight = 4096;
  };

  // Issues one request for `tenant` arriving now. Returns false to shed (the
  // source counts it; the sink does nothing further). On success the sink
  // must eventually call OnComplete(tenant, issued_at) exactly once.
  using DispatchFn = std::function<bool(uint32_t tenant, SimTime issued_at)>;

  OpenLoopSource(Env& env, const Options& options) : env_(&env), options_(options) {}

  // Returns the tenant index used in DispatchFn/OnComplete.
  uint32_t AddTenant(const TenantOptions& tenant);

  void SetDispatch(DispatchFn fn) { dispatch_ = std::move(fn); }

  void Start();
  void Stop() { running_ = false; }

  // Sink-side completion: closes the latency sample opened at `issued_at`.
  void OnComplete(uint32_t tenant, SimTime issued_at);

  // Sink-side post-dispatch failure (e.g. the server shed the request after
  // admission): releases the in-flight slot without recording a latency.
  void OnDropped(uint32_t tenant);

  // Aggregate accounting. offered == dispatched + shed, always. In parallel
  // mode these fold the per-tenant records.
  uint64_t offered() const { return Folded(offered_, &TenantState::offered); }
  uint64_t dispatched() const { return Folded(dispatched_, &TenantState::dispatched); }
  uint64_t completed() const { return Folded(completed_, &TenantState::completed); }
  uint64_t shed() const { return Folded(shed_, &TenantState::shed); }
  uint64_t dropped() const { return Folded(dropped_, &TenantState::dropped); }
  uint64_t in_flight() const { return Folded(in_flight_, &TenantState::in_flight); }
  // In parallel mode: the sum of per-tenant peaks (an upper bound on the
  // instantaneous global peak, which no single thread observes).
  uint64_t in_flight_peak() const { return Folded(in_flight_peak_, &TenantState::in_flight_peak); }
  size_t num_tenants() const { return tenants_.size(); }

  uint64_t tenant_offered(uint32_t tenant) const { return tenants_[tenant].offered; }
  uint64_t tenant_shed(uint32_t tenant) const { return tenants_[tenant].shed; }
  uint64_t tenant_completed(uint32_t tenant) const { return tenants_[tenant].completed; }
  uint64_t tenant_dispatched(uint32_t tenant) const { return tenants_[tenant].dispatched; }
  uint64_t tenant_dropped(uint32_t tenant) const { return tenants_[tenant].dropped; }

  RateMeter& rate() { return rate_; }
  const LatencyHistogram& latencies() const { return latencies_; }
  LatencyHistogram& mutable_latencies() { return latencies_; }

  // Latency distribution across every tenant: the per-tenant histograms
  // merged in tenant order (parallel mode), or a copy of the shared
  // histogram (legacy mode).
  LatencyHistogram MergedLatencies() const;

 private:
  struct TenantState {
    TenantOptions opts;
    uint64_t offered = 0;
    uint64_t dispatched = 0;
    uint64_t completed = 0;
    uint64_t shed = 0;
    uint64_t dropped = 0;
    uint64_t in_flight = 0;
    uint64_t in_flight_peak = 0;
    // Parallel-mode private state (null/empty in legacy mode).
    std::unique_ptr<Rng> rng;
    std::unique_ptr<LatencyHistogram> latencies;
    std::vector<SimTime> scratch;
  };

  uint64_t Folded(uint64_t legacy, uint64_t TenantState::* field) const {
    if (!options_.parallel) {
      return legacy;
    }
    uint64_t total = 0;
    for (const TenantState& state : tenants_) {
      total += state.*field;
    }
    return total;
  }

  void TenantTick(uint32_t tenant);
  void Admit(uint32_t tenant);

  Simulator& sim() const { return env_->sim(); }

  Env* env_;
  Options options_;
  bool running_ = false;
  uint64_t offered_ = 0;
  uint64_t dispatched_ = 0;
  uint64_t completed_ = 0;
  uint64_t shed_ = 0;
  uint64_t dropped_ = 0;
  uint64_t in_flight_ = 0;
  uint64_t in_flight_peak_ = 0;
  std::vector<TenantState> tenants_;
  std::vector<SimTime> batch_scratch_;  // Reused per tick; no per-tick allocs.
  DispatchFn dispatch_;
  RateMeter rate_;
  LatencyHistogram latencies_;
};

// Binds one OpenLoopSource tenant to a DNE echo pair: each arrival sends one
// echo message client -> server -> client through the dataplane, matched on
// request id (same accounting contract as TenantEchoLoad: unmatched or
// unparseable responses recycle the buffer without closing anything).
class OpenLoopEchoDriver {
 public:
  OpenLoopEchoDriver(Env& env, OpenLoopSource* source, DataPlane* dataplane,
                     FunctionRuntime* client, FunctionRuntime* server, uint32_t tenant,
                     uint32_t payload_bytes);

  // Dispatch hook: sends one echo request. False (= shed) when the buffer
  // pool backpressures or the send fails.
  bool Issue(SimTime issued_at);

  size_t pending_requests() const { return issue_times_.size(); }
  uint64_t unmatched_responses() const { return unmatched_responses_; }

 private:
  void OnClientMessage(Buffer* buffer);
  void OnServerMessage(FunctionRuntime& server, Buffer* buffer);

  Simulator& sim() const { return env_->sim(); }

  Env* env_;
  OpenLoopSource* source_;
  DataPlane* dataplane_;
  FunctionRuntime* client_;
  FunctionRuntime* server_;
  uint32_t tenant_;
  uint32_t payload_bytes_;
  uint64_t next_request_ = 1;
  uint64_t unmatched_responses_ = 0;
  std::map<uint64_t, SimTime> issue_times_;
};

// Shard-confined synthetic echo sink for the parallel drain (DESIGN.md
// §3h): the cost-model-faithful request flow — client node -> fabric hop ->
// server engine queueing -> fabric hop -> client — re-expressed so that
// every piece of mutable state belongs to exactly one event-queue shard:
//
//   - per-shard ShardEngine (server busy_until run-to-completion queue,
//     bounded buffer pool, served/drop accounting, an order-independent XOR
//     digest) touched only by events on that shard;
//   - per-tenant client lanes (issued/completed/SLO accounting) touched only
//     on the tenant's client shard, and per-tenant server lanes touched only
//     on its server shard;
//   - every cross-shard transition is a ScheduleAtOn with delay >= HopFloor()
//     (RNIC TX + wire + RNIC RX + the DPU-scaled DNE stages), which is
//     exactly the lookahead the harness installs.
//
// Each service burns real CPU (StageWork: an FNV-style ALU loop over
// `payload` rounds) so a parallel drain has genuine work to spread across
// cores, and folds the hash into the shard digest — equal digests across
// worker counts certify that the same requests were served with the same
// timings, not merely the same number of them.
class OpenLoopShardEchoDriver {
 public:
  struct TenantBinding {
    uint32_t client_shard = 0;
    uint32_t server_shard = 0;
    uint32_t payload = 256;          // StageWork rounds per service.
    SimDuration slo_target = 0;      // 0 = no SLO accounting.
  };

  OpenLoopShardEchoDriver(Env& env, OpenLoopSource* source, const CostModel& cost,
                          uint32_t shard_count, uint64_t buffers_per_shard);

  // One tenant; index must match the OpenLoopSource tenant index.
  void AddTenant(const TenantBinding& binding);

  // Dispatch hook for OpenLoopSource::SetDispatch. Runs on the tenant's
  // client shard.
  bool Issue(uint32_t tenant, SimTime issued_at);

  // The minimum cross-shard delivery latency this driver ever uses — the
  // correct Simulator::SetLookahead for it.
  static SimDuration HopFloor(const CostModel& cost);

  // Aggregates (fold per-shard / per-tenant records; call after the run).
  uint64_t served() const;
  uint64_t server_drops() const;
  uint64_t slo_violations() const;
  uint64_t digest() const;  // XOR over shards: worker-count independent.
  // Buffers not back in their pools; 0 after a clean drain.
  uint64_t buffers_leaked() const;
  uint64_t min_buffers_free(uint32_t shard) const { return engines_[shard].buffers_min; }

  uint64_t tenant_issued(uint32_t tenant) const { return client_lanes_[tenant].issued; }
  uint64_t tenant_completed(uint32_t tenant) const { return client_lanes_[tenant].completed; }
  uint64_t tenant_slo_violations(uint32_t tenant) const {
    return client_lanes_[tenant].slo_violations;
  }
  uint64_t tenant_served(uint32_t tenant) const { return server_lanes_[tenant].served; }
  uint64_t tenant_dropped(uint32_t tenant) const { return server_lanes_[tenant].dropped; }

  // Per-service CPU cost model shared with the bench: `rounds` FNV-style
  // mixing steps seeded by (tenant, at). Returns the running hash.
  static uint64_t StageWork(uint64_t tenant, SimTime at, uint32_t rounds);

 private:
  // All state one server shard touches, padded so two workers draining
  // neighbouring shards never share a line.
  struct alignas(64) ShardEngine {
    SimTime busy_until = 0;
    uint64_t served = 0;
    uint64_t hops_in = 0;
    uint64_t buffers_free = 0;
    uint64_t buffers_min = 0;
    uint64_t buffers_capacity = 0;
    uint64_t digest = 0;
  };
  struct alignas(64) ClientLane {
    uint64_t issued = 0;
    uint64_t completed = 0;
    uint64_t slo_violations = 0;
  };
  struct alignas(64) ServerLane {
    uint64_t served = 0;
    uint64_t dropped = 0;
  };

  void OnServer(uint32_t tenant, SimTime issued_at);
  void OnReply(uint32_t tenant, SimTime issued_at);
  void OnDrop(uint32_t tenant);

  Simulator& sim() const { return env_->sim(); }

  Env* env_;
  OpenLoopSource* source_;
  SimDuration hop_;
  SimDuration service_base_;
  std::vector<TenantBinding> bindings_;
  std::vector<ShardEngine> engines_;
  std::vector<ClientLane> client_lanes_;
  std::vector<ServerLane> server_lanes_;
};

}  // namespace nadino

#endif  // SRC_RUNTIME_OPENLOOP_H_
