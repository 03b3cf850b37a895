#include "src/runtime/openloop.h"

#include <algorithm>
#include <cmath>

namespace nadino {

double ArrivalSchedule::RateAt(SimTime now) const {
  double rate = base_rps;
  if (!segments.empty()) {
    const SimTime phase = period > 0 ? now % period : now;
    if (phase < last_phase_) {
      seg_cursor_ = 0;  // Diurnal wrap: the cycle restarted.
    }
    last_phase_ = phase;
    while (seg_cursor_ + 1 < segments.size() && segments[seg_cursor_ + 1].start <= phase) {
      ++seg_cursor_;
    }
    if (phase >= segments[seg_cursor_].start) {
      rate *= segments[seg_cursor_].multiplier;
    }
  }
  if (!bursts.empty()) {
    if (burst_cursor_ < bursts.size() && bursts[burst_cursor_].start > now &&
        burst_cursor_ > 0) {
      burst_cursor_ = 0;
    }
    while (burst_cursor_ < bursts.size() &&
           bursts[burst_cursor_].start + bursts[burst_cursor_].duration <= now) {
      ++burst_cursor_;
    }
    for (size_t i = burst_cursor_; i < bursts.size() && bursts[i].start <= now; ++i) {
      if (now < bursts[i].start + bursts[i].duration) {
        rate += bursts[i].add_rps;
      }
    }
  }
  return rate > 0.0 ? rate : 0.0;
}

ArrivalSchedule MakeDiurnalSchedule(double base_rps, SimDuration period, int steps,
                                    double trough_multiplier, double peak_multiplier) {
  constexpr double kPi = 3.14159265358979323846;
  ArrivalSchedule schedule;
  schedule.base_rps = base_rps;
  schedule.period = period;
  schedule.segments.reserve(static_cast<size_t>(steps));
  for (int i = 0; i < steps; ++i) {
    const double phase = static_cast<double>(i) / static_cast<double>(steps);
    // Raised cosine: trough at phase 0, peak at phase 0.5, back to trough.
    const double multiplier =
        trough_multiplier +
        (peak_multiplier - trough_multiplier) * 0.5 * (1.0 - std::cos(2.0 * kPi * phase));
    const SimTime start = static_cast<SimTime>(
        (static_cast<double>(period) * static_cast<double>(i)) / static_cast<double>(steps));
    schedule.segments.push_back({start, multiplier});
  }
  return schedule;
}

namespace {
// SplitMix64 finalizer: decorrelates per-tenant RNG streams from the env
// seed and from each other.
uint64_t MixSeed(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace

uint32_t OpenLoopSource::AddTenant(const TenantOptions& tenant) {
  const uint32_t index = static_cast<uint32_t>(tenants_.size());
  TenantState state;
  state.opts = tenant;
  if (options_.parallel) {
    state.rng = std::make_unique<Rng>(env_->seed() ^ MixSeed(index + 1));
    state.latencies = std::make_unique<LatencyHistogram>();
  }
  tenants_.push_back(std::move(state));
  return index;
}

void OpenLoopSource::Start() {
  running_ = true;
  // First quantum is generated inline (tenants draw in index order, keeping
  // the RNG stream deterministic), then each tenant re-arms itself.
  for (uint32_t t = 0; t < tenants_.size(); ++t) {
    TenantTick(t);
  }
}

void OpenLoopSource::TenantTick(uint32_t tenant) {
  if (!running_) {
    return;
  }
  const SimTime now = sim().now();
  if (options_.horizon > 0 && now >= options_.horizon) {
    return;  // Generation window over; in-flight work drains on its own.
  }
  TenantState& state = tenants_[tenant];
  const double rate = state.opts.schedule.RateAt(now);
  const double mean =
      rate * (static_cast<double>(options_.tick) / static_cast<double>(kSecond));
  // Parallel mode draws from the tenant's private stream and scatters into
  // its private scratch: ticks for tenants on different shards run
  // concurrently and must not share RNG state (or each other's draws).
  Rng& rng = options_.parallel ? *state.rng : env_->rng();
  std::vector<SimTime>& scratch = options_.parallel ? state.scratch : batch_scratch_;
  const uint64_t n = rng.Poisson(mean);
  if (n > 0) {
    scratch.clear();
    scratch.reserve(n);
    const uint64_t span = static_cast<uint64_t>(options_.tick);
    for (uint64_t i = 0; i < n; ++i) {
      const SimTime at = now + static_cast<SimDuration>(rng.UniformInt(0, span - 1));
      if (options_.horizon > 0 && at >= options_.horizon) {
        continue;
      }
      scratch.push_back(at);
    }
    // Left unsorted: the batch's seqs are contiguous and its same-instant
    // entries are identical Admit(tenant) closures, so draw order executes
    // exactly like time order, and the simulator buckets far arrivals anyway.
    sim().ScheduleBatch(state.opts.shard, scratch,
                        [this, tenant](size_t) { return [this, tenant]() { Admit(tenant); }; });
  }
  sim().ScheduleOn(state.opts.shard, options_.tick, [this, tenant]() { TenantTick(tenant); });
}

void OpenLoopSource::Admit(uint32_t tenant) {
  TenantState& state = tenants_[tenant];
  ++state.offered;
  if (!options_.parallel) {
    ++offered_;
  }
  if (!running_ || dispatch_ == nullptr || state.in_flight >= state.opts.max_in_flight) {
    ++state.shed;
    if (!options_.parallel) {
      ++shed_;
    }
    return;
  }
  const SimTime issued_at = sim().now();
  if (!dispatch_(tenant, issued_at)) {
    ++state.shed;
    if (!options_.parallel) {
      ++shed_;
    }
    return;
  }
  ++state.in_flight;
  ++state.dispatched;
  state.in_flight_peak = std::max(state.in_flight_peak, state.in_flight);
  if (!options_.parallel) {
    ++dispatched_;
    ++in_flight_;
    in_flight_peak_ = std::max(in_flight_peak_, in_flight_);
  }
}

void OpenLoopSource::OnComplete(uint32_t tenant, SimTime issued_at) {
  TenantState& state = tenants_[tenant];
  --state.in_flight;
  ++state.completed;
  if (options_.parallel) {
    // Tenant-confined: the completion runs on the tenant's shard, so only
    // its private histogram is touched (the shared RateMeter stays idle).
    state.latencies->Record(sim().now() - issued_at);
    return;
  }
  --in_flight_;
  ++completed_;
  latencies_.Record(sim().now() - issued_at);
  rate_.RecordCompletion();
}

void OpenLoopSource::OnDropped(uint32_t tenant) {
  TenantState& state = tenants_[tenant];
  --state.in_flight;
  ++state.dropped;
  if (!options_.parallel) {
    --in_flight_;
    ++dropped_;
  }
}

LatencyHistogram OpenLoopSource::MergedLatencies() const {
  if (!options_.parallel) {
    return latencies_;
  }
  LatencyHistogram merged;
  for (const TenantState& state : tenants_) {
    merged.Merge(*state.latencies);
  }
  return merged;
}

OpenLoopEchoDriver::OpenLoopEchoDriver(Env& env, OpenLoopSource* source, DataPlane* dataplane,
                                       FunctionRuntime* client, FunctionRuntime* server,
                                       uint32_t tenant, uint32_t payload_bytes)
    : env_(&env), source_(source), dataplane_(dataplane), client_(client), server_(server),
      tenant_(tenant), payload_bytes_(payload_bytes) {
  client_->SetHandler(
      [this](FunctionRuntime& /*fn*/, Buffer* buffer) { OnClientMessage(buffer); });
  server_->SetHandler(
      [this](FunctionRuntime& fn, Buffer* buffer) { OnServerMessage(fn, buffer); });
}

bool OpenLoopEchoDriver::Issue(SimTime issued_at) {
  Buffer* buffer = client_->pool()->Get(client_->owner_id());
  if (buffer == nullptr) {
    return false;  // Pool backpressure: open loop sheds instead of waiting.
  }
  MessageHeader header;
  header.chain = 0;
  header.src = client_->id();
  header.dst = server_->id();
  header.payload_length = payload_bytes_;
  header.request_id = next_request_++;
  if (!WriteMessage(buffer, header) || !dataplane_->Send(client_, buffer)) {
    client_->pool()->Put(buffer, client_->owner_id());
    return false;
  }
  issue_times_[header.request_id] = issued_at;
  return true;
}

void OpenLoopEchoDriver::OnClientMessage(Buffer* buffer) {
  const std::optional<MessageHeader> header = ReadMessage(*buffer);
  const auto it = header.has_value() ? issue_times_.find(header->request_id)
                                     : issue_times_.end();
  if (it == issue_times_.end()) {
    // Same contract as TenantEchoLoad: duplicates/corruption never close a
    // request they did not open.
    ++unmatched_responses_;
    client_->pool()->Put(buffer, client_->owner_id());
    return;
  }
  const SimTime issued_at = it->second;
  issue_times_.erase(it);
  client_->pool()->Put(buffer, client_->owner_id());
  source_->OnComplete(tenant_, issued_at);
}

// --- OpenLoopShardEchoDriver -------------------------------------------------

SimDuration OpenLoopShardEchoDriver::HopFloor(const CostModel& cost) {
  // One direction of the calibrated DNE echo: TX engine stage (DPU-scaled),
  // RNIC WR processing both ends, and the wire (propagation out + switch +
  // propagation in). Every cross-shard transition in this driver uses
  // exactly this delay, so it is also the drain lookahead.
  return cost.OnDpu(cost.dne_tx_stage) + cost.rnic_wr_tx + 2 * cost.link_propagation +
         cost.switch_latency + cost.rnic_wr_rx + cost.OnDpu(cost.dne_rx_stage);
}

uint64_t OpenLoopShardEchoDriver::StageWork(uint64_t tenant, SimTime at, uint32_t rounds) {
  // FNV-1a-style mixing loop: real ALU work per service (the parallel drain
  // has actual CPU cost to spread across cores), fully determined by
  // (tenant, at, rounds) so every worker count computes the same hash.
  uint64_t h = 1469598103934665603ull ^ (tenant * 0x9e3779b97f4a7c15ull);
  uint64_t x = static_cast<uint64_t>(at) | 1;
  for (uint32_t i = 0; i < rounds; ++i) {
    h = (h ^ x) * 1099511628211ull;
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    h ^= h >> 29;
  }
  return h;
}

OpenLoopShardEchoDriver::OpenLoopShardEchoDriver(Env& env, OpenLoopSource* source,
                                                 const CostModel& cost, uint32_t shard_count,
                                                 uint64_t buffers_per_shard)
    : env_(&env), source_(source), hop_(HopFloor(cost)),
      service_base_(cost.OnDpu(cost.dne_loop_iteration + cost.dne_sched_op)),
      engines_(shard_count) {
  for (ShardEngine& engine : engines_) {
    engine.buffers_free = buffers_per_shard;
    engine.buffers_min = buffers_per_shard;
    engine.buffers_capacity = buffers_per_shard;
  }
}

void OpenLoopShardEchoDriver::AddTenant(const TenantBinding& binding) {
  bindings_.push_back(binding);
  client_lanes_.emplace_back();
  server_lanes_.emplace_back();
}

bool OpenLoopShardEchoDriver::Issue(uint32_t tenant, SimTime issued_at) {
  const TenantBinding& binding = bindings_[tenant];
  ++client_lanes_[tenant].issued;
  sim().ScheduleAtOn(binding.server_shard, sim().now() + hop_,
                     [this, tenant, issued_at] { OnServer(tenant, issued_at); });
  return true;
}

void OpenLoopShardEchoDriver::OnServer(uint32_t tenant, SimTime issued_at) {
  const TenantBinding& binding = bindings_[tenant];
  ShardEngine& engine = engines_[binding.server_shard];
  ++engine.hops_in;
  if (engine.buffers_free == 0) {
    // Server-side shed after dispatch: tell the client lane so the source's
    // in-flight slot is released (on the client shard, one hop later).
    ++server_lanes_[tenant].dropped;
    sim().ScheduleAtOn(binding.client_shard, sim().now() + hop_,
                       [this, tenant] { OnDrop(tenant); });
    return;
  }
  --engine.buffers_free;
  if (engine.buffers_free < engine.buffers_min) {
    engine.buffers_min = engine.buffers_free;
  }
  const uint64_t hash = StageWork(tenant, issued_at, binding.payload);
  // Run-to-completion engine: service starts when the core frees up;
  // per-service time is the calibrated loop+sched base plus hash jitter.
  const SimDuration service = service_base_ + static_cast<SimDuration>(hash & 0x3FF);
  const SimTime now = sim().now();
  const SimTime start = now > engine.busy_until ? now : engine.busy_until;
  const SimTime done = start + service;
  engine.busy_until = done;
  ++engine.served;
  ++server_lanes_[tenant].served;
  engine.digest ^= hash ^ (static_cast<uint64_t>(done) * 0x9e3779b97f4a7c15ull);
  // At `done` the buffer recycles (own shard) and the reply departs (one
  // hop back to the client shard).
  sim().ScheduleAt(done, [this, tenant, issued_at, done] {
    ++engines_[bindings_[tenant].server_shard].buffers_free;
    sim().ScheduleAtOn(bindings_[tenant].client_shard, done + hop_,
                       [this, tenant, issued_at] { OnReply(tenant, issued_at); });
  });
}

void OpenLoopShardEchoDriver::OnReply(uint32_t tenant, SimTime issued_at) {
  ClientLane& lane = client_lanes_[tenant];
  ++lane.completed;
  const TenantBinding& binding = bindings_[tenant];
  if (binding.slo_target > 0 && sim().now() - issued_at > binding.slo_target) {
    ++lane.slo_violations;
  }
  source_->OnComplete(tenant, issued_at);
}

void OpenLoopShardEchoDriver::OnDrop(uint32_t tenant) { source_->OnDropped(tenant); }

uint64_t OpenLoopShardEchoDriver::served() const {
  uint64_t total = 0;
  for (const ShardEngine& engine : engines_) {
    total += engine.served;
  }
  return total;
}

uint64_t OpenLoopShardEchoDriver::server_drops() const {
  uint64_t total = 0;
  for (const ServerLane& lane : server_lanes_) {
    total += lane.dropped;
  }
  return total;
}

uint64_t OpenLoopShardEchoDriver::slo_violations() const {
  uint64_t total = 0;
  for (const ClientLane& lane : client_lanes_) {
    total += lane.slo_violations;
  }
  return total;
}

uint64_t OpenLoopShardEchoDriver::digest() const {
  uint64_t x = 0;
  for (const ShardEngine& engine : engines_) {
    x ^= engine.digest;
  }
  return x;
}

uint64_t OpenLoopShardEchoDriver::buffers_leaked() const {
  uint64_t leaked = 0;
  for (const ShardEngine& engine : engines_) {
    leaked += engine.buffers_capacity - engine.buffers_free;
  }
  return leaked;
}

void OpenLoopEchoDriver::OnServerMessage(FunctionRuntime& server, Buffer* buffer) {
  const std::optional<MessageHeader> header = ReadMessage(*buffer);
  if (!header.has_value()) {
    server.pool()->Put(buffer, server.owner_id());
    return;
  }
  MessageHeader reply;
  reply.chain = header->chain;
  reply.src = server.id();
  reply.dst = header->src;
  reply.payload_length = header->payload_length;
  reply.request_id = header->request_id;
  reply.flags = MessageHeader::kFlagResponse;
  if (!RewriteHeader(buffer, reply) || !dataplane_->Send(&server, buffer)) {
    server.pool()->Put(buffer, server.owner_id());
  }
}

}  // namespace nadino
