// The four benchmark workloads, each one call of a public Run* entry point
// (src/core/experiments.h), reduced to the benchmark's metrics and checked.
//
// Seeds: RunOpenLoopScale draws its arrivals from the seed. The closed-loop
// models draw no randomness, so for them the seed picks the inputs the
// benchmark controls: the measurement window's phase (a sub-millisecond
// warm-up offset) and, for tenants_dwrr, each tenant's start time. Equal
// seeds give identical inputs and therefore identical simulated outputs.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "bench.h"
#include "src/core/experiments.h"
#include "src/sim/random.h"

namespace {

// Simulator callbacks and slab slots of every simulator destroyed since the
// last reset: the benchmark's own event counter, filled by the link-time
// wrapper below around Simulator::~Simulator (see CMakeLists.txt).
uint64_t g_destroyed_events = 0;
uint64_t g_destroyed_slab_slots = 0;

}  // namespace

extern "C" void __real__ZN6nadino9SimulatorD1Ev(nadino::Simulator* sim);
extern "C" void __wrap__ZN6nadino9SimulatorD1Ev(nadino::Simulator* sim) {
  g_destroyed_events += sim->events_processed();
  g_destroyed_slab_slots += sim->slab_slots();
  __real__ZN6nadino9SimulatorD1Ev(sim);
}

namespace perfbench {
namespace {

using namespace nadino;

constexpr SimDuration kPhaseSpan = 1 * kMillisecond;

// Seed-derived offset in [0, span): the closed-loop workloads' only input
// that the seed varies.
SimDuration SeedOffset(uint64_t seed, uint64_t salt, SimDuration span) {
  Rng rng(seed ^ (salt * 0x9E3779B97F4A7C15ull));
  return static_cast<SimDuration>(rng.UniformInt(0, static_cast<uint64_t>(span) - 1));
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// One histogram line of MetricsRegistry::SnapshotText.
struct Histogram {
  uint64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;
  std::vector<uint64_t> buckets;
};

// The registry snapshot reduced to per-name totals over all label sets.
struct Snapshot {
  std::map<std::string, double> totals;
  std::map<std::string, std::vector<Histogram>> histograms;
  uint64_t entries = 0;

  double Get(const std::string& name) const {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second;
  }
  uint64_t Count(const std::string& name) const { return static_cast<uint64_t>(Get(name)); }
};

Snapshot ParseSnapshot(const std::string& text) {
  Snapshot snapshot;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t space = line.find(' ');
    if (space == std::string::npos) {
      continue;
    }
    ++snapshot.entries;
    const std::string key = line.substr(0, space);
    const std::string name = key.substr(0, key.find('{'));
    const std::string rest = line.substr(space + 1);
    if (rest.rfind("count=", 0) != 0) {
      snapshot.totals[name] += std::strtod(rest.c_str(), nullptr);
      continue;
    }
    Histogram h;
    long long sum = 0;
    long long min = 0;
    long long max = 0;
    unsigned long long count = 0;
    if (std::sscanf(rest.c_str(), "count=%llu sum=%lld min=%lld max=%lld", &count, &sum, &min,
                    &max) != 4) {
      continue;
    }
    h.count = count;
    h.sum = sum;
    h.min = min;
    h.max = max;
    const size_t at = rest.find("buckets=");
    if (at != std::string::npos) {
      std::istringstream cells(rest.substr(at + 8));
      std::string cell;
      while (std::getline(cells, cell, ',')) {
        h.buckets.push_back(std::strtoull(cell.c_str(), nullptr, 10));
      }
    }
    snapshot.histograms[name].push_back(std::move(h));
  }
  return snapshot;
}

// Mean and p99 (microseconds) of all label sets of one registry histogram
// merged, with HistogramMetric::Percentile's bucket-midpoint rule.
void MergedLatency(const std::vector<Histogram>& parts, double* mean_us, double* p99_us,
                   uint64_t* samples) {
  const std::vector<int64_t>& bounds = DefaultDurationBoundsNs();
  std::vector<uint64_t> buckets(bounds.size() + 1, 0);
  uint64_t count = 0;
  double sum = 0.0;
  int64_t min = 0;
  int64_t max = 0;
  for (const Histogram& h : parts) {
    if (h.count == 0 || h.buckets.size() != buckets.size()) {
      continue;
    }
    min = count == 0 ? h.min : std::min(min, h.min);
    max = count == 0 ? h.max : std::max(max, h.max);
    count += h.count;
    sum += static_cast<double>(h.sum);
    for (size_t i = 0; i < buckets.size(); ++i) {
      buckets[i] += h.buckets[i];
    }
  }
  *samples = count;
  *mean_us = count == 0 ? 0.0 : sum / static_cast<double>(count) / kMicrosecond;
  *p99_us = 0.0;
  if (count == 0) {
    return;
  }
  const uint64_t rank = static_cast<uint64_t>(0.99 * static_cast<double>(count - 1)) + 1;
  uint64_t seen = 0;
  int64_t p99 = max;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      if (i < bounds.size()) {
        const int64_t hi = std::min(bounds[i], max);
        const int64_t lo = std::max(i == 0 ? int64_t{0} : bounds[i - 1], min);
        p99 = std::max(lo, std::min(hi, lo + (hi - lo) / 2));
      }
      break;
    }
  }
  *p99_us = ToUs(p99);
}

// Counts every workload's registry carries, under their per-layer names.
void FillCommonLayers(const Snapshot& s, WorkloadOutcome* out) {
  auto& layer = out->layer;
  layer["dne.tx_messages"] = s.Get("engine_tx_messages");
  layer["dne.rx_messages"] = s.Get("engine_rx_messages");
  layer["dne.replenish_failures"] = s.Get("engine_replenish_failures");
  layer["dne.unroutable"] = s.Get("engine_unroutable");
  layer["rdma.sends"] = s.Get("rnic_sends");
  layer["rdma.writes"] = s.Get("rnic_writes");
  layer["rdma.recv_completions"] = s.Get("rnic_recv_completions");
  layer["rdma.bytes_tx"] = s.Get("rnic_bytes_tx");
  layer["rdma.rnr_events"] = s.Get("rnic_rnr_events");
  const double lookups = s.Get("rnic_qp_cache_hits") + s.Get("rnic_qp_cache_misses");
  layer["rdma.qp_cache_miss_ratio"] = lookups > 0 ? s.Get("rnic_qp_cache_misses") / lookups : 0.0;
  layer["rdma.conn_acquires"] = s.Get("connmgr_acquires");
  layer["mem.pool_gets"] = s.Get("pool_gets");
  layer["mem.pool_get_failures"] = s.Get("pool_get_failures");
  layer["mem.pool_transfers"] = s.Get("pool_transfers");
  layer["mem.ownership_violations"] = s.Get("pool_ownership_violations");
  const double sends = s.Get("dataplane_sends");
  layer["runtime.dataplane_sends"] = sends;
  layer["runtime.inter_node_ratio"] = sends > 0 ? s.Get("dataplane_inter_node") / sends : 0.0;
  layer["runtime.intra_node_hops"] = s.Get("dataplane_intra_node");
  layer["runtime.payload_copies"] = s.Get("dataplane_payload_copies");
  layer["runtime.drops"] = s.Get("dataplane_drops");
}

struct RunCounters {
  uint64_t events = 0;
  uint64_t slab_slots = 0;
};

// Runs `fn` with the destroyed-simulator counters reset, and returns what
// the simulator(s) it built had executed.
template <typename Fn>
RunCounters CountingSimulators(Fn&& fn) {
  g_destroyed_events = 0;
  g_destroyed_slab_slots = 0;
  fn();
  return RunCounters{g_destroyed_events, g_destroyed_slab_slots};
}

// The outcome fields every workload fills the same way.
WorkloadOutcome CommonOutcome(const Snapshot& s, const std::string& metrics_json,
                              const RunCounters& counters) {
  WorkloadOutcome out;
  FillCommonLayers(s, &out);
  out.sim_events = counters.events;
  out.slab_slots = counters.slab_slots;
  out.registry_entries = s.entries;
  out.digest = Fnv1a64(metrics_json);
  return out;
}

void Expect(bool ok, const std::string& what, WorkloadOutcome* out) {
  if (!ok) {
    out->violations.push_back(what);
  }
}

// ---------------------------------------------------------------------------
// ingress_http
// ---------------------------------------------------------------------------

IngressEchoOptions IngressOptions(uint64_t seed, RunLength length) {
  IngressEchoOptions o;
  o.mode = IngressMode::kNadino;
  o.clients = 16;
  o.payload = 256;
  o.seed = seed;
  o.sample_period = 100 * kMillisecond;
  const SimDuration phase = SeedOffset(seed, 1, kPhaseSpan);
  switch (length) {
    case RunLength::kFull:
      o.warmup = 50 * kMillisecond + phase;
      o.duration = 250 * kMillisecond;
      break;
    case RunLength::kTiny:
      o.warmup = 5 * kMillisecond + phase / 10;
      o.duration = 10 * kMillisecond;
      break;
    case RunLength::kZero:
      o.warmup = 0;
      o.duration = 0;
      break;
  }
  return o;
}

// Gateway accounting shared by the two HTTP workloads.
void FillGateway(const Snapshot& s, WorkloadOutcome* out) {
  out->attempted = s.Count("gateway_requests");
  const uint64_t responses = s.Count("gateway_responses");
  const uint64_t errors = s.Count("gateway_http_errors");
  out->completed = responses >= errors ? responses - errors : 0;
  out->layer["ingress.requests"] = static_cast<double>(out->attempted);
  out->layer["ingress.http_errors"] = static_cast<double>(errors);
}

WorkloadOutcome RunIngress(uint64_t seed, RunLength length, bool inject) {
  const IngressEchoOptions options = IngressOptions(seed, length);
  IngressEchoResult r;
  const RunCounters counters =
      CountingSimulators([&] { r = RunIngressEcho(CostModel::Default(), options); });
  const Snapshot s = ParseSnapshot(r.metrics_text);
  WorkloadOutcome out = CommonOutcome(s, r.metrics_json, counters);
  FillGateway(s, &out);
  out.goodput_rps = r.rps;
  out.mean_us = r.mean_latency_us;
  out.p99_us = r.p99_latency_us;
  out.latency_samples =
      static_cast<uint64_t>(std::llround(r.rps * ToSeconds(options.duration)));
  const auto& cpu = r.cpu_series.samples();
  double cores = 0.0;
  for (const auto& sample : cpu) {
    cores += sample.value;
  }
  out.live_width = static_cast<uint64_t>(options.clients);
  out.layer["ingress.worker_cores"] = cpu.empty() ? 0.0 : cores / static_cast<double>(cpu.size());
  if (inject) {
    out.layer["ingress.http_errors"] += 1;
  }
  Expect(out.layer["ingress.http_errors"] == 0, "ingress.http_errors != 0", &out);
  Expect(r.sim_events == counters.events, "result sim_events != counted simulator events", &out);
  return out;
}

// ---------------------------------------------------------------------------
// tenants_dwrr
// ---------------------------------------------------------------------------

MultiTenantOptions TenantsOptions(uint64_t seed, RunLength length) {
  MultiTenantOptions o;
  o.use_dwrr = true;
  o.extra_engine_cost = 1200;
  o.seed = seed;
  switch (length) {
    case RunLength::kFull:
      o.duration = 200 * kMillisecond;
      break;
    case RunLength::kTiny:
      o.duration = 10 * kMillisecond;
      break;
    case RunLength::kZero:
      o.duration = 0;
      break;
  }
  struct Shape {
    uint32_t weight;
    int window;
    uint32_t payload;
  };
  const Shape shapes[] = {{6, 64, 1024}, {1, 64, 64}, {2, 96, 4096}, {1, 32, 1024}};
  for (size_t i = 0; i < std::size(shapes); ++i) {
    TenantScenario t;
    t.tenant = static_cast<TenantId>(i + 1);
    t.weight = shapes[i].weight;
    t.window = shapes[i].window;
    t.payload = shapes[i].payload;
    t.start = length == RunLength::kZero ? 0 : SeedOffset(seed, 10 + i, kPhaseSpan);
    t.stop = o.duration;
    o.tenants.push_back(t);
    // Registered only so each request's latency lands in the registry's
    // slo_latency{tenant} histogram (RunMultiTenant reports none). The
    // targets are far above any latency this workload reaches, so no
    // violation, burn or DWRR weight boost ever triggers.
    SloTarget slo;
    slo.p50_target = 1 * kSecond;
    slo.p99_target = 1 * kSecond;
    o.slos[t.tenant] = slo;
  }
  return o;
}

WorkloadOutcome RunTenants(uint64_t seed, RunLength length, bool inject) {
  const MultiTenantOptions options = TenantsOptions(seed, length);
  MultiTenantResult r;
  const RunCounters counters =
      CountingSimulators([&] { r = RunMultiTenant(CostModel::Default(), options); });
  const Snapshot s = ParseSnapshot(r.metrics_text);
  WorkloadOutcome out = CommonOutcome(s, r.metrics_json, counters);
  out.goodput_rps = r.aggregate_rps;
  for (const TenantScenario& t : options.tenants) {
    out.live_width += static_cast<uint64_t>(t.window);
  }
  const auto it = s.histograms.find("slo_latency");
  if (it != s.histograms.end()) {
    MergedLatency(it->second, &out.mean_us, &out.p99_us, &out.latency_samples);
  }
  out.attempted = s.Count("slo_requests");
  for (const auto& [tenant, completed] : r.tenant_completed) {
    out.completed += completed;
  }
  for (const TenantScenario& t : options.tenants) {
    const auto served = r.tenant_served.find(t.tenant);
    out.layer["dne.tenant_served.T" + std::to_string(t.tenant)] =
        served == r.tenant_served.end() ? 0.0 : static_cast<double>(served->second);
  }
  uint64_t drops = r.drops;
  if (inject) {
    drops += 1;
  }
  Expect(drops == 0, "runtime.drops != 0", &out);
  Expect(out.latency_samples == out.completed, "slo_latency samples != completed requests", &out);
  Expect(s.Count("slo_violations") == 0, "slo_violations != 0 (SLO probe changed the run)", &out);
  Expect(r.sim_events == counters.events, "result sim_events != counted simulator events", &out);
  return out;
}

// ---------------------------------------------------------------------------
// openloop_1m
// ---------------------------------------------------------------------------

OpenLoopScaleOptions OpenLoopOptions(uint64_t seed, RunLength length) {
  OpenLoopScaleOptions o;
  o.nodes = 4;
  o.tenants = 8;
  o.users = 1'000'000;
  o.rps_per_user = 1.0;
  o.diurnal = true;
  o.flash_crowd_fraction = 0.5;
  o.seed = seed;
  switch (length) {
    case RunLength::kFull:
      o.horizon = 100 * kMillisecond;
      o.drain = 100 * kMillisecond;
      break;
    case RunLength::kTiny:
      o.horizon = 20 * kMillisecond;
      o.drain = 100 * kMillisecond;
      break;
    case RunLength::kZero:
      o.horizon = 0;
      o.drain = 0;
      break;
  }
  return o;
}

WorkloadOutcome RunOpenLoop(uint64_t seed, RunLength length, bool inject) {
  const OpenLoopScaleOptions options = OpenLoopOptions(seed, length);
  OpenLoopScaleResult r;
  const RunCounters counters =
      CountingSimulators([&] { r = RunOpenLoopScale(CostModel::Default(), options); });
  const Snapshot s = ParseSnapshot(r.metrics_text);
  WorkloadOutcome out = CommonOutcome(s, r.metrics_json, counters);
  out.goodput_rps = r.goodput_rps;
  out.mean_us = r.mean_latency_us;
  out.p99_us = r.p99_latency_us;
  out.latency_samples = r.completed;
  out.attempted = r.offered;
  out.completed = r.completed;
  out.layer["runtime.openloop_offered"] = static_cast<double>(r.offered);
  out.layer["runtime.openloop_shed_ratio"] =
      r.offered > 0 ? static_cast<double>(r.shed) / static_cast<double>(r.offered) : 0.0;
  out.layer["runtime.openloop_in_flight_peak"] = static_cast<double>(r.in_flight_peak);
  out.layer["runtime.openloop_pending_at_end"] = static_cast<double>(r.pending_at_end);
  const uint64_t ticks =
      std::max<uint64_t>(1, static_cast<uint64_t>(options.horizon / options.tick));
  out.live_width = r.offered / ticks + r.in_flight_peak;
  uint64_t dispatched = r.dispatched;
  if (inject) {
    dispatched += 1;
  }
  Expect(r.offered == dispatched + r.shed, "offered != dispatched + shed", &out);
  Expect(r.unmatched_responses == 0, "unmatched_responses != 0", &out);
  Expect(r.slab_slots == counters.slab_slots, "result slab_slots != counted slab slots", &out);
  Expect(r.sim_events == counters.events, "result sim_events != counted simulator events", &out);
  return out;
}

// ---------------------------------------------------------------------------
// boutique_home
// ---------------------------------------------------------------------------

BoutiqueOptions BoutiqueHomeOptions(uint64_t seed, RunLength length) {
  BoutiqueOptions o;
  o.system = SystemUnderTest::kNadinoDne;
  o.chain = kHomeQueryChain;
  o.clients = 60;
  o.seed = seed;
  const SimDuration phase = SeedOffset(seed, 2, kPhaseSpan);
  switch (length) {
    case RunLength::kFull:
      o.warmup = 30 * kMillisecond + phase;
      o.duration = 80 * kMillisecond;
      break;
    case RunLength::kTiny:
      o.warmup = 5 * kMillisecond + phase / 10;
      o.duration = 10 * kMillisecond;
      break;
    case RunLength::kZero:
      o.warmup = 0;
      o.duration = 0;
      break;
  }
  return o;
}

WorkloadOutcome RunBoutiqueHome(uint64_t seed, RunLength length, bool inject) {
  const BoutiqueOptions options = BoutiqueHomeOptions(seed, length);
  BoutiqueResult r;
  const RunCounters counters =
      CountingSimulators([&] { r = RunBoutique(CostModel::Default(), options); });
  const Snapshot s = ParseSnapshot(r.metrics_text);
  WorkloadOutcome out = CommonOutcome(s, r.metrics_json, counters);
  FillGateway(s, &out);
  out.goodput_rps = r.rps;
  out.mean_us = r.mean_latency_ms * 1000.0;
  out.p99_us = r.p99_latency_ms * 1000.0;
  out.latency_samples =
      static_cast<uint64_t>(std::llround(r.rps * ToSeconds(options.duration)));
  out.live_width = static_cast<uint64_t>(options.clients);
  out.layer["dpu.cores"] = r.dpu_cores;
  out.layer["runtime.dataplane_cores"] = r.dataplane_cpu_cores;
  uint64_t errors = r.errors;
  if (inject) {
    errors += 1;
  }
  Expect(errors == 0, "boutique errors != 0", &out);
  Expect(out.layer["ingress.http_errors"] == 0, "ingress.http_errors != 0", &out);
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"ingress_http", "tenants_dwrr", "openloop_1m",
                                                  "boutique_home"};
  return kNames;
}

std::string DescribeWorkload(const std::string& name, uint64_t seed, RunLength length) {
  auto ms = [](SimDuration d) {
    char text[32];
    std::snprintf(text, sizeof(text), "%g ms", ToMs(d));
    return std::string(text);
  };
  if (name == "ingress_http") {
    const IngressEchoOptions o = IngressOptions(seed, length);
    return "closed loop, 16 HTTP clients, 256 B echo, NADINO ingress; " + ms(o.warmup) +
           " warm-up + " + ms(o.duration) + " simulated (RunIngressEcho)";
  }
  if (name == "tenants_dwrr") {
    return "closed loop, 4 tenants, DWRR weights 6:1:2:1, windows 64/64/96/32, payloads "
           "1024/64/4096/1024 B, DNE throttle 1200 ns; " +
           ms(TenantsOptions(seed, length).duration) + " simulated (RunMultiTenant)";
  }
  if (name == "openloop_1m") {
    const OpenLoopScaleOptions o = OpenLoopOptions(seed, length);
    return "open loop, 1M users x 1 rps, diurnal + 50% flash crowd at mid-run, 4 nodes, 8 "
           "tenants; " + ms(o.horizon) + " horizon + " + ms(o.drain) +
           " drain simulated (RunOpenLoopScale). Latency is timed from each arrival's due "
           "time; the generator is never late in simulated time (each arrival event fires at "
           "its due time), so lateness is 0 by construction and not measured";
  }
  const BoutiqueOptions o = BoutiqueHomeOptions(seed, length);
  return "closed loop, 60 clients, home-query chain, NADINO DNE; " + ms(o.warmup) +
         " warm-up + " + ms(o.duration) + " simulated (RunBoutique)";
}

WorkloadOutcome RunWorkload(const std::string& name, uint64_t seed, RunLength length,
                            bool inject_violation) {
  WorkloadOutcome out;
  if (name == "ingress_http") {
    out = RunIngress(seed, length, inject_violation);
  } else if (name == "tenants_dwrr") {
    out = RunTenants(seed, length, inject_violation);
  } else if (name == "openloop_1m") {
    out = RunOpenLoop(seed, length, inject_violation);
  } else {
    out = RunBoutiqueHome(seed, length, inject_violation);
  }
  out.layer["runtime.completed"] = static_cast<double>(out.completed);
  out.layer["sim.events"] = static_cast<double>(out.sim_events);
  out.layer["sim.slab_slots"] = static_cast<double>(out.slab_slots);
  if (length != RunLength::kZero) {
    Expect(out.layer["runtime.payload_copies"] == 0, "runtime.payload_copies != 0", &out);
    Expect(out.layer["mem.ownership_violations"] == 0, "mem.ownership_violations != 0", &out);
    Expect(out.completed > 0, "runtime.completed == 0", &out);
    Expect(out.attempted >= out.completed, "completed > attempted", &out);
  }
  return out;
}

}  // namespace perfbench
