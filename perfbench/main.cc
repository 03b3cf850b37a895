// The repository benchmark's binary. run.py builds and runs it:
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--tiny] [--inject-violation] [--source-id ID] [--trace-out FILE]
//
// One run sets the workload up several times (zero-length Run* calls, the
// median is setup_s), runs it once to warm up, then repeats the workload's
// Run* call for --seconds of host time, each repetition followed by the
// reference probe (bench.h), and reports medians and the run's wall time
// over its probe time. --trace 0 prints the end-to-end metrics; --trace 1
// alternates untraced and traced repetitions (spans around each Run* call),
// runs every per-layer driver in its own span, and prints the per-layer
// metrics plus the tracing overhead. Every repetition is checked
// (workloads.cc) and must reproduce the warm-up's registry digest and
// simulated values bit for bit. The last stdout line is the JSON result.

#include <cpuid.h>
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "src/core/env.h"

namespace perfbench {

void SpanLog::Add(const std::string& name, double start_s, double end_s) {
  spans_.push_back(Span{name, start_s, end_s});
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                 "\"dur\": %.3f}%s\n",
                 s.name.c_str(), (s.start_s - origin) * 1e6, (s.end_s - s.start_s) * 1e6,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string name)
    : log_(log), name_(std::move(name)), start_s_(log->enabled() ? NowSeconds() : 0.0) {}

ScopedSpan::~ScopedSpan() {
  if (log_->enabled()) {
    log_->Add(name_, start_s_, NowSeconds());
  }
}

namespace {

struct Args {
  std::string workload;
  uint64_t seed = nadino::kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  bool inject_violation = false;
  std::string source_id = "unknown";
  std::string trace_out;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload {ingress_http|tenants_dwrr|openloop_1m|boutique_home} "
               "[--seed N] [--seconds S] [--trace 0|1] [--tiny] [--inject-violation] "
               "[--source-id ID] [--trace-out FILE]\n",
               argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      char* end = nullptr;
      args->seed = std::strtoull(argv[++i], &end, 0);
      if (*end != '\0') {
        return false;
      }
    } else if (flag == "--seconds" && has_value) {
      args->seconds = std::atof(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      args->trace = std::atoi(argv[++i]);
    } else if (flag == "--tiny") {
      args->tiny = true;
    } else if (flag == "--inject-violation") {
      args->inject_violation = true;
    } else if (flag == "--source-id" && has_value) {
      args->source_id = argv[++i];
    } else if (flag == "--trace-out" && has_value) {
      args->trace_out = argv[++i];
    } else {
      return false;
    }
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) {
    known = known || name == args->workload;
  }
  return known && args->seconds > 0 && (args->trace == 0 || args->trace == 1);
}

std::string CpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) {
    return "unknown";
  }
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1], &regs[leaf * 4 + 2],
                &regs[leaf * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// CPUs this process may run on, counted as nproc counts them.
int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Whether two outcomes of the same (workload, seed, length) agree on every
// simulated value, bit for bit.
bool SameSimulation(const WorkloadOutcome& a, const WorkloadOutcome& b) {
  return a.digest == b.digest && a.goodput_rps == b.goodput_rps && a.mean_us == b.mean_us &&
         a.p99_us == b.p99_us && a.attempted == b.attempted && a.completed == b.completed &&
         a.latency_samples == b.latency_samples && a.sim_events == b.sim_events &&
         a.layer == b.layer;
}

// The per-layer metrics every traced run prints; values missing from a
// workload's outcome (a layer it does not exercise) print as 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerCounts() {
  static const std::vector<std::pair<std::string, std::string>> kCounts = {
      {"sim.events", "count"},
      {"sim.slab_slots", "count"},
      {"ingress.requests", "count"},
      {"ingress.http_errors", "count"},
      {"ingress.worker_cores", "cores"},
      {"dne.tx_messages", "count"},
      {"dne.rx_messages", "count"},
      {"dne.replenish_failures", "count"},
      {"dne.unroutable", "count"},
      {"dne.tenant_served.T1", "count"},
      {"dne.tenant_served.T2", "count"},
      {"dne.tenant_served.T3", "count"},
      {"dne.tenant_served.T4", "count"},
      {"dpu.cores", "cores"},
      {"runtime.dataplane_cores", "cores"},
      {"rdma.sends", "count"},
      {"rdma.writes", "count"},
      {"rdma.recv_completions", "count"},
      {"rdma.bytes_tx", "bytes"},
      {"rdma.rnr_events", "count"},
      {"rdma.qp_cache_miss_ratio", "ratio"},
      {"rdma.conn_acquires", "count"},
      {"mem.pool_gets", "count"},
      {"mem.pool_get_failures", "count"},
      {"mem.pool_transfers", "count"},
      {"mem.ownership_violations", "count"},
      {"runtime.dataplane_sends", "count"},
      {"runtime.inter_node_ratio", "ratio"},
      {"runtime.intra_node_hops", "count"},
      {"runtime.payload_copies", "count"},
      {"runtime.drops", "count"},
      {"runtime.completed", "count"},
      {"runtime.openloop_offered", "count"},
      {"runtime.openloop_shed_ratio", "ratio"},
      {"runtime.openloop_in_flight_peak", "count"},
      {"runtime.openloop_pending_at_end", "count"},
  };
  return kCounts;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Usage(argv[0]);
  }
  // Freeze glibc's mmap threshold at its initial 128 KiB. Left adaptive, it
  // rises as large blocks are freed, so the model's 2 MiB-aligned arena pages
  // move between mmap and the heap depending on what ran before, and set-up
  // time and peak RSS wander from run to run; fixed, every arena page is
  // mapped fresh and peak RSS repeats.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const std::string& w = args.workload;
  const RunLength length = args.tiny ? RunLength::kTiny : RunLength::kFull;

  std::printf("host: nproc=%d cpu=\"%s\" compiler=\"%s\" build=%s source=%s\n",
              Nproc(), CpuModel().c_str(), Compiler().c_str(),
              PERFBENCH_BUILD_TYPE, args.source_id.c_str());
  std::printf("workload: %s seed=%llu: %s\n", w.c_str(),
              static_cast<unsigned long long>(args.seed),
              DescribeWorkload(w, args.seed, length).c_str());
  std::fflush(stdout);

  SpanLog spans;
  spans.set_enabled(args.trace == 1);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> violations;
  auto account = [&](const std::vector<std::string>& found, const std::string& where) {
    ++attempted;
    if (!found.empty()) {
      ++failed;
      for (const std::string& v : found) {
        violations.push_back(where + ": " + v);
      }
    }
  };

  // Set-up: the same Run* call at zero run length, repeated; median.
  std::vector<double> setups;
  const int setup_runs = args.tiny ? 3 : 101;
  for (int i = 0; i < setup_runs; ++i) {
    const double start = NowSeconds();
    WorkloadOutcome outcome;
    {
      ScopedSpan span(&spans, "setup:" + w);
      outcome = RunWorkload(w, args.seed, RunLength::kZero);
    }
    setups.push_back(NowSeconds() - start);
    account(outcome.violations, "setup");
  }

  // One warm-up repetition, checked but not timed: it faults in the code
  // and the allocator's state that every later repetition finds warm. Peak
  // RSS is read after it, before the probe allocates its pool; every
  // repetition of a workload allocates the same.
  spans.set_enabled(false);
  const WorkloadOutcome first = RunWorkload(w, args.seed, length, args.inject_violation);
  account(first.violations, "warm-up");
  const double peak_rss_mb = PeakRssMb();
  ReferenceProbe probe;
  probe.RunSeconds();

  // Measured repetitions: at least three (four when traced, two of each
  // kind), then as many as fit in --seconds, each followed by the probe.
  const int min_reps = args.trace == 1 ? 4 : 3;
  std::vector<double> walls;
  std::vector<double> traced_walls;
  std::vector<double> probes;
  std::vector<double> traced_probes;
  bool deterministic = true;
  const double deadline = NowSeconds() + args.seconds;
  for (int rep = 0;; ++rep) {
    const bool traced = args.trace == 1 && rep % 2 == 1;
    spans.set_enabled(traced);
    const double start = NowSeconds();
    WorkloadOutcome outcome;
    {
      ScopedSpan span(&spans, "run:" + w);
      outcome = RunWorkload(w, args.seed, length, args.inject_violation);
    }
    const double wall = NowSeconds() - start;
    const double probe_s = probe.RunSeconds();
    (traced ? traced_walls : walls).push_back(wall);
    (traced ? traced_probes : probes).push_back(probe_s);
    std::vector<std::string> found = outcome.violations;
    if (!SameSimulation(first, outcome)) {
      deterministic = false;
      found.push_back("repetition " + std::to_string(rep) +
                      " differs from the warm-up (non-deterministic)");
    }
    account(found, "run");
    if (rep + 1 >= min_reps && NowSeconds() + wall + probe_s > deadline) {
      break;
    }
  }
  spans.set_enabled(args.trace == 1);
  const double wall_s = Median(walls);
  const double wall_ref = Sum(walls) / Sum(probes);
  const uint64_t reps = 1 + walls.size() + traced_walls.size();

  std::printf("digest: %s seed=%llu fnv1a64(metrics_json)=0x%016llx identical across %llu "
              "repetitions: %s\n",
              w.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(first.digest), static_cast<unsigned long long>(reps),
              deterministic ? "yes" : "NO");

  std::printf("repetitions: %zu untraced after one warm-up, wall min %.6f / median %.6f / max "
              "%.6f s; probe median %.6f s; total wall / total probe %.6f\n",
              walls.size(), *std::min_element(walls.begin(), walls.end()), wall_s,
              *std::max_element(walls.begin(), walls.end()), Median(probes), wall_ref);

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    // Requests shed, dropped, errored or still pending at the end, over those
    // attempted (RunWorkload has checked completed <= attempted).
    const double fail_ratio =
        first.attempted == 0 ? 1.0
                             : static_cast<double>(first.attempted - first.completed) /
                                   static_cast<double>(first.attempted);
    metrics = {
        {"setup_s", Median(setups), "s"},
        {"wall_ref", wall_ref, "probe"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"sim_goodput_rps", first.goodput_rps, "req/sim_s"},
        {"sim_mean_us", first.mean_us, "sim_us"},
        {"sim_p99_us", first.p99_us, "sim_us"},
        {"fail_ratio", fail_ratio, "ratio"},
    };
    std::printf("samples: sim latency over %llu completed requests (runtime.completed=%llu of "
                "%llu attempted)\n",
                static_cast<unsigned long long>(first.latency_samples),
                static_cast<unsigned long long>(first.completed),
                static_cast<unsigned long long>(first.attempted));
  } else {
    const bool quick = args.tiny;
    auto drive = [&](const std::string& name, const std::string& unit, auto&& fn) {
      DriverResult result;
      {
        ScopedSpan span(&spans, "driver:" + name);
        result = fn();
      }
      account(result.violations, name);
      metrics.push_back({name, result.value, unit});
      return result.value;
    };
    const double events = static_cast<double>(first.sim_events);
    const double host_ns_per_event = events > 0 ? wall_s * 1e9 / events : 0.0;
    const double core_ns = drive("sim.core_ns_per_event", "ns", [&] {
      return CoreNsPerEvent(first.live_width, args.seed, quick);
    });
    metrics.push_back({"sim.host_ns_per_event", host_ns_per_event, "ns"});
    metrics.push_back({"sim.model_ns_per_event", host_ns_per_event - core_ns, "ns"});
    drive("sim.batch_admit_ns", "ns", [&] { return BatchAdmitNs(args.seed, quick); });
    drive("sim.snapshot_us", "us",
          [&] { return SnapshotUs(first.registry_entries, args.seed, quick); });
    drive("sim.drain_speedup_w2", "x", [&] { return DrainSpeedupW2(args.seed, quick); });
    drive("transport.http_parse_ns", "ns", [&] { return HttpParseNs(args.seed, quick); });
    drive("dne.dwrr_ns", "ns", [&] { return DwrrNs(args.seed, quick); });
    drive("dpu.comch_hop_ns", "ns", [&] { return ComchHopNs(args.seed, quick); });
    drive("rdma.post_wr_ns", "ns", [&] { return PostWrNs(args.seed, quick); });
    drive("mem.pool_get_put_ns", "ns", [&] { return PoolGetPutNs(args.seed, quick); });
    drive("runtime.header_rw_ns", "ns", [&] { return HeaderRwNs(args.seed, quick); });
    for (const auto& [name, unit] : PerLayerCounts()) {
      const auto it = first.layer.find(name);
      metrics.push_back({name, it == first.layer.end() ? 0.0 : it->second, unit});
    }
    metrics.push_back({"host.wall_s", wall_s, "s"});
    metrics.push_back({"host.probe_s", Median(probes), "s"});
    const double traced = Sum(traced_walls) / Sum(traced_probes);
    metrics.push_back({"trace.overhead_pct", (traced - wall_ref) / wall_ref * 100.0, "%"});
    metrics.push_back({"trace.spans", static_cast<double>(spans.size()), "count"});
    if (!args.trace_out.empty() && !spans.WriteChromeTrace(args.trace_out)) {
      account({"cannot write " + args.trace_out}, "trace");
    }
    std::printf("trace: %zu spans; traced repetitions' wall / probe %.6f vs untraced %.6f\n",
                spans.size(), traced, wall_ref);
  }

  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      account({m.name + " is not finite"}, "metrics");
      m.value = 0.0;
    }
    std::printf("metric: %s = %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& v : violations) {
    std::printf("violation: %s\n", v.c_str());
  }
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
