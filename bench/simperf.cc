// Wall-clock throughput of the discrete-event core: events/sec and ns/event
// for (1) an idle-event microbench (self-rescheduling timers — pure simulator
// overhead, no model code) and (2) a fig13-shaped end-to-end ingress echo
// run (the full NADINO pipeline per event).
//
// Unlike the fig* benches this output is wall-clock and therefore NOT
// deterministic: BENCH_simperf.json must never join the golden diff set.
// Instead scripts/check.sh --perf runs this binary with --check against the
// committed bench/perf_baseline.json; a run slower than the baseline by more
// than the threshold fails, so CI catches order-of-magnitude regressions
// without flaking on machine-to-machine variance. The end-to-end gate is on
// fig13 wall time, not events/sec: a change that removes cheap events makes
// each remaining event dearer on average while the run gets faster.
//
// Usage:
//   simperf                                   # measure and print
//   simperf --check bench/perf_baseline.json  # ...and gate vs the baseline
//   simperf --check FILE --threshold 2.0      # custom slack (default 2.0)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "src/core/experiments.h"
#include "src/sim/simulator.h"

using namespace nadino;

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Pure simulator overhead: `width` concurrent timers, each rescheduling
// itself with a small capture until `total` events have fired. No model code
// runs, so events/sec here is the ceiling every experiment is bounded by.
double IdleEventsPerSec(uint64_t total, int width) {
  Simulator sim;
  uint64_t fired = 0;
  struct Timer {
    Simulator* sim;
    uint64_t* fired;
    uint64_t limit;
    SimDuration period;
    void Fire() {
      if (++*fired >= limit) {
        return;
      }
      sim->Schedule(period, [t = *this]() mutable { t.Fire(); });
    }
  };
  for (int i = 0; i < width; ++i) {
    Timer t{&sim, &fired, total, static_cast<SimDuration>(100 + i)};
    sim.Schedule(static_cast<SimDuration>(i), [t]() mutable { t.Fire(); });
  }
  const double start = NowSeconds();
  sim.Run();
  const double elapsed = NowSeconds() - start;
  return static_cast<double>(sim.events_processed()) / elapsed;
}

struct E2eResult {
  double events_per_sec = 0.0;
  double wall_ms = 0.0;
  uint64_t sim_events = 0;
};

// Fig. 13-shaped workload: the NADINO ingress echo at 16 clients. Every layer
// (gateway, DNE, RNIC, fabric, chain executor) contributes events, so this
// tracks the end-to-end cost per simulated event, not just the core.
E2eResult Fig13EventsPerSec() {
  const CostModel& cost = CostModel::Default();
  IngressEchoOptions options;
  options.mode = IngressMode::kNadino;
  options.clients = 16;
  options.duration = 300 * kMillisecond;
  options.warmup = 100 * kMillisecond;
  const double start = NowSeconds();
  const IngressEchoResult result = RunIngressEcho(cost, options);
  const double elapsed = NowSeconds() - start;
  E2eResult out;
  out.sim_events = result.sim_events;
  out.wall_ms = elapsed * 1e3;
  out.events_per_sec = static_cast<double>(result.sim_events) / elapsed;
  return out;
}

double BestOf(int runs, double (*fn)()) {
  double best = 0.0;
  for (int i = 0; i < runs; ++i) {
    const double v = fn();
    if (v > best) {
      best = v;
    }
  }
  return best;
}

// Pulls `"key": <number>` out of a flat JSON file without a JSON library.
bool ReadBaselineValue(const std::string& text, const char* key, double* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) {
    return false;
  }
  *out = std::atof(text.c_str() + pos + needle.size());
  return *out > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  double threshold = 2.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      threshold = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--check baseline.json] [--threshold X]\n", argv[0]);
      return 2;
    }
  }

  bench::Title("simperf — discrete-event core wall-clock throughput",
               "perf gate for the simulator hot path (not a paper figure)");

  const double idle = BestOf(3, []() { return IdleEventsPerSec(2'000'000, 512); });
  E2eResult e2e = Fig13EventsPerSec();
  for (int i = 1; i < 3; ++i) {
    const E2eResult r = Fig13EventsPerSec();
    if (r.wall_ms < e2e.wall_ms) {
      e2e = r;
    }
  }

  std::printf("%-28s %14.0f events/sec  (%.1f ns/event)\n", "idle microbench", idle,
              1e9 / idle);
  std::printf("%-28s %14.0f events/sec  (%.1f ns/event, %.0f ms wall, %llu events)\n",
              "fig13-shaped e2e", e2e.events_per_sec, 1e9 / e2e.events_per_sec, e2e.wall_ms,
              static_cast<unsigned long long>(e2e.sim_events));

  char json[512];
  std::snprintf(json, sizeof(json),
                "{\n"
                "  \"idle_events_per_sec\": %.0f,\n"
                "  \"idle_ns_per_event\": %.2f,\n"
                "  \"fig13_events_per_sec\": %.0f,\n"
                "  \"fig13_wall_ms\": %.1f,\n"
                "  \"fig13_sim_events\": %llu\n"
                "}\n",
                idle, 1e9 / idle, e2e.events_per_sec, e2e.wall_ms,
                static_cast<unsigned long long>(e2e.sim_events));
  bench::WriteMetricsJson("simperf", json);

  if (baseline_path == nullptr) {
    return 0;
  }
  std::FILE* f = std::fopen(baseline_path, "r");
  if (f == nullptr) {
    std::fprintf(stderr, "simperf: cannot open baseline %s\n", baseline_path);
    return 2;
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);

  int status = 0;
  // Idle throughput must stay above baseline / threshold; fig13 wall time
  // must stay below baseline * threshold.
  const struct {
    const char* key;
    double measured;
    bool lower_is_better;
  } gates[] = {
      {"idle_events_per_sec", idle, false},
      {"fig13_wall_ms", e2e.wall_ms, true},
  };
  for (const auto& gate : gates) {
    double base = 0.0;
    if (!ReadBaselineValue(text, gate.key, &base)) {
      std::fprintf(stderr, "simperf: baseline missing %s\n", gate.key);
      status = 2;
      continue;
    }
    const double bound = gate.lower_is_better ? base * threshold : base / threshold;
    const bool ok = gate.lower_is_better ? gate.measured <= bound : gate.measured >= bound;
    if (!ok) {
      std::fprintf(stderr, "simperf: REGRESSION %s = %.1f %s bound %.1f (baseline %.1f, %.1fx)\n",
                   gate.key, gate.measured, gate.lower_is_better ? ">" : "<", bound, base,
                   threshold);
      status = 1;
    } else {
      std::printf("perf gate: %s ok (%.1f %s %.1f)\n", gate.key, gate.measured,
                  gate.lower_is_better ? "<=" : ">=", bound);
    }
  }
  return status;
}
