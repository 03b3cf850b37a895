// Open-loop scale sweep (DESIGN.md §3g) — offered load from 10k to 1M
// simulated users aggregated into per-tenant Poisson arrival processes with a
// compressed diurnal cycle and a mid-run flash crowd, driving DNE echo pairs
// across a 4-worker cluster. The table shows the open-loop story a closed
// loop cannot: offered grows 100x, goodput plateaus at DNE capacity, the
// excess is shed (not queued), and simulator slab occupancy stays flat
// because memory follows in-flight work, never the user count.
//
// Usage:
//   openloop_scale                 # deterministic sweep + golden artifact
//   openloop_scale --perf-compare  # wall-clock: 16-node sharded admit+drain
//                                  # vs the single-heap baseline, plus the
//                                  # parallel drain vs the serial drain at the
//                                  # 1M-user point; exits non-zero if either
//                                  # does not win (check.sh --perf)
//   openloop_scale --workers       # event_workers sweep at the 1M-user point
//                                  # (wall-clock table + BENCH_openloop_workers.json)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/env.h"
#include "src/core/experiments.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

using namespace nadino;

namespace {

OpenLoopScaleOptions Scenario(uint64_t users) {
  OpenLoopScaleOptions options;
  options.nodes = 4;
  options.tenants = 8;
  options.users = users;
  options.rps_per_user = 1.0;
  options.event_shards = 0;  // One shard per worker node.
  options.payload = 256;
  options.horizon = 1 * kSecond;
  options.drain = 200 * kMillisecond;
  options.max_in_flight_per_tenant = 1024;
  options.diurnal = true;
  options.flash_crowd_fraction = 0.5;
  return options;
}

void PrintRow(uint64_t users, const OpenLoopScaleResult& result) {
  std::printf("%8llu %12llu %12llu %12llu %10.2f %10.2f %10llu %10llu\n",
              static_cast<unsigned long long>(users),
              static_cast<unsigned long long>(result.offered),
              static_cast<unsigned long long>(result.completed),
              static_cast<unsigned long long>(result.shed), result.mean_latency_us,
              result.p99_latency_us, static_cast<unsigned long long>(result.in_flight_peak),
              static_cast<unsigned long long>(result.slab_slots));
}

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Wall-clock race at 16 nodes: each node bulk-admits a 125k-arrival flash
// crowd into one 100 ms window (2M events total — the 1M-user sweep's burst
// shape), then the queue drains. Identical (when, seq) streams, identical
// event counts; only the heap topology differs. The single heap takes every
// batch after the first as per-entry sifts into a ~48 MB array (beyond LLC),
// while per-node shards take a cache-resident sort each. The far-future
// tier now gives the single heap cheap bulk admission too, so the admission
// ratio alone sits close to 1 and is only printed; the gated ratio is the
// end-to-end admit+drain rate. Best-of-3 per config to shrug off scheduler
// jitter (this gate shares check.sh --perf's wall-clock caveats; the
// artifact is never golden-diffed).
struct AdmissionRace {
  double admit_entries_per_sec = 0.0;
  double events_per_sec = 0.0;
  uint64_t events = 0;
};

AdmissionRace RaceOnce(uint32_t shards) {
  constexpr uint32_t kStreams = 16;       // One arrival stream per node.
  constexpr uint64_t kPerStream = 125'000;
  Simulator sim;
  sim.SetShardCount(shards);
  Rng rng(kDefaultSeed);  // Same seed either way: identical arrival streams.
  uint64_t fired = 0;
  const SimDuration window = 100 * kMillisecond;
  std::vector<SimTime> whens(kPerStream);
  const double start = NowSeconds();
  for (uint32_t s = 0; s < kStreams; ++s) {
    for (SimTime& when : whens) {
      when = static_cast<SimTime>(rng.UniformInt(0, static_cast<uint64_t>(window) - 1));
    }
    std::sort(whens.begin(), whens.end());
    sim.ScheduleBatch(s, whens, [&fired](size_t) { return [&fired]() { ++fired; }; });
  }
  const double admit_elapsed = NowSeconds() - start;
  sim.Run();
  const double total_elapsed = NowSeconds() - start;
  AdmissionRace race;
  race.admit_entries_per_sec =
      static_cast<double>(kStreams * kPerStream) / admit_elapsed;
  race.events_per_sec = static_cast<double>(sim.events_processed()) / total_elapsed;
  race.events = sim.events_processed();
  return race;
}

// The 1M-user point of the sweep, re-expressed on the shard-confined echo
// driver so the event queue may legally drain on real threads (DESIGN.md
// §3h): 16 nodes, one tenant lane per node, 1M users x 1 rps for 250 ms.
// payload=4096 gives each service a few microseconds of genuine ALU work —
// the grain the parallel drain spreads across cores.
ParallelDrainOptions DrainScenario(uint32_t workers) {
  ParallelDrainOptions options;
  options.nodes = 16;
  options.users = 1'000'000;
  options.rps_per_user = 1.0;
  options.event_workers = workers;
  options.payload = 4096;
  options.horizon = 250 * kMillisecond;
  options.drain = 100 * kMillisecond;
  return options;
}

struct DrainRace {
  double events_per_sec = 0.0;
  double wall_ms = 0.0;
  uint64_t events = 0;
  uint64_t digest = 0;
  uint64_t completed = 0;
  uint64_t windows = 0;
};

DrainRace DrainOnce(uint32_t workers) {
  const double start = NowSeconds();
  const ParallelDrainResult result = RunParallelDrain(CostModel::Default(), DrainScenario(workers));
  const double elapsed = NowSeconds() - start;
  DrainRace race;
  race.events_per_sec = static_cast<double>(result.sim_events) / elapsed;
  race.wall_ms = elapsed * 1e3;
  race.events = result.sim_events;
  race.digest = result.digest;
  race.completed = result.completed;
  race.windows = result.windows;
  return race;
}

DrainRace DrainBestOf(uint32_t workers, int reps) {
  DrainRace best;
  for (int i = 0; i < reps; ++i) {
    const DrainRace race = DrainOnce(workers);
    if (race.events_per_sec > best.events_per_sec) {
      best = race;
    }
  }
  std::printf("%-24s drain %12.0f events/sec  (%7.0f ms wall, %llu events, %llu windows)\n",
              workers == 1 ? "serial drain" : "parallel drain", best.events_per_sec,
              best.wall_ms, static_cast<unsigned long long>(best.events),
              static_cast<unsigned long long>(best.windows));
  return best;
}

// The tentpole gate: the multi-worker drain must beat the serial drain on
// the same 1M-user workload — and must execute the identical schedule
// (event count + service digest) while doing so.
int PerfCompareDrain() {
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores < 2) {
    std::printf("perf gate: parallel drain SKIPPED (hardware_concurrency=%u; "
                "a 1-core host cannot demonstrate a speedup)\n",
                cores);
    return 0;
  }
  const uint32_t workers = cores >= 4 ? 4u : 2u;
  const DrainRace serial = DrainBestOf(1, 3);
  const DrainRace parallel = DrainBestOf(workers, 3);
  if (serial.events != parallel.events || serial.digest != parallel.digest ||
      serial.completed != parallel.completed) {
    std::fprintf(stderr,
                 "openloop_scale: DETERMINISM VIOLATION: serial (%llu events, digest %llx) "
                 "vs %u workers (%llu events, digest %llx)\n",
                 static_cast<unsigned long long>(serial.events),
                 static_cast<unsigned long long>(serial.digest), workers,
                 static_cast<unsigned long long>(parallel.events),
                 static_cast<unsigned long long>(parallel.digest));
    return 1;
  }
  const double ratio = parallel.events_per_sec / serial.events_per_sec;
  std::printf("parallel/serial drain: %.3fx at %u workers\n", ratio, workers);
  if (ratio <= 1.0) {
    std::fprintf(stderr,
                 "openloop_scale: REGRESSION %u-worker drain (%.0f events/s) did not beat "
                 "the serial drain (%.0f events/s) at the 1M-user point\n",
                 workers, parallel.events_per_sec, serial.events_per_sec);
    return 1;
  }
  std::printf("perf gate: %u-worker drain beats serial at the 1M-user point\n", workers);
  return 0;
}

int WorkersSweep() {
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("%8s %14s %10s %12s %10s\n", "workers", "events/sec", "wall_ms", "events",
              "windows");
  std::string json = "{\n  \"hardware_concurrency\": " + std::to_string(cores) +
                     ",\n  \"rows\": [\n";
  bool first = true;
  uint64_t ref_events = 0;
  uint64_t ref_digest = 0;
  for (const uint32_t workers : {1u, 2u, 4u, 8u}) {
    const DrainRace race = DrainBestOf(workers, 2);
    std::printf("%8u %14.0f %10.0f %12llu %10llu\n", workers, race.events_per_sec,
                race.wall_ms, static_cast<unsigned long long>(race.events),
                static_cast<unsigned long long>(race.windows));
    if (workers == 1) {
      ref_events = race.events;
      ref_digest = race.digest;
    } else if (race.events != ref_events || race.digest != ref_digest) {
      std::fprintf(stderr, "openloop_scale: DETERMINISM VIOLATION at workers=%u\n", workers);
      return 1;
    }
    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s    {\"workers\": %u, \"events_per_sec\": %.0f, \"wall_ms\": %.0f, "
                  "\"events\": %llu, \"windows\": %llu}",
                  first ? "" : ",\n", workers, race.events_per_sec, race.wall_ms,
                  static_cast<unsigned long long>(race.events),
                  static_cast<unsigned long long>(race.windows));
    json += row;
    first = false;
  }
  json += "\n  ]\n}\n";
  bench::Note(
      "identical events and digests across every worker count — the sweep "
      "varies wall-clock only. Speedups need real cores; on a 1-core host "
      "the parallel rows pay barrier overhead for nothing.");
  bench::WriteMetricsJson("openloop_workers", json);
  return 0;
}

int PerfCompare() {
  auto best_of = [](uint32_t shards) {
    AdmissionRace best;
    for (int i = 0; i < 3; ++i) {
      const AdmissionRace race = RaceOnce(shards);
      best.admit_entries_per_sec =
          std::max(best.admit_entries_per_sec, race.admit_entries_per_sec);
      best.events_per_sec = std::max(best.events_per_sec, race.events_per_sec);
      best.events = race.events;
    }
    std::printf("%-24s admit %12.0f entries/sec   e2e %12.0f events/sec  (%llu events)\n",
                shards == 1 ? "single heap" : "sharded (16)", best.admit_entries_per_sec,
                best.events_per_sec, static_cast<unsigned long long>(best.events));
    return best;
  };
  const AdmissionRace single = best_of(1);
  const AdmissionRace sharded = best_of(16);
  if (single.events != sharded.events) {
    std::fprintf(stderr,
                 "openloop_scale: DETERMINISM VIOLATION: %llu events single-heap vs %llu "
                 "sharded (the (when, seq) merge must make these equal)\n",
                 static_cast<unsigned long long>(single.events),
                 static_cast<unsigned long long>(sharded.events));
    return 1;
  }
  const double admit_ratio = sharded.admit_entries_per_sec / single.admit_entries_per_sec;
  const double e2e_ratio = sharded.events_per_sec / single.events_per_sec;
  std::printf("sharded/single: admission %.3fx, end-to-end %.3fx\n", admit_ratio, e2e_ratio);
  if (e2e_ratio <= 1.0) {
    std::fprintf(stderr,
                 "openloop_scale: REGRESSION sharded admit+drain (%.0f events/s) did not "
                 "beat the single heap (%.0f events/s) at 16 nodes\n",
                 sharded.events_per_sec, single.events_per_sec);
    return 1;
  }
  std::printf("perf gate: sharded admit+drain beats single heap at 16 nodes\n");
  return PerfCompareDrain();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--perf-compare") == 0) {
    bench::Title("openloop_scale --perf-compare — sharded admission + parallel drain",
                 "DESIGN.md §3g/§3h perf gates (wall-clock; not golden-diffed)");
    return PerfCompare();
  }
  if (argc > 1 && std::strcmp(argv[1], "--workers") == 0) {
    bench::Title("openloop_scale --workers — event_workers sweep at 1M users",
                 "DESIGN.md §3h: the conservative parallel drain (wall-clock)");
    return WorkersSweep();
  }

  bench::Title("Open-loop scale — 10k/100k/1M simulated users, shed-not-queue",
               "DESIGN.md §3g: aggregated arrivals + batched sharded admission");
  const CostModel& cost = CostModel::Default();
  std::printf("%8s %12s %12s %12s %10s %10s %10s %10s\n", "users", "offered", "completed",
              "shed", "mean_us", "p99_us", "peak_infl", "slab");

  std::string json = "{\n  \"rows\": [\n";
  bool first = true;
  for (const uint64_t users : {10'000ull, 100'000ull, 1'000'000ull}) {
    const OpenLoopScaleResult result = RunOpenLoopScale(cost, Scenario(users));
    PrintRow(users, result);
    char row[512];
    std::snprintf(row, sizeof(row),
                  "%s    {\"users\": %llu, \"offered\": %llu, \"dispatched\": %llu, "
                  "\"completed\": %llu, \"shed\": %llu, \"in_flight_peak\": %llu, "
                  "\"unmatched\": %llu, \"pending_at_end\": %llu, \"slab_slots\": %llu, "
                  "\"p99_us\": %.2f}",
                  first ? "" : ",\n", static_cast<unsigned long long>(users),
                  static_cast<unsigned long long>(result.offered),
                  static_cast<unsigned long long>(result.dispatched),
                  static_cast<unsigned long long>(result.completed),
                  static_cast<unsigned long long>(result.shed),
                  static_cast<unsigned long long>(result.in_flight_peak),
                  static_cast<unsigned long long>(result.unmatched_responses),
                  static_cast<unsigned long long>(result.pending_at_end),
                  static_cast<unsigned long long>(result.slab_slots), result.p99_latency_us);
    json += row;
    first = false;
  }
  json += "\n  ]\n}\n";

  bench::Note(
      "offered scales 100x while slab slots stay flat: the open loop sheds "
      "what the DNE cannot absorb, so memory follows in-flight work (the "
      "per-tenant cap), never the user count. Goodput plateaus at the "
      "throttled DNE capacity exactly where the closed-loop figs saturate.");
  bench::WriteMetricsJson("openloop_scale", json);
  return 0;
}
