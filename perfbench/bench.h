// Shared declarations of the repository benchmark (see README.md): the
// workload runner (workloads.cc), the per-layer drivers (drivers.cc) and the
// in-memory span log the traced run records into.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Host wall clock, seconds (steady_clock).
double NowSeconds();

// Spans recorded around the benchmark's own calls into the model: each Run*
// call and each driver. Kept in memory; written as Chrome trace-event JSON
// when the run ends. Disabled spans cost one branch.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  void Add(const std::string& name, double start_s, double end_s);
  size_t size() const { return spans_.size(); }
  // Writes {"traceEvents": [...]} (complete events, microseconds). Returns
  // false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

// Records one span on `log` for its own lifetime (when the log is enabled).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::string name_;
  double start_s_;
};

// A fixed job, independent of the model (probe.cc): a compute-bound multiply
// chain plus a miniature event simulation (a timestamp heap, a FIFO buffer
// pool of 16 MiB and a hash table). The shared host this benchmark runs on
// slows every process for minutes at a time, the model by up to 1.5x and a
// compute-only loop by a few percent; the probe slows about as much as the
// model, so a run's wall time over the time of probes run between its
// repetitions repeats far better than its wall time.
class ReferenceProbe {
 public:
  ReferenceProbe();
  // Runs the job once; returns its host seconds.
  double RunSeconds();

 private:
  std::vector<char> pool_;
  std::vector<char> source_;
  uint64_t sink_ = 0;  // Keeps the job's results live.
};

// ---------------------------------------------------------------------------
// Workloads (workloads.cc)
// ---------------------------------------------------------------------------

enum class RunLength {
  kFull,  // The benchmark's run length.
  kTiny,  // Self-check: a few simulated milliseconds.
  kZero,  // Set-up only: the same Run* call with zero run length.
};

// What one Run* call produced, reduced to the benchmark's vocabulary. Every
// simulated field is a deterministic function of (workload, seed, length).
struct WorkloadOutcome {
  double goodput_rps = 0.0;  // Completed requests per simulated second.
  double mean_us = 0.0;      // Simulated latency.
  double p99_us = 0.0;
  uint64_t latency_samples = 0;  // Requests behind mean_us / p99_us.
  uint64_t attempted = 0;        // Requests issued or offered.
  uint64_t completed = 0;        // Requests answered successfully.
  uint64_t sim_events = 0;       // Simulator callbacks executed.
  uint64_t slab_slots = 0;       // Simulator slab slots allocated.
  uint64_t registry_entries = 0; // Instruments in the metrics snapshot.
  // Events the workload keeps queued, for the event-core driver: its
  // closed-loop concurrency, or for the open loop one admission tick of
  // arrivals plus its in-flight peak.
  uint64_t live_width = 0;
  uint64_t digest = 0;           // FNV-1a 64 of metrics_json.
  // Per-layer counts, keyed by the BENCHMARK.json per_layer name.
  std::map<std::string, double> layer;
  // Failed correctness checks (empty when the run is correct).
  std::vector<std::string> violations;
};

// The names of the four workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

// One line describing the workload's loop, load and run length.
std::string DescribeWorkload(const std::string& name, uint64_t seed, RunLength length);

// Runs `name` once through its Run* entry point. `inject_violation` corrupts
// one checked field first, so the self-check can prove the checks bite.
WorkloadOutcome RunWorkload(const std::string& name, uint64_t seed, RunLength length,
                            bool inject_violation = false);

// ---------------------------------------------------------------------------
// Per-layer drivers (drivers.cc). Each returns host time per operation, the
// median over a few batches; `quick` shrinks the batches for the self-check.
// ---------------------------------------------------------------------------

struct DriverResult {
  double value = 0.0;
  std::vector<std::string> violations;
};

DriverResult CoreNsPerEvent(uint64_t width, uint64_t seed, bool quick);
DriverResult BatchAdmitNs(uint64_t seed, bool quick);
DriverResult SnapshotUs(uint64_t entries, uint64_t seed, bool quick);
DriverResult DrainSpeedupW2(uint64_t seed, bool quick);
DriverResult HttpParseNs(uint64_t seed, bool quick);
DriverResult DwrrNs(uint64_t seed, bool quick);
DriverResult ComchHopNs(uint64_t seed, bool quick);
DriverResult PostWrNs(uint64_t seed, bool quick);
DriverResult PoolGetPutNs(uint64_t seed, bool quick);
DriverResult HeaderRwNs(uint64_t seed, bool quick);

// Median of a non-empty sample (copied, not reordered in place).
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
