// Deterministic metrics registry: named counters, fixed-bucket histograms,
// and snapshot-time callbacks with optional (tenant, node, engine) labels.
//
// Every component hangs its observability off the registry owned by the Env
// (src/core/env.h) instead of a private Stats struct, so one snapshot shows
// the whole pipeline — the shape production DPU dataplanes (NDN-DPDK,
// Palladium) expose. Registration is by stable string key; snapshots render
// entries in sorted key order with integer/fixed-precision formatting, so two
// runs with equal seeds produce byte-identical dumps (asserted by
// tests/determinism_test.cc).

#ifndef SRC_SIM_METRICS_H_
#define SRC_SIM_METRICS_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace nadino {

// Label set for one metric instance. Unset dimensions are omitted from the
// rendered key. Only the three dimensions the experiments slice by are
// modelled; add a field here (and to Render()) before inventing ad-hoc name
// suffixes like "_tenant3".
struct MetricLabels {
  static constexpr int64_t kUnset = -1;

  int64_t tenant = kUnset;
  int64_t node = kUnset;
  int64_t engine = kUnset;

  // "{engine=1000,node=1,tenant=2}" (alphabetical, fixed order), or "" when
  // every dimension is unset.
  std::string Render() const;

  static MetricLabels Tenant(int64_t tenant) { return MetricLabels{tenant, kUnset, kUnset}; }
  static MetricLabels Node(int64_t node) { return MetricLabels{kUnset, node, kUnset}; }
  static MetricLabels Engine(int64_t engine) { return MetricLabels{kUnset, kUnset, engine}; }
};

// Monotonically increasing 64-bit event counter.
class CounterMetric {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  void Increment() { ++value_; }
  uint64_t value() const { return value_; }

 private:
  friend class MetricsRegistry;  // Hands out raw-word handles (below).
  uint64_t value_ = 0;
};

// ---------------------------------------------------------------------------
// Fast-path handles (DESIGN.md §3c). MetricsRegistry::Resolve*() pays the
// string+labels key construction and map walk exactly once; the returned
// handle is a raw pointer into the registry's stable storage (entries live in
// node-based map values and never move), so a hot-path bump is a single
// indirect add with no hashing, no string assembly, and no allocation.
// Handles stay valid for the registry's lifetime. A default-constructed
// handle is unresolved; bumping it is a programming error (asserted).
// ---------------------------------------------------------------------------

class CounterHandle {
 public:
  CounterHandle() = default;

  void Add(uint64_t n = 1) {
    assert(value_ != nullptr);
    *value_ += n;
  }
  void Increment() {
    assert(value_ != nullptr);
    ++*value_;
  }
  uint64_t value() const {
    assert(value_ != nullptr);
    return *value_;
  }
  bool resolved() const { return value_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit CounterHandle(uint64_t* value) : value_(value) {}
  uint64_t* value_ = nullptr;
};

class HistogramMetric;

class HistogramHandle {
 public:
  HistogramHandle() = default;

  inline void Record(int64_t value);
  const HistogramMetric* get() const { return histogram_; }
  bool resolved() const { return histogram_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit HistogramHandle(HistogramMetric* histogram) : histogram_(histogram) {}
  HistogramMetric* histogram_ = nullptr;
};

// Per-worker counter lanes for the parallel drain (DESIGN.md §3h): one
// cache-line-aligned 64-bit accumulator per drain worker, bumped without any
// synchronization on the hot path, folded into a registry counter at the
// epoch barrier (the barrier's serial section is the only reader/zeroer, and
// the barrier itself orders the plain accesses). The registry counter
// renders exactly like any other counter, so snapshots stay deterministic:
// fold points are fixed by the window schedule, not by thread timing.
class CounterLanes {
 public:
  CounterLanes() = default;
  CounterLanes(CounterHandle sink, uint32_t lane_count)
      : sink_(sink), lanes_(lane_count < 1 ? 1 : lane_count) {}

  // Hot path: called by worker `lane` only (lane < lane_count()).
  void Add(uint32_t lane, uint64_t n = 1) { lanes_[lane].pending += n; }
  void Increment(uint32_t lane) { ++lanes_[lane].pending; }

  // Fold point: drains every lane into the sink counter. Must run while all
  // writers are quiesced (the epoch barrier's serial section, or after the
  // run joins).
  void Fold() {
    uint64_t total = 0;
    for (Lane& lane : lanes_) {
      total += lane.pending;
      lane.pending = 0;
    }
    if (total != 0) {
      sink_.Add(total);
    }
  }

  uint32_t lane_count() const { return static_cast<uint32_t>(lanes_.size()); }
  bool resolved() const { return sink_.resolved(); }

 private:
  struct alignas(64) Lane {
    uint64_t pending = 0;
  };
  CounterHandle sink_;
  std::vector<Lane> lanes_;
};

// Fixed-bucket histogram over int64 samples (latencies in nanoseconds, byte
// sizes...). Buckets are cumulative-upper-bound style: sample x lands in the
// first bucket with x <= bound; samples above the last bound land in the
// implicit +inf bucket. Bounds are fixed at registration, so the dump is a
// stable vector of integers — deterministic by construction.
class HistogramMetric {
 public:
  explicit HistogramMetric(std::vector<int64_t> bounds);

  void Record(int64_t value);

  uint64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return count_ == 0 ? 0 : max_; }
  const std::vector<int64_t>& bounds() const { return bounds_; }
  // bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<uint64_t>& bucket_counts() const { return counts_; }

  // Linear-interpolated value at quantile q in [0, 1] from the bucket counts.
  int64_t Percentile(double q) const;

 private:
  std::vector<int64_t> bounds_;   // Strictly increasing.
  std::vector<uint64_t> counts_;  // bounds_.size() + 1.
  uint64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

inline void HistogramHandle::Record(int64_t value) {
  assert(histogram_ != nullptr);
  histogram_->Record(value);
}

// Default histogram bounds for simulated durations, in nanoseconds: 1 us to
// 1 s, roughly 1-2-5 per decade.
const std::vector<int64_t>& DefaultDurationBoundsNs();

class MetricsRegistry {
 public:
  // Callback metrics are sampled at snapshot time — the bridge for leaf
  // classes (BufferPool, QpCache, TxScheduler) that keep local counters and
  // have no Env of their own.
  using Callback = std::function<uint64_t()>;
  // Gauge callback: sampled at snapshot time and rendered with fixed
  // six-decimal formatting (used for derived ratios like slo_burn_rate that
  // must never go stale in a snapshot).
  using GaugeCallback = std::function<double()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Each getter registers on first use and returns the existing instrument on
  // subsequent calls with the same (name, labels) key. Re-using a key with a
  // different instrument type is a programming error (asserted).
  CounterMetric& Counter(const std::string& name, const MetricLabels& labels = {});
  HistogramMetric& Histogram(const std::string& name, const MetricLabels& labels = {},
                             const std::vector<int64_t>& bounds = DefaultDurationBoundsNs());

  // Handle resolution: same registration semantics as the reference getters
  // above (first call creates the instrument, later calls return the same
  // entry), but the result is a raw-word handle for hot paths. The string API
  // and a handle resolved for the same (name, labels) observe the same
  // underlying value — asserted by tests/metrics_test.cc.
  CounterHandle ResolveCounter(const std::string& name, const MetricLabels& labels = {}) {
    return CounterHandle(&Counter(name, labels).value_);
  }
  HistogramHandle ResolveHistogram(const std::string& name, const MetricLabels& labels = {},
                                   const std::vector<int64_t>& bounds =
                                       DefaultDurationBoundsNs()) {
    return HistogramHandle(&Histogram(name, labels, bounds));
  }
  // Lane-split counter for parallel drain workers: same registration
  // semantics as ResolveCounter, with one unsynchronized accumulator per
  // worker folded into the shared value at each epoch barrier.
  CounterLanes ResolveCounterLanes(const std::string& name, uint32_t lane_count,
                                   const MetricLabels& labels = {}) {
    return CounterLanes(ResolveCounter(name, labels), lane_count);
  }

  // Registers (or replaces) a callback sampled at snapshot time; rendered
  // like a counter.
  void RegisterCallback(const std::string& name, const MetricLabels& labels, Callback fn);

  // Registers (or replaces) a gauge callback sampled at snapshot time;
  // rendered like a gauge.
  void RegisterGaugeCallback(const std::string& name, const MetricLabels& labels,
                             GaugeCallback fn);

  // Current integer value of a counter or callback instrument; 0 when the key
  // is absent (or names a gauge callback or histogram). Lets experiment
  // harnesses read per-tenant counters back out instead of spelunking
  // component accessors.
  uint64_t ValueOf(const std::string& name, const MetricLabels& labels = {}) const;

  // One "name{labels} ..." line per instrument, sorted by key. Counters and
  // callbacks render their integer value; gauge callbacks render with six
  // decimals; histograms render count/sum/min/max plus the bucket vector.
  std::string SnapshotText() const;

  // The same snapshot as a sorted JSON array of
  // {"name","labels":{...},"type","..."} objects.
  std::string SnapshotJson() const;

  size_t size() const { return entries_.size(); }

 private:
  enum class Kind : uint8_t { kCounter, kHistogram, kCallback, kGaugeCallback };

  struct Entry {
    Kind kind = Kind::kCounter;
    std::string name;
    MetricLabels labels;
    std::unique_ptr<CounterMetric> counter;
    std::unique_ptr<HistogramMetric> histogram;
    Callback callback;
    GaugeCallback gauge_callback;
  };

  Entry& GetOrCreate(const std::string& name, const MetricLabels& labels, Kind kind);

  // Key = name + rendered labels; std::map keeps snapshots sorted.
  std::map<std::string, Entry> entries_;
};

}  // namespace nadino

#endif  // SRC_SIM_METRICS_H_
