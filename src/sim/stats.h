// Statistics collection: log-bucketed latency histograms and time series samplers used by the benchmark harnesses.

#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <cstdint>
#include <vector>

#include "src/sim/time.h"

namespace nadino {

// Latency histogram with logarithmic buckets (HdrHistogram-style, base-2 with
// linear sub-buckets). Records SimDuration values; supports percentile query
// with bounded relative error (~1.6% at 64 sub-buckets).
class LatencyHistogram {
 public:
  LatencyHistogram();

  void Record(SimDuration value);
  void Merge(const LatencyHistogram& other);

  uint64_t count() const { return count_; }
  SimDuration min() const { return count_ == 0 ? 0 : min_; }
  SimDuration max() const { return count_ == 0 ? 0 : max_; }
  double MeanUs() const;

  // Value at quantile q in [0, 1], e.g. Percentile(0.99).
  SimDuration Percentile(double q) const;

  void Reset();

 private:
  static constexpr int kSubBucketBits = 6;  // 64 linear sub-buckets per octave.
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kOctaves = 40;  // Covers ~18 minutes in nanoseconds.

  static int BucketIndex(SimDuration value);
  static SimDuration BucketMidpoint(int index);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  SimDuration min_ = 0;
  SimDuration max_ = 0;
};

// Records (virtual time, value) samples, e.g. per-second RPS or CPU usage.
class TimeSeries {
 public:
  struct Sample {
    SimTime at = 0;
    double value = 0.0;
  };

  void Record(SimTime at, double value) { samples_.push_back({at, value}); }
  const std::vector<Sample>& samples() const { return samples_; }
  bool empty() const { return samples_.empty(); }

  // Mean of values recorded in [from, to).
  double MeanInWindow(SimTime from, SimTime to) const;

 private:
  std::vector<Sample> samples_;
};

// Tracks throughput as completed-operations-per-second between Roll() calls.
// Call RecordCompletion() per finished op; Roll(now) closes the window that
// started at the previous Roll (or t=0) and records the rate.
class RateMeter {
 public:
  void RecordCompletion(uint64_t n = 1) { in_window_ += n; }

  // Closes the window at `now` and returns ops/sec over the actual elapsed
  // time since the previous roll. A zero-width roll (now <= last roll) is a
  // no-op returning 0.0: it records no sample and leaves the open window's
  // completions for the next real roll to account.
  double Roll(SimTime now);

  const TimeSeries& series() const { return series_; }
  uint64_t total() const { return total_; }
  // Completions counted since the last roll (the still-open window) and the
  // instant that window opened; PeriodicSampler::Stop() uses these to flush
  // the final partial window instead of dropping it.
  uint64_t in_window() const { return in_window_; }
  SimTime last_roll() const { return last_roll_; }

 private:
  SimTime last_roll_ = 0;
  uint64_t in_window_ = 0;
  uint64_t total_ = 0;
  TimeSeries series_;
};

}  // namespace nadino

#endif  // SRC_SIM_STATS_H_
