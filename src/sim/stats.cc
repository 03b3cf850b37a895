#include "src/sim/stats.h"

#include <algorithm>
#include <bit>

namespace nadino {

LatencyHistogram::LatencyHistogram() : buckets_(kOctaves * kSubBuckets, 0) {}

int LatencyHistogram::BucketIndex(SimDuration value) {
  if (value < 0) {
    value = 0;
  }
  const auto v = static_cast<uint64_t>(value);
  if (v < kSubBuckets) {
    return static_cast<int>(v);
  }
  const int msb = 63 - std::countl_zero(v);
  const int octave = msb - kSubBucketBits + 1;
  const int sub = static_cast<int>(v >> octave) - (kSubBuckets >> 1);
  int index = octave * (kSubBuckets >> 1) + (kSubBuckets >> 1) + sub;
  return std::min(index, kOctaves * kSubBuckets - 1);
}

SimDuration LatencyHistogram::BucketMidpoint(int index) {
  const int half = kSubBuckets >> 1;
  if (index < kSubBuckets) {
    return index;
  }
  const int octave = (index - half) / half;
  const int sub = (index - half) % half + half;
  return (static_cast<SimDuration>(sub) << octave) + (SimDuration{1} << (octave - 1));
}

void LatencyHistogram::Record(SimDuration value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  sum_ += static_cast<double>(value);
  ++count_;
  ++buckets_[static_cast<size_t>(BucketIndex(value))];
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
}

double LatencyHistogram::MeanUs() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_) / kMicrosecond;
}

SimDuration LatencyHistogram::Percentile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      return std::clamp(BucketMidpoint(static_cast<int>(i)), min_, max_);
    }
  }
  return max_;
}

void LatencyHistogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0;
  max_ = 0;
}

double TimeSeries::MeanInWindow(SimTime from, SimTime to) const {
  double sum = 0.0;
  uint64_t n = 0;
  for (const Sample& s : samples_) {
    if (s.at >= from && s.at < to) {
      sum += s.value;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double RateMeter::Roll(SimTime now) {
  const double seconds = ToSeconds(now - last_roll_);
  if (seconds <= 0.0) {
    // Zero-width window: a roll at (or before) the previous roll instant has
    // no elapsed time to average over. Recording would fabricate a 0.0-rate
    // sample AND swallow any completions already counted into the window
    // (they would fold into total_ without ever appearing in the series), so
    // a degenerate roll is a no-op: the pending window stays open and the
    // next real roll accounts for it.
    return 0.0;
  }
  const double rate = static_cast<double>(in_window_) / seconds;
  series_.Record(now, rate);
  total_ += in_window_;
  in_window_ = 0;
  last_roll_ = now;
  return rate;
}

}  // namespace nadino
