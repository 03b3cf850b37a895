#include "src/sim/metrics.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace nadino {

namespace {

void AppendLabel(std::string* out, const char* key, int64_t value) {
  if (value == MetricLabels::kUnset) {
    return;
  }
  if (out->size() > 1) {
    *out += ',';
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s=%lld", key, static_cast<long long>(value));
  *out += buf;
}

std::string FormatU64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

std::string FormatI64(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return buf;
}

// Fixed-precision gauge formatting keeps snapshots byte-stable across runs.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

std::string MetricLabels::Render() const {
  if (tenant == kUnset && node == kUnset && engine == kUnset) {
    return "";
  }
  std::string out = "{";
  AppendLabel(&out, "engine", engine);
  AppendLabel(&out, "node", node);
  AppendLabel(&out, "tenant", tenant);
  out += '}';
  return out;
}

// ---------------------------------------------------------------------------
// HistogramMetric
// ---------------------------------------------------------------------------

HistogramMetric::HistogramMetric(std::vector<int64_t> bounds) : bounds_(std::move(bounds)) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
  counts_.assign(bounds_.size() + 1, 0);
}

void HistogramMetric::Record(int64_t value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++counts_[static_cast<size_t>(it - bounds_.begin())];
  if (count_ == 0 || value < min_) {
    min_ = value;
  }
  if (count_ == 0 || value > max_) {
    max_ = value;
  }
  sum_ += value;
  ++count_;
}

int64_t HistogramMetric::Percentile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      if (i >= bounds_.size()) {
        return max_;  // Overflow bucket: best estimate is the observed max.
      }
      const int64_t hi = std::min(bounds_[i], max_);
      const int64_t lo = std::max(i == 0 ? int64_t{0} : bounds_[i - 1], min_);
      return std::max(lo, std::min(hi, lo + (hi - lo) / 2));
    }
  }
  return max_;
}

const std::vector<int64_t>& DefaultDurationBoundsNs() {
  static const std::vector<int64_t> kBounds = {
      1'000,       2'000,       5'000,        10'000,       20'000,      50'000,
      100'000,     200'000,     500'000,      1'000'000,    2'000'000,   5'000'000,
      10'000'000,  20'000'000,  50'000'000,   100'000'000,  200'000'000, 500'000'000,
      1'000'000'000};
  return kBounds;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry::Entry& MetricsRegistry::GetOrCreate(const std::string& name,
                                                     const MetricLabels& labels, Kind kind) {
  const std::string key = name + labels.Render();
  auto [it, inserted] = entries_.try_emplace(key);
  Entry& entry = it->second;
  if (inserted) {
    entry.kind = kind;
    entry.name = name;
    entry.labels = labels;
  } else {
    assert(entry.kind == kind && "metric key re-registered with a different type");
  }
  return entry;
}

CounterMetric& MetricsRegistry::Counter(const std::string& name, const MetricLabels& labels) {
  Entry& entry = GetOrCreate(name, labels, Kind::kCounter);
  if (entry.counter == nullptr) {
    entry.counter = std::make_unique<CounterMetric>();
  }
  return *entry.counter;
}

HistogramMetric& MetricsRegistry::Histogram(const std::string& name, const MetricLabels& labels,
                                            const std::vector<int64_t>& bounds) {
  Entry& entry = GetOrCreate(name, labels, Kind::kHistogram);
  if (entry.histogram == nullptr) {
    entry.histogram = std::make_unique<HistogramMetric>(bounds);
  }
  return *entry.histogram;
}

void MetricsRegistry::RegisterCallback(const std::string& name, const MetricLabels& labels,
                                       Callback fn) {
  Entry& entry = GetOrCreate(name, labels, Kind::kCallback);
  entry.callback = std::move(fn);
}

void MetricsRegistry::RegisterGaugeCallback(const std::string& name, const MetricLabels& labels,
                                            GaugeCallback fn) {
  Entry& entry = GetOrCreate(name, labels, Kind::kGaugeCallback);
  entry.gauge_callback = std::move(fn);
}

uint64_t MetricsRegistry::ValueOf(const std::string& name, const MetricLabels& labels) const {
  const auto it = entries_.find(name + labels.Render());
  if (it == entries_.end()) {
    return 0;
  }
  const Entry& entry = it->second;
  switch (entry.kind) {
    case Kind::kCounter:
      return entry.counter->value();
    case Kind::kCallback:
      return entry.callback ? entry.callback() : 0;
    case Kind::kGaugeCallback:
    case Kind::kHistogram:
      return 0;
  }
  return 0;
}

std::string MetricsRegistry::SnapshotText() const {
  std::string out;
  for (const auto& [key, entry] : entries_) {
    out += key;
    out += ' ';
    switch (entry.kind) {
      case Kind::kCounter:
        out += FormatU64(entry.counter->value());
        break;
      case Kind::kCallback:
        out += FormatU64(entry.callback ? entry.callback() : 0);
        break;
      case Kind::kGaugeCallback:
        out += FormatDouble(entry.gauge_callback ? entry.gauge_callback() : 0.0);
        break;
      case Kind::kHistogram: {
        const HistogramMetric& h = *entry.histogram;
        out += "count=" + FormatU64(h.count()) + " sum=" + FormatI64(h.sum()) +
               " min=" + FormatI64(h.min()) + " max=" + FormatI64(h.max()) + " buckets=";
        for (size_t i = 0; i < h.bucket_counts().size(); ++i) {
          if (i > 0) {
            out += ',';
          }
          out += FormatU64(h.bucket_counts()[i]);
        }
        break;
      }
    }
    out += '\n';
  }
  return out;
}

namespace {

void AppendJsonLabels(std::string* out, const MetricLabels& labels) {
  *out += "\"labels\":{";
  bool first = true;
  const auto add = [&](const char* key, int64_t value) {
    if (value == MetricLabels::kUnset) {
      return;
    }
    if (!first) {
      *out += ',';
    }
    first = false;
    *out += '"';
    *out += key;
    *out += "\":" + FormatI64(value);
  };
  add("engine", labels.engine);
  add("node", labels.node);
  add("tenant", labels.tenant);
  *out += '}';
}

}  // namespace

std::string MetricsRegistry::SnapshotJson() const {
  std::string out = "[\n";
  bool first_entry = true;
  for (const auto& [key, entry] : entries_) {
    if (!first_entry) {
      out += ",\n";
    }
    first_entry = false;
    out += "  {\"name\":\"" + entry.name + "\",";
    AppendJsonLabels(&out, entry.labels);
    out += ',';
    switch (entry.kind) {
      case Kind::kCounter:
        out += "\"type\":\"counter\",\"value\":" + FormatU64(entry.counter->value());
        break;
      case Kind::kCallback:
        out += "\"type\":\"counter\",\"value\":" +
               FormatU64(entry.callback ? entry.callback() : 0);
        break;
      case Kind::kGaugeCallback:
        out += "\"type\":\"gauge\",\"value\":" +
               FormatDouble(entry.gauge_callback ? entry.gauge_callback() : 0.0);
        break;
      case Kind::kHistogram: {
        const HistogramMetric& h = *entry.histogram;
        out += "\"type\":\"histogram\",\"count\":" + FormatU64(h.count()) +
               ",\"sum\":" + FormatI64(h.sum()) + ",\"min\":" + FormatI64(h.min()) +
               ",\"max\":" + FormatI64(h.max()) + ",\"bounds\":[";
        for (size_t i = 0; i < h.bounds().size(); ++i) {
          if (i > 0) {
            out += ',';
          }
          out += FormatI64(h.bounds()[i]);
        }
        out += "],\"buckets\":[";
        for (size_t i = 0; i < h.bucket_counts().size(); ++i) {
          if (i > 0) {
            out += ',';
          }
          out += FormatU64(h.bucket_counts()[i]);
        }
        out += ']';
        break;
      }
    }
    out += '}';
  }
  out += "\n]\n";
  return out;
}

}  // namespace nadino
