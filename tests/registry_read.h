// Strict MetricsRegistry reads for tests.
//
// MetricsRegistry::ValueOf returns 0 for a key that was never registered, so
// a misspelt name or label set would let `EXPECT_EQ(..., 0u)` pass without
// testing anything. These helpers find the key in SnapshotText() first and
// record a gtest failure when `name{labels}` is absent or is not an integer
// (counter or callback) instrument.

#ifndef TESTS_REGISTRY_READ_H_
#define TESTS_REGISTRY_READ_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/sim/metrics.h"

namespace nadino {

namespace registry_read_internal {

// Calls fn(key, value) for each "key value" line of a SnapshotText().
template <typename Fn>
void ForEachLine(const std::string& snapshot, Fn fn) {
  size_t at = 0;
  while (at < snapshot.size()) {
    size_t end = snapshot.find('\n', at);
    if (end == std::string::npos) {
      end = snapshot.size();
    }
    const size_t space = snapshot.find(' ', at);
    if (space < end) {
      fn(snapshot.substr(at, space - at), snapshot.substr(space + 1, end - space - 1));
    }
    at = end + 1;
  }
}

inline bool IsInteger(const std::string& value) {
  return !value.empty() && value.find_first_not_of("0123456789") == std::string::npos;
}

// Copies the rendered value of `key` into `value`; false when no instrument
// is registered under exactly that key.
inline bool Find(const MetricsRegistry& registry, const std::string& key, std::string* value) {
  bool found = false;
  ForEachLine(registry.SnapshotText(), [&](const std::string& k, const std::string& v) {
    if (k == key) {
      found = true;
      *value = v;
    }
  });
  return found;
}

}  // namespace registry_read_internal

// True when an instrument is registered under exactly `name{labels}`. Only
// for asserting that a lazily created counter does not exist yet; pair it
// with a RegistryCounter read of the same key so a misspelling cannot pass.
inline bool RegistryHas(const MetricsRegistry& registry, const std::string& name,
                        const MetricLabels& labels = {}) {
  std::string value;
  return registry_read_internal::Find(registry, name + labels.Render(), &value);
}

// Value of the counter or callback `name{labels}`. Records a non-fatal
// failure and returns 0 when the key is not registered or names a gauge or
// histogram.
inline uint64_t RegistryCounter(const MetricsRegistry& registry, const std::string& name,
                                const MetricLabels& labels = {}) {
  const std::string key = name + labels.Render();
  std::string value;
  if (!registry_read_internal::Find(registry, key, &value)) {
    ADD_FAILURE() << "metric " << key << " is not registered";
    return 0;
  }
  if (!registry_read_internal::IsInteger(value)) {
    ADD_FAILURE() << "metric " << key << " is not a counter (renders as \"" << value << "\")";
    return 0;
  }
  return registry.ValueOf(name, labels);
}

// Sum of every counter or callback named `name`, across all label sets.
// Records a non-fatal failure when no instrument carries that name.
inline uint64_t RegistryCounterSum(const MetricsRegistry& registry, const std::string& name) {
  uint64_t total = 0;
  bool found = false;
  registry_read_internal::ForEachLine(
      registry.SnapshotText(), [&](const std::string& k, const std::string& v) {
        if (k != name && k.rfind(name + '{', 0) != 0) {
          return;
        }
        found = true;
        if (registry_read_internal::IsInteger(v)) {
          total += std::stoull(v);
        } else {
          ADD_FAILURE() << "metric " << k << " is not a counter (renders as \"" << v << "\")";
        }
      });
  if (!found) {
    ADD_FAILURE() << "no metric named " << name << " is registered";
  }
  return total;
}

}  // namespace nadino

#endif  // TESTS_REGISTRY_READ_H_
