// Unit tests for the MetricsRegistry: label rendering, instrument semantics,
// callback sampling, ValueOf lookups, sorted deterministic snapshots, and the
// strict test-side reader every counter assertion goes through.

#include "src/sim/metrics.h"

#include <gtest/gtest.h>
#include <gtest/gtest-spi.h>

#include "src/core/env.h"
#include "tests/registry_read.h"

namespace nadino {
namespace {

TEST(MetricLabelsTest, RenderIsAlphabeticalAndOmitsUnset) {
  MetricLabels all;
  all.tenant = 2;
  all.node = 1;
  all.engine = 1000;
  EXPECT_EQ(all.Render(), "{engine=1000,node=1,tenant=2}");
  EXPECT_EQ(MetricLabels{}.Render(), "");
  EXPECT_EQ(MetricLabels::Tenant(7).Render(), "{tenant=7}");
  EXPECT_EQ(MetricLabels::Node(3).Render(), "{node=3}");
  EXPECT_EQ(MetricLabels::Engine(42).Render(), "{engine=42}");
}

TEST(MetricsRegistryTest, CounterIsStableAcrossLookups) {
  MetricsRegistry registry;
  registry.Counter("requests").Add(3);
  registry.Counter("requests").Increment();
  EXPECT_EQ(registry.Counter("requests").value(), 4u);
  // A different label set is a different instrument.
  registry.Counter("requests", MetricLabels::Tenant(1)).Add(10);
  EXPECT_EQ(registry.Counter("requests").value(), 4u);
  EXPECT_EQ(registry.Counter("requests", MetricLabels::Tenant(1)).value(), 10u);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistryTest, HistogramBucketsAndPercentiles) {
  MetricsRegistry registry;
  HistogramMetric& h = registry.Histogram("lat", {}, {10, 100, 1000});
  for (int64_t v : {5, 50, 50, 500, 5000}) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 5605);
  EXPECT_EQ(h.min(), 5);
  EXPECT_EQ(h.max(), 5000);
  ASSERT_EQ(h.bucket_counts().size(), 4u);  // 3 bounds + overflow.
  EXPECT_EQ(h.bucket_counts()[0], 1u);
  EXPECT_EQ(h.bucket_counts()[1], 2u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_LE(h.Percentile(0.0), h.Percentile(0.5));
  EXPECT_LE(h.Percentile(0.5), h.Percentile(1.0));
}

TEST(MetricsRegistryTest, CallbackIsSampledAtSnapshotTime) {
  MetricsRegistry registry;
  uint64_t source = 1;
  registry.RegisterCallback("pool_in_use", {}, [&]() { return source; });
  EXPECT_EQ(registry.ValueOf("pool_in_use"), 1u);
  source = 99;
  EXPECT_EQ(registry.ValueOf("pool_in_use"), 99u);
  EXPECT_NE(registry.SnapshotText().find("pool_in_use 99"), std::string::npos);
}

TEST(MetricsRegistryTest, ValueOfHandlesAbsentAndNonIntegerKinds) {
  MetricsRegistry registry;
  registry.Counter("c").Add(7);
  registry.RegisterGaugeCallback("g", {}, [] { return 3.5; });
  registry.Histogram("h").Record(1);
  EXPECT_EQ(registry.ValueOf("c"), 7u);
  EXPECT_EQ(registry.ValueOf("c", MetricLabels::Tenant(1)), 0u);  // Other key.
  EXPECT_EQ(registry.ValueOf("missing"), 0u);
  EXPECT_EQ(registry.ValueOf("g"), 0u);
  EXPECT_EQ(registry.ValueOf("h"), 0u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByKey) {
  MetricsRegistry registry;
  registry.Counter("zeta").Add(1);
  registry.Counter("alpha").Add(2);
  registry.Counter("alpha", MetricLabels::Tenant(2)).Add(3);
  const std::string text = registry.SnapshotText();
  const size_t alpha = text.find("alpha ");
  const size_t alpha_t2 = text.find("alpha{tenant=2}");
  const size_t zeta = text.find("zeta");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(alpha_t2, std::string::npos);
  ASSERT_NE(zeta, std::string::npos);
  EXPECT_LT(alpha, alpha_t2);
  EXPECT_LT(alpha_t2, zeta);
}

TEST(MetricsRegistryTest, SnapshotJsonContainsTypedEntries) {
  MetricsRegistry registry;
  registry.Counter("c", MetricLabels::Node(1)).Add(4);
  registry.RegisterGaugeCallback("g", {}, [] { return 1.25; });
  const std::string json = registry.SnapshotJson();
  EXPECT_NE(json.find("\"name\":\"c\""), std::string::npos);
  EXPECT_NE(json.find("\"node\":1"), std::string::npos);
  EXPECT_NE(json.find("\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"gauge\",\"value\":1.250000"), std::string::npos);
}

// A gauge callback is sampled at snapshot time and rendered with six
// decimals in both formats.
TEST(MetricsRegistryTest, GaugeCallbackRendersWithSixDecimals) {
  MetricsRegistry registry;
  double source = 0.5;
  registry.RegisterGaugeCallback("ratio", MetricLabels::Tenant(2), [&] { return source; });
  EXPECT_NE(registry.SnapshotText().find("ratio{tenant=2} 0.500000\n"), std::string::npos);
  source = 2.125;
  EXPECT_NE(registry.SnapshotText().find("ratio{tenant=2} 2.125000\n"), std::string::npos);
  EXPECT_NE(registry.SnapshotJson().find("\"type\":\"gauge\",\"value\":2.125000"),
            std::string::npos);
}

// Handle fast path (DESIGN.md §3c): a handle resolved for (name, labels) and
// the string-API getter for the same key must observe the same underlying
// instrument, in both directions.
TEST(MetricsRegistryTest, CounterHandleAliasesStringApi) {
  MetricsRegistry registry;
  const MetricLabels labels = MetricLabels::Tenant(7);
  CounterHandle handle = registry.ResolveCounter("handled", labels);
  ASSERT_TRUE(handle.resolved());
  EXPECT_FALSE(CounterHandle{}.resolved());

  handle.Increment();
  handle.Add(4);
  EXPECT_EQ(registry.Counter("handled", labels).value(), 5u);
  EXPECT_EQ(registry.ValueOf("handled", labels), 5u);

  // And string-API writes are visible through the handle.
  registry.Counter("handled", labels).Add(10);
  EXPECT_EQ(handle.value(), 15u);

  // Resolving the same key again aliases the same word; a different label set
  // resolves a distinct instrument.
  CounterHandle again = registry.ResolveCounter("handled", labels);
  again.Increment();
  EXPECT_EQ(handle.value(), 16u);
  CounterHandle other = registry.ResolveCounter("handled", MetricLabels::Tenant(8));
  other.Increment();
  EXPECT_EQ(handle.value(), 16u);
  EXPECT_EQ(other.value(), 1u);
}

TEST(MetricsRegistryTest, HistogramHandleAliasesStringApi) {
  MetricsRegistry registry;
  HistogramHandle histogram = registry.ResolveHistogram("lat");
  histogram.Record(1000);
  histogram.Record(3000);
  EXPECT_EQ(registry.Histogram("lat").count(), 2u);
  EXPECT_EQ(registry.Histogram("lat").sum(), 4000);
  EXPECT_EQ(histogram.get()->count(), 2u);
}

// Handles survive later registrations: map entries are node-stable, so a
// handle resolved early still points at its instrument after the registry
// grows by hundreds of keys.
TEST(MetricsRegistryTest, HandlesStayValidAsRegistryGrows) {
  MetricsRegistry registry;
  CounterHandle early = registry.ResolveCounter("early");
  early.Increment();
  for (int i = 0; i < 500; ++i) {
    registry.Counter("filler_" + std::to_string(i)).Increment();
  }
  early.Add(2);
  EXPECT_EQ(registry.Counter("early").value(), 3u);
}

// The strict test-side reader (tests/registry_read.h). EXPECT_NONFATAL_FAILURE
// cannot see locals, so the registry under test is a function-local static.
const MetricsRegistry& StrictReadRegistry() {
  static MetricsRegistry registry;
  if (registry.size() == 0) {
    registry.Counter("zero", MetricLabels::Node(1));
    registry.Counter("sent", MetricLabels::Node(1)).Add(5);
    registry.Counter("sent", MetricLabels::Node(2)).Add(7);
    registry.Counter("sent_bytes", MetricLabels::Node(1)).Add(1000);
    registry.RegisterCallback("sampled", {}, [] { return uint64_t{9}; });
    registry.RegisterGaugeCallback("depth", {}, [] { return 2.0; });
  }
  return registry;
}

TEST(RegistryReadTest, AbsentKeyFailsInsteadOfReadingZero) {
  EXPECT_NONFATAL_FAILURE(RegistryCounter(StrictReadRegistry(), "zer0", MetricLabels::Node(1)),
                          "metric zer0{node=1} is not registered");
  EXPECT_NONFATAL_FAILURE(RegistryCounter(StrictReadRegistry(), "zero", MetricLabels::Node(2)),
                          "metric zero{node=2} is not registered");
  EXPECT_NONFATAL_FAILURE(RegistryCounter(StrictReadRegistry(), "zero"),
                          "metric zero is not registered");
  EXPECT_NONFATAL_FAILURE(RegistryCounter(StrictReadRegistry(), "depth"),
                          "metric depth is not a counter");
  EXPECT_NONFATAL_FAILURE(RegistryCounterSum(StrictReadRegistry(), "sen"),
                          "no metric named sen is registered");
}

TEST(RegistryReadTest, RegisteredKeysReadTheirValue) {
  // A registered zero-valued counter is a real zero, not a failure.
  EXPECT_EQ(RegistryCounter(StrictReadRegistry(), "zero", MetricLabels::Node(1)), 0u);
  EXPECT_EQ(RegistryCounter(StrictReadRegistry(), "sent", MetricLabels::Node(2)), 7u);
  EXPECT_EQ(RegistryCounter(StrictReadRegistry(), "sampled"), 9u);
  // The sum spans label sets but not names that merely share a prefix.
  EXPECT_EQ(RegistryCounterSum(StrictReadRegistry(), "sent"), 12u);
  EXPECT_TRUE(RegistryHas(StrictReadRegistry(), "zero", MetricLabels::Node(1)));
  EXPECT_FALSE(RegistryHas(StrictReadRegistry(), "zero", MetricLabels::Node(2)));
}

TEST(EnvTest, RngIsSeedDeterministic) {
  Simulator sim_a;
  Simulator sim_b;
  CostModel cost = CostModel::Default();
  Env a{&sim_a, &cost, 1234};
  Env b{&sim_b, &cost, 1234};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.rng().NextU64(), b.rng().NextU64());
  }
  Env c{&sim_a, &cost, 5678};
  Env d{&sim_b, &cost, 1234};
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    if (c.rng().NextU64() != d.rng().NextU64()) {
      diverged = true;
    }
  }
  EXPECT_TRUE(diverged);
}

}  // namespace
}  // namespace nadino
