// Every Run* entry point at zero run length: set-up only, no measured window.
// Rates must come back as finite zeros (not 0/0 = NaN) and latencies finite,
// so a caller timing set-up cost (or a sweep that reaches zero) gets numbers
// it can print and compare.

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/experiments.h"

namespace nadino {
namespace {

void ExpectZeroRate(double rate, const char* what) {
  EXPECT_TRUE(std::isfinite(rate)) << what;
  EXPECT_EQ(rate, 0.0) << what;
}

void ExpectFinite(double value, const char* what) { EXPECT_TRUE(std::isfinite(value)) << what; }

void ExpectZeroEcho(const EchoResult& r, const char* what) {
  ExpectZeroRate(r.rps, what);
  ExpectFinite(r.mean_latency_us, what);
  ExpectFinite(r.p99_latency_us, what);
  EXPECT_EQ(r.completed, 0u) << what;
}

TEST(ExperimentsZeroLengthTest, EchoExperiments) {
  DneEchoOptions dne;
  dne.warmup = 0;
  dne.duration = 0;
  ExpectZeroEcho(RunDneEcho(CostModel::Default(), dne), "dne engines");
  dne.via_functions = true;
  ExpectZeroEcho(RunDneEcho(CostModel::Default(), dne), "dne functions");

  NativeEchoOptions native;
  native.warmup = 0;
  native.duration = 0;
  ExpectZeroEcho(RunNativeRdmaEcho(CostModel::Default(), native), "native");

  OneSidedEchoOptions one_sided;
  one_sided.warmup = 0;
  one_sided.duration = 0;
  ExpectZeroEcho(RunOneSidedEcho(CostModel::Default(), one_sided), "one-sided");
}

TEST(ExperimentsZeroLengthTest, ComchBench) {
  ComchBenchOptions options;
  options.warmup = 0;
  options.duration = 0;
  const ComchBenchResult r = RunComchBench(CostModel::Default(), options);
  ExpectZeroRate(r.descriptor_rps, "comch");
  ExpectFinite(r.mean_rtt_us, "comch rtt");
}

TEST(ExperimentsZeroLengthTest, IngressEcho) {
  for (const IngressMode mode :
       {IngressMode::kNadino, IngressMode::kFIngress, IngressMode::kKIngress}) {
    IngressEchoOptions options;
    options.mode = mode;
    options.warmup = 0;
    options.duration = 0;
    const IngressEchoResult r = RunIngressEcho(CostModel::Default(), options);
    ExpectZeroRate(r.rps, "ingress");
    ExpectFinite(r.mean_latency_us, "ingress mean");
    ExpectFinite(r.p99_latency_us, "ingress p99");
  }
}

TEST(ExperimentsZeroLengthTest, MultiTenant) {
  MultiTenantOptions options;
  options.duration = 0;
  options.tenants = {{1, 6, 0, 0, 64, 1024}, {2, 1, 0, 0, 64, 1024}};
  const MultiTenantResult r = RunMultiTenant(CostModel::Default(), options);
  ExpectZeroRate(r.aggregate_rps, "multi-tenant");
}

TEST(ExperimentsZeroLengthTest, Boutique) {
  for (const SystemUnderTest system : {SystemUnderTest::kNadinoDne, SystemUnderTest::kSpright}) {
    BoutiqueOptions options;
    options.system = system;
    options.warmup = 0;
    options.duration = 0;
    const BoutiqueResult r = RunBoutique(CostModel::Default(), options);
    ExpectZeroRate(r.rps, "boutique");
    ExpectFinite(r.mean_latency_ms, "boutique mean");
    ExpectFinite(r.p99_latency_ms, "boutique p99");
    ExpectFinite(r.dataplane_cpu_cores, "boutique cores");
    ExpectFinite(r.dpu_cores, "boutique dpu cores");
  }
}

TEST(ExperimentsZeroLengthTest, NodeScale) {
  NodeScaleOptions options;
  options.duration = 0;
  const NodeScaleResult r = RunNodeScale(CostModel::Default(), options);
  ExpectZeroRate(r.rps, "node scale");
  ExpectFinite(r.mean_latency_us, "node scale mean");
  ExpectFinite(r.replica_skew, "node scale skew");
}

TEST(ExperimentsZeroLengthTest, TenantChurn) {
  TenantChurnOptions options;
  options.duration = 0;
  const TenantChurnResult r = RunTenantChurn(CostModel::Default(), options);
  EXPECT_EQ(r.completed, 0u);
  ExpectZeroRate(r.verbs_per_invocation, "churn verbs per invocation");
  ExpectFinite(r.ttfb_mean_ms, "churn ttfb mean");
  ExpectFinite(r.ttfb_p99_ms, "churn ttfb p99");
}

TEST(ExperimentsZeroLengthTest, OpenLoopScale) {
  OpenLoopScaleOptions options;
  options.horizon = 0;
  options.drain = 0;
  const OpenLoopScaleResult r = RunOpenLoopScale(CostModel::Default(), options);
  ExpectZeroRate(r.offered_rps, "open loop offered");
  ExpectZeroRate(r.goodput_rps, "open loop goodput");
  ExpectFinite(r.mean_latency_us, "open loop mean");
}

TEST(ExperimentsZeroLengthTest, ParallelDrain) {
  ParallelDrainOptions options;
  options.nodes = 2;
  options.horizon = 0;
  options.drain = 0;
  const ParallelDrainResult r = RunParallelDrain(CostModel::Default(), options);
  ExpectZeroRate(r.goodput_rps, "parallel drain");
  ExpectFinite(r.mean_latency_us, "parallel drain mean");
}

TEST(ExperimentsZeroLengthTest, ChainOffload) {
  for (const bool offload : {false, true}) {
    ChainOffloadOptions options;
    options.offload = offload;
    options.duration = 0;
    const ChainOffloadResult r = RunChainOffload(CostModel::Default(), options);
    ExpectZeroRate(r.rps, "chain offload");
    ExpectFinite(r.per_hop_latency_us, "chain offload per hop");
  }
}

}  // namespace
}  // namespace nadino
