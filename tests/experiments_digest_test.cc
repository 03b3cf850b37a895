// Behaviour oracle for the Run* variants that no bench golden pins. Each case
// runs one experiment at a short run length and compares two FNV-1a digests
// against values recorded before the experiment assembly was refactored: one
// over the result's metrics_json and one over its headline fields (doubles
// printed with %.17g, so any bit of drift shows). A refactor of the harness
// must leave every digest unmoved; a change that moves one on purpose must
// say why. The `events` headline fields count no RDMA ACK timeouts that the
// ACK cancelled (those used to fire as no-ops), and two events per fabric
// crossing (its arrival at the downlink and its delivery) where the
// event-per-stage links took five. The metrics_json digests of every variant
// with an RNIC were re-pinned when the always-zero rnic_reads{node} rows left
// the snapshot (no READ verb is modelled); no headline digest moved.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "src/core/experiments.h"

namespace nadino {
namespace {

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// Headline fields rendered as "name=value " pairs.
class Headline {
 public:
  Headline& Add(const char* name, double value) {
    char text[64];
    std::snprintf(text, sizeof(text), "%s=%.17g ", name, value);
    text_ += text;
    return *this;
  }
  Headline& Add(const char* name, uint64_t value) {
    char text[64];
    std::snprintf(text, sizeof(text), "%s=%" PRIu64 " ", name, value);
    text_ += text;
    return *this;
  }
  Headline& Add(const char* name, const TimeSeries& series) {
    for (const auto& sample : series.samples()) {
      Add(name, static_cast<uint64_t>(sample.at)).Add(name, sample.value);
    }
    return *this;
  }
  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

struct Expected {
  uint64_t json;
  uint64_t headline;
};

void ExpectDigests(const std::string& name, const std::string& metrics_json,
                   const Headline& headline, const Expected& expected) {
  const uint64_t json = Fnv1a(metrics_json);
  const uint64_t head = Fnv1a(headline.text());
  EXPECT_EQ(json, expected.json) << name << " metrics_json digest 0x" << std::hex << json;
  EXPECT_EQ(head, expected.headline)
      << name << " headline digest 0x" << std::hex << head << std::dec << ": "
      << headline.text();
}

Headline EchoHeadline(const EchoResult& r) {
  Headline h;
  h.Add("mean", r.mean_latency_us).Add("p99", r.p99_latency_us).Add("rps", r.rps);
  h.Add("completed", r.completed);
  return h;
}

TEST(ExperimentsDigestTest, NativeRdmaEchoHostAndDpuCores) {
  NativeEchoOptions options;
  options.concurrency = 4;
  options.warmup = 2 * kMillisecond;
  options.duration = 10 * kMillisecond;
  const EchoResult host = RunNativeRdmaEcho(CostModel::Default(), options);
  ExpectDigests("native host", host.metrics_json, EchoHeadline(host),
                {0x72bf35c663f7a11bull, 0x54acfb9236b21e28ull});
  options.on_dpu_cores = true;
  const EchoResult dpu = RunNativeRdmaEcho(CostModel::Default(), options);
  ExpectDigests("native dpu", dpu.metrics_json, EchoHeadline(dpu),
                {0x8416f715c34ddc7dull, 0x55bb2f35326242beull});
}

TEST(ExperimentsDigestTest, OneSidedEchoVariants) {
  OneSidedEchoOptions options;
  options.payload = 4096;
  options.concurrency = 4;
  options.warmup = 2 * kMillisecond;
  options.duration = 10 * kMillisecond;
  const struct {
    OneSidedVariant variant;
    const char* name;
    Expected expected;
  } cases[] = {
      {OneSidedVariant::kOwrcBest, "owrc-best", {0xc808b6f2854c1ff0ull, 0x9818a2a8f9b9932cull}},
      {OneSidedVariant::kOwrcWorst, "owrc-worst", {0xd146d87196440b60ull, 0xbbb2f7852a476dd6ull}},
      {OneSidedVariant::kOwdl, "owdl", {0xced905849e8ef9e6ull, 0x9141769d8efe0a00ull}},
  };
  for (const auto& c : cases) {
    options.variant = c.variant;
    const EchoResult r = RunOneSidedEcho(CostModel::Default(), options);
    ExpectDigests(c.name, r.metrics_json, EchoHeadline(r), c.expected);
  }
}

TEST(ExperimentsDigestTest, DneEchoCneAndOnPath) {
  DneEchoOptions options;
  options.concurrency = 4;
  options.warmup = 2 * kMillisecond;
  options.duration = 10 * kMillisecond;
  options.kind = NetworkEngine::Kind::kCne;
  const EchoResult cne = RunDneEcho(CostModel::Default(), options);
  ExpectDigests("cne", cne.metrics_json, EchoHeadline(cne),
                {0x8962f8c4fe0e1eddull, 0xd5ebb1598167e2a2ull});
  options.kind = NetworkEngine::Kind::kDne;
  options.on_path = true;
  const EchoResult on_path = RunDneEcho(CostModel::Default(), options);
  ExpectDigests("on-path", on_path.metrics_json, EchoHeadline(on_path),
                {0xe42ff0bfbd9f1ed3ull, 0xbce7a28b97917be6ull});
}

TEST(ExperimentsDigestTest, IngressEchoFAndKIngress) {
  IngressEchoOptions options;
  options.clients = 8;
  options.warmup = 5 * kMillisecond;
  options.duration = 20 * kMillisecond;
  options.sample_period = 5 * kMillisecond;
  const struct {
    IngressMode mode;
    const char* name;
    Expected expected;
  } cases[] = {
      {IngressMode::kFIngress, "f-ingress", {0x68cb594f946ebf48ull, 0x80d5a658b3ec92c6ull}},
      {IngressMode::kKIngress, "k-ingress", {0x3f02240d26cf2883ull, 0x26c69b7d89a4efe3ull}},
  };
  for (const auto& c : cases) {
    options.mode = c.mode;
    const IngressEchoResult r = RunIngressEcho(CostModel::Default(), options);
    Headline h;
    h.Add("mean", r.mean_latency_us).Add("p99", r.p99_latency_us).Add("rps", r.rps);
    h.Add("cpu", r.cpu_series).Add("rps_series", r.rps_series);
    h.Add("ups", r.scale_ups).Add("downs", r.scale_downs);
    h.Add("workers", static_cast<uint64_t>(r.final_workers)).Add("events", r.sim_events);
    ExpectDigests(c.name, r.metrics_json, h, c.expected);
  }
}

TEST(ExperimentsDigestTest, BoutiqueNonDneSystems) {
  BoutiqueOptions options;
  options.clients = 8;
  options.warmup = 10 * kMillisecond;
  options.duration = 30 * kMillisecond;
  const struct {
    SystemUnderTest system;
    Expected expected;
  } cases[] = {
      {SystemUnderTest::kNadinoCne, {0xe9c11a429490c010ull, 0xb1ebdf64e26a92d5ull}},
      {SystemUnderTest::kFuyaoF, {0x55b11f0585da7621ull, 0x691a59bc1ac625e8ull}},
      {SystemUnderTest::kFuyaoK, {0x22f4e5716f06f6f4ull, 0x2af1402f53a4a3d6ull}},
      {SystemUnderTest::kJunction, {0x5af1967e426173bcull, 0xfb7edfb97ffefd6eull}},
      {SystemUnderTest::kSpright, {0x3507102c7cd72fd8ull, 0x0b74eb107955029eull}},
      {SystemUnderTest::kNightcore, {0x8e7fdf3667d87e6bull, 0x7b5dc1b8ef5055e3ull}},
  };
  for (const auto& c : cases) {
    options.system = c.system;
    const BoutiqueResult r = RunBoutique(CostModel::Default(), options);
    Headline h;
    h.Add("rps", r.rps).Add("mean", r.mean_latency_ms).Add("p99", r.p99_latency_ms);
    h.Add("cpu", r.dataplane_cpu_cores).Add("dpu", r.dpu_cores).Add("errors", r.errors);
    ExpectDigests(SystemName(c.system), r.metrics_json, h, c.expected);
  }
}

TEST(ExperimentsDigestTest, ChainOffloadSoftware) {
  ChainOffloadOptions options;
  options.offload = false;
  options.requests_per_tenant = 40;
  options.duration = 20 * kMillisecond;
  const ChainOffloadResult r = RunChainOffload(CostModel::Default(), options);
  Headline h;
  h.Add("completed", r.completed).Add("errors", r.errors);
  for (const auto& [tenant, completed] : r.tenant_completed) {
    h.Add("tenant", static_cast<uint64_t>(tenant)).Add("tenant_completed", completed);
  }
  h.Add("installed", r.hops_installed).Add("offloaded", r.offloaded_hops);
  h.Add("responses", r.offloaded_responses).Add("fallbacks", r.fallbacks);
  h.Add("send_errors", r.wrprog_send_errors).Add("software", r.software_requests);
  h.Add("rps", r.rps).Add("mean", r.mean_latency_us).Add("p99", r.p99_latency_us);
  h.Add("per_hop", r.per_hop_latency_us).Add("in_use", r.buffers_in_use_at_end);
  ExpectDigests("chain offload off", r.metrics_json, h,
                {0x764d8a70ac65157eull, 0xc525a014679968a1ull});
}

TEST(ExperimentsDigestTest, TenantChurnLazyAndLazyShared) {
  TenantChurnOptions options;
  options.tenants = 12;
  options.duration = 150 * kMillisecond;
  const struct {
    ConnectPolicy policy;
    const char* name;
    Expected expected;
  } cases[] = {
      {ConnectPolicy::kLazy, "lazy", {0x05194bf35ee49e5bull, 0x2c902d8a52c17a37ull}},
      {ConnectPolicy::kLazyShared, "lazy-shared", {0xf7e16d356c357f3aull, 0x9d44d7ed631d776full}},
  };
  for (const auto& c : cases) {
    options.policy = c.policy;
    const TenantChurnResult r = RunTenantChurn(CostModel::Default(), options);
    Headline h;
    h.Add("arrived", r.tenants_arrived).Add("departed", r.tenants_departed);
    h.Add("first_byte", r.tenants_first_byte).Add("completed", r.completed);
    h.Add("ttfb_mean", r.ttfb_mean_ms).Add("ttfb_p99", r.ttfb_p99_ms);
    h.Add("setup", r.setup_verbs).Add("destroy", r.destroy_verbs);
    h.Add("connects", r.connects).Add("establishes", r.establishes);
    h.Add("destroys", r.destroys).Add("verbs_per_inv", r.verbs_per_invocation);
    h.Add("events", r.sim_events);
    ExpectDigests(c.name, r.metrics_json, h, c.expected);
  }
}

TEST(ExperimentsDigestTest, MultiTenantWithFaultsAndRetries) {
  MultiTenantOptions options;
  options.duration = 30 * kMillisecond;
  options.sample_period = 10 * kMillisecond;
  options.tenants = {{1, 3, 0, 30 * kMillisecond, 16, 1024},
                     {2, 1, 5 * kMillisecond, 25 * kMillisecond, 16, 512}};
  FaultSpec drop;
  drop.site = FaultSite::kDneTx;
  drop.action = FaultAction::kDrop;
  drop.probability = 0.01;
  options.faults.push_back(drop);
  options.slos[1] = SloTarget{};
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.timeout = 2 * kMillisecond;
  options.retries[1] = policy;
  const MultiTenantResult r = RunMultiTenant(CostModel::Default(), options);
  Headline h;
  for (const auto& [tenant, series] : r.tenant_rps) {
    h.Add("tenant", static_cast<uint64_t>(tenant)).Add("rps", series);
  }
  for (const auto& [tenant, completed] : r.tenant_completed) {
    h.Add("completed", completed).Add("served", r.tenant_served.at(tenant));
  }
  h.Add("drops", r.drops).Add("aggregate", r.aggregate_rps).Add("events", r.sim_events);
  // Tenant 1 burns error budget here; DWRR still serves it at its attached
  // weight.
  ExpectDigests("multi-tenant faulted", r.metrics_json, h,
                {0x0316eb8c1baa498full, 0x0ff005f00d5f8e3dull});
}

TEST(ExperimentsDigestTest, ParallelDrainOneWorker) {
  ParallelDrainOptions options;
  options.nodes = 4;
  options.users = 20000;
  options.horizon = 40 * kMillisecond;
  options.drain = 20 * kMillisecond;
  options.event_workers = 1;
  const ParallelDrainResult r = RunParallelDrain(CostModel::Default(), options);
  Headline h;
  h.Add("offered", r.offered).Add("dispatched", r.dispatched).Add("completed", r.completed);
  h.Add("shed", r.shed).Add("dropped", r.dropped).Add("served", r.served);
  h.Add("server_drops", r.server_drops).Add("slo", r.slo_violations).Add("digest", r.digest);
  h.Add("leaked", r.buffers_leaked).Add("goodput", r.goodput_rps);
  h.Add("mean", r.mean_latency_us).Add("p99", r.p99_latency_us);
  for (size_t t = 0; t < r.tenant_completed.size(); ++t) {
    h.Add("t_completed", r.tenant_completed[t]).Add("t_served", r.tenant_served[t]);
    h.Add("t_shed", r.tenant_shed[t]).Add("t_dropped", r.tenant_dropped[t]);
    h.Add("t_slo", r.tenant_slo_violations[t]);
  }
  h.Add("events", r.sim_events).Add("slab", r.slab_slots).Add("spills", r.heap_spills);
  h.Add("windows", r.windows).Add("mail", r.mail_delivered).Add("clamps", r.horizon_clamps);
  h.Add("lanes", r.lane_dispatched);
  // ParallelDrainResult carries no metrics snapshot; the headline is the oracle.
  ExpectDigests("parallel drain W=1", "", h, {0xcbf29ce484222325ull, 0xdbbdf8dc2a3ed185ull});
}

}  // namespace
}  // namespace nadino
