// Command-line experiment runner: drive any packaged experiment with custom
// parameters without writing code.
//
//   ./build/examples/run_experiment echo --payload 4096 --concurrency 8
//   ./build/examples/run_experiment onesided --variant owdl --payload 4096
//   ./build/examples/run_experiment comch --variant polling --functions 6
//   ./build/examples/run_experiment ingress --mode kernel --clients 32
//   ./build/examples/run_experiment boutique --system spright --clients 60
//   ./build/examples/run_experiment tenants --dwrr 0
//
// Run with no arguments for the available experiments and flags.

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "src/core/nadino.h"

using namespace nadino;

namespace {

// The largest --payload: echo, native and onesided carve 8192 buffers of
// max(16 KiB, payload + 4 KiB) per node up front, so an unbounded payload
// asks for memory before the run starts. 16 KiB is the one-sided RDMA-only
// pool's buffer size and 4x the largest echo payload a bench runs.
constexpr int kMaxPayload = 16384;

int Usage() {
  std::printf(
      "usage: run_experiment <experiment> [--flag value]...\n\n"
      "experiments:\n"
      "  echo      two-sided DNE echo        --payload N --concurrency N --onpath 0|1\n"
      "            --functions 0|1 (echo via host functions instead of engines)\n"
      "  native    native RDMA echo          --payload N --dpu 0|1\n"
      "  onesided  one-sided echo            --payload N --variant best|worst|owdl\n"
      "  comch     DPU<->host channels       --variant event|polling|tcp --functions N\n"
      "  ingress   HTTP ingress echo         --mode nadino|fstack|kernel --clients N\n"
      "  boutique  Online Boutique           --system dne|cne|spright|nightcore|\n"
      "                                               fuyao-f|fuyao-k|junction\n"
      "            --chain home|cart|product --clients N\n"
      "  tenants   2-tenant fairness (6:1)   --dwrr 0|1 --seconds N\n\n"
      "--payload is in bytes, at most %d.\n",
      kMaxPayload);
  return 1;
}

// Reports a bad command line, prints the usage, and exits nonzero.
[[noreturn]] void Fail(const std::string& message) {
  std::printf("%s\n", message.c_str());
  std::exit(Usage());
}

// Minimal --flag value parser over the flags one experiment accepts: any
// other flag, a token without "--", or a flag with no value fails the
// command line.
class Flags {
 public:
  Flags(int argc, char** argv, const std::set<std::string>& accepted) {
    for (int i = 2; i < argc; i += 2) {
      const std::string token = argv[i];
      if (token.rfind("--", 0) != 0) {
        Fail("expected a --flag, not '" + token + "'");
      }
      const std::string key = token.substr(2);
      if (accepted.count(key) == 0) {
        Fail("unknown flag '" + token + "'");
      }
      if (i + 1 >= argc) {
        Fail(token + " needs a value");
      }
      values_[key] = argv[i + 1];
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  // A whole decimal number from 1 to `max`; anything else fails the command
  // line.
  int GetCount(const std::string& key, int fallback, int max = INT_MAX) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      return fallback;
    }
    const char* text = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const long value = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno != 0 || value < 1 || value > max) {
      Fail("--" + key + " needs a whole number from 1 to " + std::to_string(max) + ", not '" +
           it->second + "'");
    }
    return static_cast<int>(value);
  }

  // One of `choices`, by name; an unknown name fails the command line.
  template <typename T>
  T GetChoice(const std::string& key, const std::string& fallback,
              const std::map<std::string, T>& choices) const {
    const std::string name = Get(key, fallback);
    const auto it = choices.find(name);
    if (it == choices.end()) {
      Fail("unknown " + key + " '" + name + "'");
    }
    return it->second;
  }

  // A 0|1 switch.
  bool GetSwitch(const std::string& key, bool fallback) const {
    return GetChoice<bool>(key, fallback ? "1" : "0", {{"0", false}, {"1", true}});
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string experiment = argv[1];
  const CostModel& cost = CostModel::Default();

  if (experiment == "echo") {
    const Flags flags(argc, argv, {"payload", "concurrency", "onpath", "functions"});
    DneEchoOptions options;
    options.payload = static_cast<uint32_t>(flags.GetCount("payload", 64, kMaxPayload));
    options.concurrency = flags.GetCount("concurrency", 1);
    options.on_path = flags.GetSwitch("onpath", false);
    options.via_functions = flags.GetSwitch("functions", false);
    options.duration = 300 * kMillisecond;
    const EchoResult result = RunDneEcho(cost, options);
    std::printf("two-sided echo: %.2f us mean, %.2f us p99, %.0f RPS\n",
                result.mean_latency_us, result.p99_latency_us, result.rps);
    return 0;
  }
  if (experiment == "native") {
    const Flags flags(argc, argv, {"payload", "dpu"});
    NativeEchoOptions options;
    options.payload = static_cast<uint32_t>(flags.GetCount("payload", 64, kMaxPayload));
    options.on_dpu_cores = flags.GetSwitch("dpu", false);
    options.duration = 300 * kMillisecond;
    const EchoResult result = RunNativeRdmaEcho(cost, options);
    std::printf("native RDMA echo (%s cores): %.2f us mean, %.0f RPS\n",
                options.on_dpu_cores ? "DPU" : "CPU", result.mean_latency_us, result.rps);
    return 0;
  }
  if (experiment == "onesided") {
    const Flags flags(argc, argv, {"payload", "variant"});
    OneSidedEchoOptions options;
    options.payload = static_cast<uint32_t>(flags.GetCount("payload", 4096, kMaxPayload));
    const std::string variant = flags.Get("variant", "best");
    options.variant = flags.GetChoice<OneSidedVariant>("variant", "best",
                                                       {{"best", OneSidedVariant::kOwrcBest},
                                                        {"worst", OneSidedVariant::kOwrcWorst},
                                                        {"owdl", OneSidedVariant::kOwdl}});
    options.duration = 300 * kMillisecond;
    const EchoResult result = RunOneSidedEcho(cost, options);
    std::printf("one-sided (%s): %.2f us mean, %.0f RPS\n", variant.c_str(),
                result.mean_latency_us, result.rps);
    return 0;
  }
  if (experiment == "comch") {
    const Flags flags(argc, argv, {"variant", "functions"});
    ComchBenchOptions options;
    const std::string variant = flags.Get("variant", "event");
    options.variant = flags.GetChoice<ComchVariant>("variant", "event",
                                                    {{"event", ComchVariant::kEvent},
                                                     {"polling", ComchVariant::kPolling},
                                                     {"tcp", ComchVariant::kTcp}});
    options.num_functions = flags.GetCount("functions", 1);
    options.duration = 300 * kMillisecond;
    const ComchBenchResult result = RunComchBench(cost, options);
    std::printf("comch (%s, %d fns): %.2f us RTT, %.0f descriptors/s\n", variant.c_str(),
                options.num_functions, result.mean_rtt_us, result.descriptor_rps);
    return 0;
  }
  if (experiment == "ingress") {
    const Flags flags(argc, argv, {"mode", "clients"});
    IngressEchoOptions options;
    const std::string mode = flags.Get("mode", "nadino");
    options.mode = flags.GetChoice<IngressMode>("mode", "nadino",
                                                {{"nadino", IngressMode::kNadino},
                                                 {"fstack", IngressMode::kFIngress},
                                                 {"kernel", IngressMode::kKIngress}});
    options.clients = flags.GetCount("clients", 8);
    options.duration = 500 * kMillisecond;
    const IngressEchoResult result = RunIngressEcho(cost, options);
    std::printf("ingress (%s, %d clients): %.1f us mean, %.0f RPS\n", mode.c_str(),
                options.clients, result.mean_latency_us, result.rps);
    return 0;
  }
  if (experiment == "boutique") {
    const Flags flags(argc, argv, {"system", "chain", "clients"});
    BoutiqueOptions options;
    options.system = flags.GetChoice<SystemUnderTest>(
        "system", "dne",
        {{"dne", SystemUnderTest::kNadinoDne},     {"cne", SystemUnderTest::kNadinoCne},
         {"spright", SystemUnderTest::kSpright},   {"nightcore", SystemUnderTest::kNightcore},
         {"fuyao-f", SystemUnderTest::kFuyaoF},    {"fuyao-k", SystemUnderTest::kFuyaoK},
         {"junction", SystemUnderTest::kJunction}});
    const std::string chain = flags.Get("chain", "home");
    const std::optional<ChainId> chain_id = BoutiqueChain("/" + chain);
    if (!chain_id.has_value()) {
      Fail("unknown chain '" + chain + "'");
    }
    options.chain = *chain_id;
    options.clients = flags.GetCount("clients", 60);
    options.duration = 500 * kMillisecond;
    const BoutiqueResult result = RunBoutique(cost, options);
    std::printf("%s on %s @%d clients: %.0f RPS, %.2f ms mean, dataplane %.2f CPU + "
                "%.2f DPU cores\n",
                SystemName(options.system).c_str(), chain.c_str(), options.clients,
                result.rps, result.mean_latency_ms, result.dataplane_cpu_cores,
                result.dpu_cores);
    return 0;
  }
  if (experiment == "tenants") {
    const Flags flags(argc, argv, {"dwrr", "seconds"});
    MultiTenantOptions options;
    options.use_dwrr = flags.GetSwitch("dwrr", true);
    const int seconds = flags.GetCount("seconds", 2);
    options.duration = seconds * kSecond;
    options.tenants = {{1, 6, 0, options.duration, 64, 1024},
                       {2, 1, 0, options.duration, 64, 1024}};
    const MultiTenantResult result = RunMultiTenant(cost, options);
    std::printf("%s: tenant1 %.0f RPS, tenant2 %.0f RPS (weights 6:1)\n",
                options.use_dwrr ? "DWRR" : "FCFS",
                static_cast<double>(result.tenant_completed.at(1)) / seconds,
                static_cast<double>(result.tenant_completed.at(2)) / seconds);
    return 0;
  }
  return Usage();
}
