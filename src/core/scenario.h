// Experiment assembly: the one owner of how an experiment is put together
// (DESIGN.md §3j). Every Run* entry point in experiments.h builds on it, and
// so do the benches whose deployments the Run* options cannot express
// (design knockouts, chain mixes, media pipelines). It decides:
//   * which data plane, gateway mode and worker stack each SystemUnderTest
//     maps to, and the boutique route table;
//   * the order in which a function is spawned: core allocation, tenant pool
//     lookup, data-plane registration, executor attach;
//   * what is installed into the Env before the workload starts (faults, SLO
//     targets, retry policies);
//   * the warm-up/measure window, and the metrics tail of every result.

#ifndef SRC_CORE_SCENARIO_H_
#define SRC_CORE_SCENARIO_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/apps/boutique.h"
#include "src/baselines/baseline_dataplane.h"
#include "src/cluster/cluster.h"
#include "src/core/fault.h"
#include "src/core/slo.h"
#include "src/dne/nadino_dataplane.h"
#include "src/ingress/gateway.h"
#include "src/runtime/chain.h"
#include "src/runtime/workload.h"
#include "src/sim/stats.h"

namespace nadino {

// The tail every experiment result ends with: the full registry at the end of
// the run (deterministic; sorted keys).
struct RunMetrics {
  std::string metrics_text;
  std::string metrics_json;
};

// Installed into the cluster Env's FaultPlane before the workload starts.
// Equal seed + equal specs reproduce the faulted run bit-for-bit (the
// determinism contract in DESIGN.md section 3a).
struct FaultOptions {
  std::vector<FaultSpec> faults;
};

// Faults plus what is registered into the cluster Env's SloRegistry before
// the workload starts: per-tenant SLO targets (latency/error budget) and the
// retry policies the DNE TX path consults. Same determinism contract.
struct SloOptions : FaultOptions {
  std::map<TenantId, SloTarget> slos;
  std::map<TenantId, RetryPolicy> retries;
};

enum class SystemUnderTest {
  kNadinoDne,
  kNadinoCne,
  kFuyaoF,
  kFuyaoK,
  kJunction,
  kSpright,
  kNightcore,
};

std::string SystemName(SystemUnderTest system);

// One Online Boutique route: the HTTP path clients request and its chain.
struct BoutiqueRoute {
  const char* path;
  ChainId chain;
};
// Every route the boutique gateway serves: /home, /cart, /product, /checkout.
const std::vector<BoutiqueRoute>& BoutiqueRoutes();
// The path that runs `chain` ("/home" for a chain without a route), and the
// chain `path` runs (nullopt for a path without a route).
std::string BoutiquePath(ChainId chain);
std::optional<ChainId> BoutiqueChain(const std::string& path);

// `count` per simulated second of `window`; 0 for an empty window, so a
// zero-length run reports a zero rate, not NaN.
double RatePerSecond(uint64_t count, SimDuration window);

// A client and a server function of one tenant on two nodes.
struct EchoPair {
  FunctionRuntime* client = nullptr;
  FunctionRuntime* server = nullptr;
};

// One experiment's cluster plus everything deployed on it. Objects are torn
// down in the reverse of the order they were built in.
class Testbed {
 public:
  Testbed(const CostModel& cost, const ClusterConfig& config);
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  Cluster& cluster() { return cluster_; }
  Env& env() { return cluster_.env(); }
  Simulator& sim() { return cluster_.sim(); }
  Node* worker(int i) { return cluster_.worker(i); }
  // The worker node `function`'s primary placement is on.
  Node* NodeOf(FunctionId function);

  // Installs faults, then SLO targets, then retry policies.
  void Install(const FaultOptions& options);
  void Install(const SloOptions& options);

  // The NADINO data plane, with a network engine on every worker node unless
  // `with_engines` is false (the worker side of F-/K-Ingress, whose gateway
  // reaches functions through the node's portal).
  NadinoDataPlane& UseNadino(const NadinoDataPlane::Options& options, bool with_engines = true);
  // `system`'s data plane on every worker node, serving `tenant`, started.
  // NADINO systems take `nadino` with the engine kind set by `system`.
  DataPlane& Deploy(SystemUnderTest system, TenantId tenant, NadinoDataPlane::Options nadino = {});
  ChainExecutor& UseExecutor();
  // The gateway on the ingress node, connected to the NADINO engines
  // (kNadino) or to every worker node's portal (the other modes).
  IngressGateway& UseGateway(const IngressGateway::Options& options);
  // Online Boutique on `system`: the tenant's pools, data plane and chains,
  // every function on its placement group's worker (worker 0 of a one-worker
  // cluster), and the system's gateway serving BoutiqueRoutes().
  IngressGateway& DeployBoutique(const BoutiqueSpec& spec, SystemUnderTest system,
                                 NadinoDataPlane::Options nadino = {});

  // A chain function: a fresh core and the tenant's pool on `node`,
  // registered with the data plane and attached to the executor.
  void Spawn(FunctionId id, TenantId tenant, const std::string& name, Node* node);
  // A client function: like Spawn, but not attached to the executor.
  FunctionRuntime* SpawnClient(FunctionId id, TenantId tenant, const std::string& name,
                               Node* node);
  // `prefix`client on `client_node` and `prefix`server on `server_node`,
  // both built before either registers.
  EchoPair SpawnEchoPair(TenantId tenant, FunctionId client, FunctionId server,
                         Node* client_node, Node* server_node, const std::string& prefix = "");
  // A closed-loop echo load over `pair`.
  TenantEchoLoad* AddEchoLoad(const EchoPair& pair, uint32_t payload, int window);

  // Warms up, lets `reset` zero what the run measures, then measures.
  // Returns the measured window's simulated length.
  SimDuration RunWindow(SimDuration warmup, SimDuration duration,
                        const std::function<void()>& reset);

  // The result tail: `result` with the registry snapshot filled in.
  template <typename Result>
  Result Finish(Result result) {
    result.metrics_text = cluster_.metrics().SnapshotText();
    result.metrics_json = cluster_.metrics().SnapshotJson();
    return result;
  }

  DataPlane* dataplane() { return dataplane_; }
  BaselineDataPlane* baseline() { return baseline_.get(); }
  const std::vector<NetworkEngine*>& engines() const { return engines_; }
  ChainExecutor& executor() { return *executor_; }

 private:
  FunctionRuntime* Build(FunctionId id, TenantId tenant, const std::string& name, Node* node);

  Cluster cluster_;
  std::unique_ptr<NadinoDataPlane> nadino_;
  std::unique_ptr<BaselineDataPlane> baseline_;
  DataPlane* dataplane_ = nullptr;
  std::vector<NetworkEngine*> engines_;
  std::unique_ptr<ChainExecutor> executor_;
  std::vector<std::unique_ptr<FunctionRuntime>> functions_;
  std::vector<std::unique_ptr<TenantEchoLoad>> loads_;
  std::unique_ptr<IngressGateway> gateway_;
};

// Clients of per-tenant chains: one client function per chain, placed with
// the chain's entry. Each request takes a fresh executor request id and its
// response is matched back to it for latency.
class ChainClients {
 public:
  explicit ChainClients(Testbed& testbed) : testbed_(&testbed) {}
  // Handlers and scheduled sends hold `this`.
  ChainClients(const ChainClients&) = delete;
  ChainClients& operator=(const ChainClients&) = delete;

  // Spawns client `id` of `chain`, sending `payload`-byte requests.
  void Add(FunctionId id, const ChainSpec& chain, uint32_t payload);
  // Client `index` sends one request; false (and counted as an error) when
  // its pool is dry or the data plane refuses it.
  bool Issue(size_t index);
  // Open loop: `requests` per client, `spacing` apart. Clients stagger by a
  // fraction of the spacing so sends interleave deterministically instead of
  // colliding on the same tick.
  void ScheduleOpenLoop(int requests, SimDuration spacing);
  // Runs after each response is recycled.
  void SetOnResponse(std::function<void()> hook) { on_response_ = std::move(hook); }

  uint64_t completed() const { return completed_; }
  uint64_t errors() const { return errors_; }
  const std::map<TenantId, uint64_t>& tenant_completed() const { return tenant_completed_; }
  LatencyHistogram& latencies() { return latencies_; }

 private:
  struct Client {
    FunctionRuntime* function;
    ChainId chain;
    FunctionId entry;
    uint32_t payload;
  };

  Testbed* testbed_;
  std::vector<Client> clients_;
  std::map<uint64_t, SimTime> issue_times_;
  LatencyHistogram latencies_;
  uint64_t completed_ = 0;
  uint64_t errors_ = 0;
  std::map<TenantId, uint64_t> tenant_completed_;
  std::function<void()> on_response_;
};

}  // namespace nadino

#endif  // SRC_CORE_SCENARIO_H_
