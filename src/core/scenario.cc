#include "src/core/scenario.h"

#include "src/runtime/message_header.h"

namespace nadino {

std::string SystemName(SystemUnderTest system) {
  switch (system) {
    case SystemUnderTest::kNadinoDne:
      return "NADINO (DNE)";
    case SystemUnderTest::kNadinoCne:
      return "NADINO (CNE)";
    case SystemUnderTest::kFuyaoF:
      return "FUYAO-F";
    case SystemUnderTest::kFuyaoK:
      return "FUYAO-K";
    case SystemUnderTest::kJunction:
      return "Junction";
    case SystemUnderTest::kSpright:
      return "SPRIGHT";
    case SystemUnderTest::kNightcore:
      return "NightCore";
  }
  return "unknown";
}

const std::vector<BoutiqueRoute>& BoutiqueRoutes() {
  static const std::vector<BoutiqueRoute> kRoutes = {
      {"/home", kHomeQueryChain},
      {"/cart", kViewCartChain},
      {"/product", kProductQueryChain},
      {"/checkout", kCheckoutChain},
  };
  return kRoutes;
}

std::string BoutiquePath(ChainId chain) {
  for (const BoutiqueRoute& route : BoutiqueRoutes()) {
    if (route.chain == chain) {
      return route.path;
    }
  }
  return "/home";
}

std::optional<ChainId> BoutiqueChain(const std::string& path) {
  for (const BoutiqueRoute& route : BoutiqueRoutes()) {
    if (route.path == path) {
      return route.chain;
    }
  }
  return std::nullopt;
}

double RatePerSecond(uint64_t count, SimDuration window) {
  return window > 0 ? static_cast<double>(count) / ToSeconds(window) : 0.0;
}

Testbed::Testbed(const CostModel& cost, const ClusterConfig& config) : cluster_(&cost, config) {}

Node* Testbed::NodeOf(FunctionId function) {
  const NodeId id = cluster_.routing().NodeOf(function);
  for (int i = 0; i < cluster_.worker_count(); ++i) {
    if (worker(i)->id() == id) {
      return worker(i);
    }
  }
  return nullptr;
}

void Testbed::Install(const FaultOptions& options) {
  for (const FaultSpec& spec : options.faults) {
    env().faults().Install(spec);
  }
}

void Testbed::Install(const SloOptions& options) {
  Install(static_cast<const FaultOptions&>(options));
  for (const auto& [tenant, target] : options.slos) {
    env().slos().Register(tenant, target);
  }
  for (const auto& [tenant, policy] : options.retries) {
    env().slos().SetRetryPolicy(tenant, policy);
  }
}

NadinoDataPlane& Testbed::UseNadino(const NadinoDataPlane::Options& options, bool with_engines) {
  nadino_ = std::make_unique<NadinoDataPlane>(env(), &cluster_.routing(), options);
  dataplane_ = nadino_.get();
  for (int i = 0; with_engines && i < cluster_.worker_count(); ++i) {
    engines_.push_back(nadino_->AddWorkerNode(worker(i)));
  }
  return *nadino_;
}

DataPlane& Testbed::Deploy(SystemUnderTest system, TenantId tenant,
                           NadinoDataPlane::Options nadino) {
  BaselineSystem baseline = BaselineSystem::kSpright;
  switch (system) {
    case SystemUnderTest::kNadinoDne:
    case SystemUnderTest::kNadinoCne: {
      nadino.engine.kind = system == SystemUnderTest::kNadinoDne ? NetworkEngine::Kind::kDne
                                                                 : NetworkEngine::Kind::kCne;
      NadinoDataPlane& dataplane = UseNadino(nadino);
      dataplane.AttachTenant(tenant, 1);
      dataplane.Start();
      return dataplane;
    }
    case SystemUnderTest::kSpright:
      baseline = BaselineSystem::kSpright;
      break;
    case SystemUnderTest::kNightcore:
      baseline = BaselineSystem::kNightcore;
      break;
    case SystemUnderTest::kFuyaoF:
    case SystemUnderTest::kFuyaoK:
      baseline = BaselineSystem::kFuyao;
      break;
    case SystemUnderTest::kJunction:
      baseline = BaselineSystem::kJunction;
      break;
  }
  baseline_ = std::make_unique<BaselineDataPlane>(env(), &cluster_.routing(), baseline, tenant);
  dataplane_ = baseline_.get();
  for (int i = 0; i < cluster_.worker_count(); ++i) {
    baseline_->AddWorkerNode(worker(i));
  }
  baseline_->Start();
  return *baseline_;
}

ChainExecutor& Testbed::UseExecutor() {
  executor_ = std::make_unique<ChainExecutor>(env(), dataplane_);
  return *executor_;
}

IngressGateway& Testbed::UseGateway(const IngressGateway::Options& options) {
  gateway_ = std::make_unique<IngressGateway>(env(), cluster_.ingress(), &cluster_.routing(),
                                              dataplane_, executor_.get(), options);
  if (options.mode == IngressMode::kNadino) {
    gateway_->ConnectWorkerEngines(engines_);
  } else {
    std::vector<Node*> workers;
    for (int i = 0; i < cluster_.worker_count(); ++i) {
      workers.push_back(worker(i));
    }
    gateway_->ConnectWorkerPortals(workers);
  }
  return *gateway_;
}

IngressGateway& Testbed::DeployBoutique(const BoutiqueSpec& spec, SystemUnderTest system,
                                        NadinoDataPlane::Options nadino) {
  cluster_.CreateTenantPools(spec.tenant);
  Deploy(system, spec.tenant, nadino);
  ChainExecutor& executor = UseExecutor();
  for (const ChainSpec& chain : spec.chains) {
    executor.RegisterChain(chain);
  }
  const bool single_node = cluster_.worker_count() == 1;
  for (const BoutiqueFunction& bf : spec.functions) {
    Spawn(bf.id, spec.tenant, bf.name, worker(single_node ? 0 : bf.placement_group));
  }

  IngressGateway::Options options;
  switch (system) {
    case SystemUnderTest::kNadinoDne:
    case SystemUnderTest::kNadinoCne:
      options.mode = IngressMode::kNadino;
      break;
    case SystemUnderTest::kFuyaoK:
    case SystemUnderTest::kNightcore:
      options.mode = IngressMode::kKIngress;
      break;
    default:
      options.mode = IngressMode::kFIngress;
      break;
  }
  options.tenant = spec.tenant;
  // One gateway worker core for every system, matching the one-core ingress
  // assignment of section 4.1.3.
  options.initial_workers = 1;
  if (system == SystemUnderTest::kNightcore) {
    // NightCore ships its own kernel-based gateway; the worker-node side also
    // terminates with the kernel stack.
    options.worker_stack = TcpStackKind::kKernel;
  }
  IngressGateway& gateway = UseGateway(options);
  for (const BoutiqueRoute& route : BoutiqueRoutes()) {
    gateway.AddRoute(route.path, route.chain, kFrontend);
  }
  return gateway;
}

FunctionRuntime* Testbed::Build(FunctionId id, TenantId tenant, const std::string& name,
                                Node* node) {
  functions_.push_back(std::make_unique<FunctionRuntime>(
      id, tenant, name, node, node->AllocateCore(), node->tenants().PoolOfTenant(tenant)));
  return functions_.back().get();
}

void Testbed::Spawn(FunctionId id, TenantId tenant, const std::string& name, Node* node) {
  executor_->AttachFunction(SpawnClient(id, tenant, name, node));
}

FunctionRuntime* Testbed::SpawnClient(FunctionId id, TenantId tenant, const std::string& name,
                                      Node* node) {
  FunctionRuntime* function = Build(id, tenant, name, node);
  dataplane_->RegisterFunction(function);
  return function;
}

EchoPair Testbed::SpawnEchoPair(TenantId tenant, FunctionId client, FunctionId server,
                                Node* client_node, Node* server_node,
                                const std::string& prefix) {
  EchoPair pair;
  pair.client = Build(client, tenant, prefix + "client", client_node);
  pair.server = Build(server, tenant, prefix + "server", server_node);
  dataplane_->RegisterFunction(pair.client);
  dataplane_->RegisterFunction(pair.server);
  return pair;
}

TenantEchoLoad* Testbed::AddEchoLoad(const EchoPair& pair, uint32_t payload, int window) {
  TenantEchoLoad::Options options;
  options.payload_bytes = payload;
  options.window = window;
  loads_.push_back(
      std::make_unique<TenantEchoLoad>(env(), dataplane_, pair.client, pair.server, options));
  return loads_.back().get();
}

SimDuration Testbed::RunWindow(SimDuration warmup, SimDuration duration,
                               const std::function<void()>& reset) {
  sim().RunFor(warmup);
  reset();
  const SimTime start = sim().now();
  sim().RunFor(duration);
  return sim().now() - start;
}

void ChainClients::Add(FunctionId id, const ChainSpec& chain, uint32_t payload) {
  FunctionRuntime* client =
      testbed_->SpawnClient(id, chain.tenant, "client", testbed_->NodeOf(chain.entry));
  clients_.push_back(Client{client, chain.id, chain.entry, payload});
  const TenantId tenant = chain.tenant;
  client->SetHandler([this, tenant](FunctionRuntime& fn, Buffer* buffer) {
    const auto header = ReadMessage(*buffer);
    const bool response = header.has_value() && header->is_response();
    if (response) {
      const auto it = issue_times_.find(header->request_id);
      if (it != issue_times_.end()) {
        latencies_.Record(testbed_->env().now() - it->second);
        issue_times_.erase(it);
      }
      ++completed_;
      ++tenant_completed_[tenant];
    }
    fn.pool()->Put(buffer, fn.owner_id());
    if (response && on_response_) {
      on_response_();
    }
  });
}

bool ChainClients::Issue(size_t index) {
  const Client& client = clients_[index];
  FunctionRuntime* fn = client.function;
  Buffer* request = fn->pool()->Get(fn->owner_id());
  if (request == nullptr) {
    ++errors_;
    return false;
  }
  MessageHeader header;
  header.chain = client.chain;
  header.src = fn->id();
  header.dst = client.entry;
  header.payload_length = client.payload;
  header.request_id = testbed_->executor().NextRequestId();
  WriteMessage(request, header);
  issue_times_[header.request_id] = testbed_->env().now();
  if (!testbed_->dataplane()->Send(fn, request)) {
    issue_times_.erase(header.request_id);
    ++errors_;
    fn->pool()->Put(request, fn->owner_id());
    return false;
  }
  return true;
}

void ChainClients::ScheduleOpenLoop(int requests, SimDuration spacing) {
  for (size_t c = 0; c < clients_.size(); ++c) {
    for (int i = 0; i < requests; ++i) {
      const SimTime at =
          static_cast<SimTime>(i) * spacing + static_cast<SimTime>(c) * (spacing / 7 + 1);
      testbed_->sim().ScheduleAt(at, [this, c]() { Issue(c); });
    }
  }
}

}  // namespace nadino
