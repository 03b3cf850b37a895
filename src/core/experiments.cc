#include "src/core/experiments.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <utility>

#include "src/cluster/placement.h"
#include "src/rdma/control_plane.h"
#include "src/rdma/distributed_lock.h"
#include "src/runtime/chain.h"
#include "src/runtime/coldstart.h"
#include "src/runtime/message_header.h"
#include "src/runtime/openloop.h"
#include "src/sim/random.h"

namespace nadino {

// ---------------------------------------------------------------------------
// Shared assembly and echo-driver plumbing
// ---------------------------------------------------------------------------

namespace {

constexpr TenantId kEchoTenant = 1;

// `nodes` worker nodes and no ingress node.
ClusterConfig Workers(int nodes, uint64_t seed = kDefaultSeed) {
  ClusterConfig config;
  config.worker_nodes = nodes;
  config.with_ingress_node = false;
  config.seed = seed;
  return config;
}

// The echo tenant's pools: buffers hold the payload plus the message header.
void CreateEchoPools(Testbed& s, uint32_t payload) {
  s.cluster().CreateTenantPools(kEchoTenant, 8192, std::max<size_t>(16 * 1024, payload + 4096));
}

// One echo stream's numbers over a measured window.
EchoResult EchoStats(Testbed& s, const LatencyHistogram& latencies, uint64_t completed,
                     SimDuration window) {
  EchoResult result;
  result.completed = completed;
  result.rps = RatePerSecond(completed, window);
  result.mean_latency_us = latencies.MeanUs();
  result.p99_latency_us = ToUs(latencies.Percentile(0.99));
  return s.Finish(std::move(result));
}

// Measures a closed-loop echo stream: the caller invokes RecordIssue() and
// RecordComplete() around each round trip; latencies correlate FIFO (RC
// transports deliver in order).
class EchoMeter {
 public:
  explicit EchoMeter(Testbed& s) : s_(&s) {}

  void RecordIssue() { issue_times_.push_back(s_->sim().now()); }

  void RecordComplete() {
    if (!issue_times_.empty()) {
      latencies_.Record(s_->sim().now() - issue_times_.front());
      issue_times_.pop_front();
    }
    ++completed_;
  }

  // Runs the warm-up/measure window and reports the stream.
  EchoResult Run(SimDuration warmup, SimDuration duration) {
    uint64_t before = 0;
    const SimDuration window = s_->RunWindow(warmup, duration, [&] {
      latencies_.Reset();
      before = completed_;
    });
    return EchoStats(*s_, latencies_, completed_ - before, window);
  }

 private:
  Testbed* s_;
  std::deque<SimTime> issue_times_;
  LatencyHistogram latencies_;
  uint64_t completed_ = 0;
};

// Per-tenant arrival rate curve: one compressed diurnal cycle over the
// horizon (mean multiplier 1.0, trough 0.5, peak 1.5) or a flat rate, plus an
// optional flash crowd adding `flash_crowd_fraction` of the rate for
// horizon/10 at mid-run.
ArrivalSchedule TenantSchedule(double rps, SimTime horizon, bool diurnal,
                               double flash_crowd_fraction) {
  ArrivalSchedule schedule;
  if (diurnal) {
    schedule = MakeDiurnalSchedule(rps, horizon, /*steps=*/24, /*trough_multiplier=*/0.5,
                                   /*peak_multiplier=*/1.5);
  } else {
    schedule.base_rps = rps;
  }
  if (flash_crowd_fraction > 0.0) {
    FlashBurst burst;
    burst.start = horizon / 2;
    burst.duration = horizon / 10;
    burst.add_rps = flash_crowd_fraction * rps;
    schedule.bursts.push_back(burst);
  }
  return schedule;
}

}  // namespace

// ---------------------------------------------------------------------------
// Fig. 6 / Fig. 11 / Fig. 12: DNE echo
// ---------------------------------------------------------------------------

EchoResult RunDneEcho(const CostModel& cost, const DneEchoOptions& options) {
  Testbed s(cost, Workers(2));
  CreateEchoPools(s, options.payload);
  NadinoDataPlane::Options dp_options;
  dp_options.engine.kind = options.kind;
  dp_options.engine.on_path = options.on_path;
  dp_options.engine.extra_per_op = options.extra_engine_cost;
  NadinoDataPlane& dataplane = s.UseNadino(dp_options);
  dataplane.AttachTenant(kEchoTenant, 1);
  dataplane.Start();

  const FunctionId client_fn = 11;
  const FunctionId server_fn = 12;
  s.cluster().routing().Place(client_fn, s.worker(0)->id());
  s.cluster().routing().Place(server_fn, s.worker(1)->id());

  if (options.via_functions) {
    // Fig. 6 setup: host functions behind Comch.
    const EchoPair pair =
        s.SpawnEchoPair(kEchoTenant, client_fn, server_fn, s.worker(0), s.worker(1), "echo-");
    TenantEchoLoad* load = s.AddEchoLoad(pair, options.payload, options.concurrency);
    load->SetActive(true);
    uint64_t before = 0;
    const SimDuration window = s.RunWindow(options.warmup, options.duration, [&] {
      load->mutable_latencies().Reset();
      before = load->completed();
    });
    return EchoStats(s, load->latencies(), load->completed() - before, window);
  }

  // Fig. 12 setup: the engines themselves are the echo endpoints.
  Simulator& sim = s.sim();
  EchoMeter meter(s);
  NetworkEngine* engine_a = s.engines()[0];
  NetworkEngine* engine_b = s.engines()[1];
  BufferPool* pool_a = s.worker(0)->tenants().PoolOfTenant(kEchoTenant);
  uint64_t next_request = 1;
  engine_b->SetEngineEndpoint(server_fn, [&](Buffer* buffer) {
    const std::optional<MessageHeader> header = ReadMessage(*buffer);
    if (!header.has_value()) {
      return;
    }
    MessageHeader reply = *header;
    reply.src = server_fn;
    reply.dst = client_fn;
    reply.flags = MessageHeader::kFlagResponse;
    RewriteHeader(buffer, reply);
    engine_b->SendFromEngine(kEchoTenant, buffer);
  });
  std::function<void()> issue_one = [&]() {
    Buffer* buffer = pool_a->Get(engine_a->owner_id());
    if (buffer == nullptr) {
      return;
    }
    MessageHeader header;
    header.src = client_fn;
    header.dst = server_fn;
    header.payload_length = options.payload;
    header.request_id = next_request++;
    WriteMessage(buffer, header);
    meter.RecordIssue();
    engine_a->SendFromEngine(kEchoTenant, buffer);
  };
  engine_a->SetEngineEndpoint(client_fn, [&](Buffer* buffer) {
    meter.RecordComplete();
    pool_a->Put(buffer, engine_a->owner_id());
    issue_one();
  });
  for (int i = 0; i < options.concurrency; ++i) {
    sim.Schedule(i * 100, [&]() { issue_one(); });
  }
  return meter.Run(options.warmup, options.duration);
}

// ---------------------------------------------------------------------------
// Fig. 6: native two-sided RDMA echo (functions drive verbs directly)
// ---------------------------------------------------------------------------

namespace {

// One side of the native echo: a core that posts and polls verbs directly.
class NativeEchoSide {
 public:
  NativeEchoSide(Env& env, Node* node, FifoResource* core, BufferPool* pool)
      : env_(&env), node_(node), core_(core), pool_(pool) {
    node_->rnic().mr_table().Register(pool_, kMrLocal);
  }

  void PostRecvs(int count) {
    for (int i = 0; i < count; ++i) {
      Buffer* buffer = pool_->Get(OwnerId::External(node_->id()));
      if (buffer == nullptr) {
        return;
      }
      node_->rnic().PostRecvBuffer(pool_, buffer, OwnerId::External(node_->id()),
                                   next_wr_id_++);
    }
  }

  void PostSend(QpNum qp, Buffer* buffer) {
    core_->Submit(env_->cost().native_post, [this, qp, buffer]() {
      pool_->Transfer(buffer, OwnerId::External(node_->id()), OwnerId::Rnic(node_->id()));
      const uint64_t wr = next_wr_id_++;
      in_flight_[wr] = buffer;
      node_->rnic().PostSend(qp, *buffer, wr);
    });
  }

  // Installs the completion handler; `on_recv(buffer)` runs after poll cost.
  void Install(std::function<void(Buffer*)> on_recv) {
    node_->rnic().cq().SetHandler([this, on_recv = std::move(on_recv)](const Completion& cqe) {
      if (cqe.opcode == RdmaOpcode::kSend) {
        const auto it = in_flight_.find(cqe.wr_id);
        if (it != in_flight_.end()) {
          pool_->Put(it->second, OwnerId::Rnic(node_->id()));
          in_flight_.erase(it);
        }
        return;
      }
      if (cqe.opcode != RdmaOpcode::kRecv) {
        return;
      }
      Buffer* buffer = cqe.buffer;
      core_->Submit(env_->cost().native_poll, [this, buffer, on_recv]() {
        pool_->Transfer(buffer, OwnerId::Rnic(node_->id()), OwnerId::External(node_->id()));
        PostRecvs(1);  // Keep the receive queue fed.
        on_recv(buffer);
      });
    });
  }

  BufferPool* pool() { return pool_; }
  Node* node() { return node_; }
  OwnerId app_owner() const { return OwnerId::External(node_->id()); }

 private:
  Env* env_;
  Node* node_;
  FifoResource* core_;
  BufferPool* pool_;
  uint64_t next_wr_id_ = 1;
  std::map<uint64_t, Buffer*> in_flight_;
};

}  // namespace

EchoResult RunNativeRdmaEcho(const CostModel& cost, const NativeEchoOptions& options) {
  Testbed s(cost, Workers(2));
  CreateEchoPools(s, options.payload);
  Cluster& cluster = s.cluster();
  Simulator& sim = s.sim();

  FifoResource* client_core = options.on_dpu_cores ? &cluster.worker(0)->dpu()->core(0)
                                                   : cluster.worker(0)->AllocateCore();
  FifoResource* server_core = options.on_dpu_cores ? &cluster.worker(1)->dpu()->core(0)
                                                   : cluster.worker(1)->AllocateCore();
  NativeEchoSide client(cluster.env(), cluster.worker(0), client_core,
                        cluster.worker(0)->tenants().PoolOfTenant(kEchoTenant));
  NativeEchoSide server(cluster.env(), cluster.worker(1), server_core,
                        cluster.worker(1)->tenants().PoolOfTenant(kEchoTenant));
  client.PostRecvs(options.concurrency + 8);
  server.PostRecvs(options.concurrency + 8);

  const auto [client_qp, server_qp] = RdmaEngine::CreateConnectedPair(
      cluster.worker(0)->rnic(), cluster.worker(1)->rnic(), kEchoTenant);

  EchoMeter meter(s);
  std::function<void()> issue_one = [&]() {
    Buffer* buffer = client.pool()->Get(client.app_owner());
    if (buffer == nullptr) {
      return;
    }
    buffer->FillPattern(0xE0E0, options.payload);
    meter.RecordIssue();
    client.PostSend(client_qp, buffer);
  };
  server.Install([&](Buffer* buffer) {
    server.PostSend(server_qp, buffer);  // Echo the buffer straight back.
  });
  client.Install([&](Buffer* buffer) {
    meter.RecordComplete();
    client.pool()->Put(buffer, client.app_owner());
    issue_one();
  });
  for (int i = 0; i < options.concurrency; ++i) {
    sim.Schedule(i * 100, [&]() { issue_one(); });
  }
  return meter.Run(options.warmup, options.duration);
}

// ---------------------------------------------------------------------------
// Fig. 12: one-sided write alternatives (OWRC-Best/Worst, OWDL)
// ---------------------------------------------------------------------------

namespace {

struct OneSidedParty {
  Node* node = nullptr;
  FifoResource* core = nullptr;  // A single DPU core per party, as in Fig. 12.
  BufferPool* local_pool = nullptr;
  BufferPool* rdma_pool = nullptr;  // Separate for OWRC; == local for OWDL.
};

}  // namespace

EchoResult RunOneSidedEcho(const CostModel& cost, const OneSidedEchoOptions& options) {
  Testbed s(cost, Workers(2));
  CreateEchoPools(s, options.payload);
  Cluster& cluster = s.cluster();
  Simulator& sim = s.sim();
  const bool owdl = options.variant == OneSidedVariant::kOwdl;
  const CopyLocality locality = options.variant == OneSidedVariant::kOwrcBest
                                    ? CopyLocality::kCacheHot
                                    : CopyLocality::kCacheCold;

  OneSidedParty parties[2];
  for (int i = 0; i < 2; ++i) {
    parties[i].node = cluster.worker(i);
    parties[i].core = &cluster.worker(i)->dpu()->core(0);
    parties[i].local_pool = cluster.worker(i)->tenants().PoolOfTenant(kEchoTenant);
    if (owdl) {
      // OWDL: one-sided writes land directly in the unified pool, guarded by
      // distributed locks (Fig. 3 (1)).
      parties[i].rdma_pool = parties[i].local_pool;
    } else {
      // OWRC: a dedicated RDMA-only pool isolated from local processing
      // (Fig. 3 (2)); arrival requires a receiver-side copy out of it.
      parties[i].rdma_pool = cluster.worker(i)->tenants().CreatePool(
          0x200 + static_cast<TenantId>(i), "rdma_only_" + std::to_string(i),
          TenantRegistry::PoolConfig{1024, 16 * 1024});
    }
    parties[i].node->rnic().mr_table().Register(parties[i].rdma_pool, kMrRemoteWrite);
  }

  const auto [qp_a, qp_b] = RdmaEngine::CreateConnectedPair(
      cluster.worker(0)->rnic(), cluster.worker(1)->rnic(), kEchoTenant);
  const QpNum qps[2] = {qp_a, qp_b};

  DistributedLockService locks_a(cluster.env(), &cluster.network(), parties[0].node->id(),
                                 parties[0].core);
  DistributedLockService locks_b(cluster.env(), &cluster.network(), parties[1].node->id(),
                                 parties[1].core);
  DistributedLockService* locks[2] = {&locks_a, &locks_b};

  EchoMeter meter(s);
  CopyEngine copier;
  uint64_t next_wr = 1;

  // Sources: each party owns one message buffer per outstanding slot.
  std::vector<Buffer*> client_sources;
  for (int i = 0; i < options.concurrency; ++i) {
    Buffer* b = parties[0].local_pool->Get(OwnerId::External(1));
    b->FillPattern(0x0D, options.payload);
    client_sources.push_back(b);
  }
  Buffer* server_source = parties[1].local_pool->Get(OwnerId::External(2));
  server_source->FillPattern(0x0E, options.payload);

  // Receiver-side discovery continuations, keyed by slot per target party.
  // The write-arrival hook fires when the RNIC deposits the payload; the
  // poller then finds it half a poll interval later on average and (OWRC)
  // copies it out of the RDMA-only pool.
  std::map<uint32_t, std::function<void()>> pending[2];
  for (int target = 0; target < 2; ++target) {
    parties[target].node->rnic().SetWriteArrivalHook(
        parties[target].rdma_pool->id(),
        [&, target](Buffer* /*buffer*/, uint32_t slot) {
          const auto it = pending[target].find(slot);
          if (it == pending[target].end()) {
            return;
          }
          std::function<void()> written = std::move(it->second);
          pending[target].erase(it);
          sim.Schedule(cost.owrc_poll_interval / 2, [&, target, slot,
                                                     written = std::move(written)]() {
            parties[target].core->Submit(cost.owrc_poll_iteration, [&, target, slot,
                                                                    written]() {
              if (!owdl) {
                Buffer* rdma_buffer = parties[target].rdma_pool->Resolve(
                    BufferDescriptor{parties[target].rdma_pool->id(), slot, 0, 0});
                Buffer* local = parties[target].local_pool->Get(OwnerId::External(99));
                if (local != nullptr) {
                  const SimDuration copy_cost = copier.Copy(*rdma_buffer, local, locality);
                  parties[target].core->Submit(copy_cost, [&, target, local, written]() {
                    parties[target].local_pool->Put(local, OwnerId::External(99));
                    written();
                  });
                  return;
                }
              }
              written();
            });
          });
        });
  }

  // One-sided write with the variant's full critical path, then `written`.
  // `writer` / `target` are party indices.
  std::function<void(int, int, Buffer*, uint32_t, std::function<void()>)> do_write =
      [&](int writer, int target, Buffer* source, uint32_t slot, std::function<void()> written) {
        auto post = [&, writer, target, source, slot, written]() {
          pending[target][slot] = written;
          parties[writer].core->Submit(cost.dne_tx_stage, [&, writer, target, source, slot]() {
            parties[writer].node->rnic().PostWrite(qps[writer], *source,
                                                   parties[target].rdma_pool->id(), slot,
                                                   next_wr++);
          });
        };
        if (owdl) {
          // Acquire the remote slot's lock before writing; release after.
          const uint64_t lock_id = (static_cast<uint64_t>(target) << 32) | slot;
          locks[target]->Acquire(parties[writer].node->id(), lock_id,
                                 [&, writer, target, lock_id, post]() {
                                   post();
                                   // Release off the critical path.
                                   sim.Schedule(FromUs(2.0), [&, writer, target, lock_id]() {
                                     locks[target]->Release(parties[writer].node->id(),
                                                            lock_id);
                                   });
                                 });
        } else {
          post();
        }
      };

  std::function<void(int)> issue_one = [&](int slot) {
    meter.RecordIssue();
    do_write(0, 1, client_sources[static_cast<size_t>(slot)], static_cast<uint32_t>(slot),
             [&, slot]() {
               // Server processes and echoes back into the client's pool.
               do_write(1, 0, server_source, static_cast<uint32_t>(slot), [&, slot]() {
                 meter.RecordComplete();
                 issue_one(slot);
               });
             });
  };
  for (int i = 0; i < options.concurrency; ++i) {
    sim.Schedule(i * 200, [&, i]() { issue_one(i); });
  }
  return meter.Run(options.warmup, options.duration);
}

// ---------------------------------------------------------------------------
// Fig. 9: Comch variants
// ---------------------------------------------------------------------------

ComchBenchResult RunComchBench(const CostModel& cost, const ComchBenchOptions& options) {
  Testbed s(cost, Workers(1));
  Simulator& sim = s.sim();
  Node* node = s.worker(0);

  ComchServer server(s.env(), &node->dpu()->core(0),
                     /*engine_managed_polling=*/false, node->id());
  // The single-core DNE echoes descriptors straight back.
  server.SetReceiver([&server](FunctionId fn, const BufferDescriptor& desc) {
    server.SendToHost(fn, desc);
  });

  struct Fn {
    FifoResource* core = nullptr;
    SimTime issued_at = 0;
  };
  std::vector<Fn> fns(static_cast<size_t>(options.num_functions));
  LatencyHistogram latencies;
  uint64_t completed = 0;

  for (int i = 0; i < options.num_functions; ++i) {
    fns[static_cast<size_t>(i)].core = node->AllocateCore();
  }
  std::function<void(int)> issue = [&](int i) {
    Fn& fn = fns[static_cast<size_t>(i)];
    fn.issued_at = sim.now();
    server.SendToDpu(static_cast<FunctionId>(i), BufferDescriptor{0, 0, 16, 0});
  };
  for (int i = 0; i < options.num_functions; ++i) {
    server.ConnectEndpoint(static_cast<FunctionId>(i), options.variant,
                           fns[static_cast<size_t>(i)].core,
                           [&, i](const BufferDescriptor&) {
                             latencies.Record(sim.now() - fns[static_cast<size_t>(i)].issued_at);
                             ++completed;
                             issue(i);
                           });
  }
  for (int i = 0; i < options.num_functions; ++i) {
    sim.Schedule(i * 50, [&, i]() { issue(i); });
  }
  uint64_t measured_from = 0;
  const SimDuration window = s.RunWindow(options.warmup, options.duration, [&] {
    latencies.Reset();
    measured_from = completed;
  });

  ComchBenchResult result;
  result.mean_rtt_us = latencies.MeanUs();
  result.descriptor_rps = RatePerSecond(completed - measured_from, window);
  return s.Finish(std::move(result));
}

// ---------------------------------------------------------------------------
// Figs. 13 / 14: ingress designs
// ---------------------------------------------------------------------------

IngressEchoResult RunIngressEcho(const CostModel& cost, const IngressEchoOptions& options) {
  ClusterConfig config = Workers(1, options.seed);
  config.with_ingress_node = true;
  Testbed s(cost, config);
  s.cluster().CreateTenantPools(kEchoTenant);
  Simulator& sim = s.sim();
  s.Install(options);

  const bool nadino = options.mode == IngressMode::kNadino;
  NadinoDataPlane& dataplane = s.UseNadino({}, /*with_engines=*/nadino);
  if (nadino) {
    dataplane.AttachTenant(kEchoTenant, 1);
    dataplane.Start();
  }

  ChainExecutor& executor = s.UseExecutor();
  const ChainId echo_chain = 10;
  const FunctionId echo_fn = 21;
  ChainSpec chain;
  chain.id = echo_chain;
  chain.tenant = kEchoTenant;
  chain.name = "http-echo";
  chain.entry = echo_fn;
  chain.entry_request_payload = options.payload;
  FunctionBehavior echo;
  echo.compute = 5 * kMicrosecond;
  echo.response_payload = options.payload;
  chain.behaviors[echo_fn] = echo;
  executor.RegisterChain(chain);
  s.Spawn(echo_fn, kEchoTenant, "http-echo", s.worker(0));

  IngressGateway::Options gw_options;
  gw_options.mode = options.mode;
  gw_options.tenant = kEchoTenant;
  gw_options.initial_workers = options.initial_workers;
  gw_options.max_workers = options.max_workers;
  gw_options.autoscale = options.autoscale;
  IngressGateway& gateway = s.UseGateway(gw_options);
  gateway.AddRoute("/echo", echo_chain, echo_fn);

  ClosedLoopClients::Options client_options;
  client_options.num_clients = options.ramp_interval > 0 ? 1 : options.clients;
  client_options.path = "/echo";
  client_options.payload_bytes = options.payload;
  ClosedLoopClients clients(s.env(), &gateway, client_options);
  clients.Start();
  if (options.ramp_interval > 0) {
    for (int i = 1; i < options.clients; ++i) {
      sim.Schedule(options.ramp_interval * i, [&clients]() { clients.AddClient(); });
    }
  }

  IngressEchoResult result;
  PeriodicSampler sampler(s.env(), options.sample_period);
  sampler.AddRate(&clients.rate());
  sampler.AddHook([&](SimTime now) {
    result.cpu_series.Record(now, gateway.WorkerUtilizationCores());
    if (!options.autoscale) {
      gateway.ResetUtilizationWindows();  // The autoscaler resets otherwise.
    }
    const auto& samples = clients.rate().series().samples();
    if (!samples.empty()) {
      result.rps_series.Record(now, samples.back().value);
    }
  });
  sampler.Start();

  uint64_t before = 0;
  const SimDuration window = s.RunWindow(options.warmup, options.duration, [&] {
    clients.mutable_latencies().Reset();
    before = clients.completed();
  });

  result.mean_latency_us = clients.latencies().MeanUs();
  result.p99_latency_us = ToUs(clients.latencies().Percentile(0.99));
  result.rps = RatePerSecond(clients.completed() - before, window);
  MetricLabels gateway_labels = MetricLabels::Node(s.cluster().ingress()->id());
  gateway_labels.engine = static_cast<int64_t>(gw_options.engine_id);
  result.scale_ups = s.cluster().metrics().ValueOf("gateway_scale_ups", gateway_labels);
  result.scale_downs = s.cluster().metrics().ValueOf("gateway_scale_downs", gateway_labels);
  result.final_workers = gateway.active_workers();
  result.sim_events = sim.events_processed();
  return s.Finish(std::move(result));
}

// ---------------------------------------------------------------------------
// Figs. 15 / 17: multi-tenancy
// ---------------------------------------------------------------------------

MultiTenantResult RunMultiTenant(const CostModel& cost, const MultiTenantOptions& options) {
  Testbed s(cost, Workers(2, options.seed));
  s.Install(options);

  NadinoDataPlane::Options dp_options;
  dp_options.engine.use_dwrr = options.use_dwrr;
  dp_options.engine.extra_per_op = options.extra_engine_cost;
  NadinoDataPlane& dataplane = s.UseNadino(dp_options);
  for (const TenantScenario& scenario : options.tenants) {
    s.cluster().CreateTenantPools(scenario.tenant, 4096, 8192);
    dataplane.AttachTenant(scenario.tenant, scenario.weight);
  }
  dataplane.Start();
  std::vector<TenantEchoLoad*> loads;
  for (const TenantScenario& scenario : options.tenants) {
    const EchoPair pair = s.SpawnEchoPair(scenario.tenant, 100 + scenario.tenant,
                                          200 + scenario.tenant, s.worker(0), s.worker(1));
    loads.push_back(s.AddEchoLoad(pair, scenario.payload, scenario.window));
    loads.back()->ScheduleActive(scenario.start, scenario.stop);
  }

  MultiTenantResult result;
  PeriodicSampler sampler(s.env(), options.sample_period);
  for (size_t i = 0; i < loads.size(); ++i) {
    sampler.AddRate(&loads[i]->rate());
  }
  sampler.AddHook([&](SimTime now) {
    for (TenantEchoLoad* load : loads) {
      const auto& samples = load->rate().series().samples();
      if (!samples.empty()) {
        result.tenant_rps[load->tenant()].Record(now, samples.back().value);
      }
    }
  });
  sampler.Start();

  s.sim().RunFor(options.duration);
  uint64_t total = 0;
  for (TenantEchoLoad* load : loads) {
    result.tenant_completed[load->tenant()] = load->completed();
    total += load->completed();
  }
  result.aggregate_rps = RatePerSecond(total, options.duration);
  // Fairness accounting comes from the registry, not scheduler spelunking:
  // engine_tenant_served{engine,node,tenant} callbacks sample each engine's
  // TX scheduler, and dataplane_drops is the shared drop counter.
  const MetricsRegistry& metrics = s.cluster().metrics();
  for (const TenantScenario& scenario : options.tenants) {
    uint64_t served = 0;
    for (NetworkEngine* engine : s.engines()) {
      MetricLabels labels = MetricLabels::Node(engine->node()->id());
      labels.engine = static_cast<int64_t>(engine->engine_id());
      labels.tenant = static_cast<int64_t>(scenario.tenant);
      served += metrics.ValueOf("engine_tenant_served", labels);
    }
    result.tenant_served[scenario.tenant] = served;
  }
  result.drops = metrics.ValueOf("dataplane_drops");
  result.sim_events = s.sim().events_processed();
  return s.Finish(std::move(result));
}

// ---------------------------------------------------------------------------
// Tenant churn: elastic control plane (DESIGN.md §3f)
// ---------------------------------------------------------------------------

TenantChurnResult RunTenantChurn(const CostModel& cost, const TenantChurnOptions& options) {
  constexpr TenantId kChurnTenantBase = 10;
  constexpr FunctionId kClientFnBase = 10000;
  constexpr FunctionId kServerFnBase = 20000;

  Testbed s(cost, Workers(2, options.seed));
  Simulator& sim = s.sim();

  NadinoDataPlane::Options dp_options;
  dp_options.connections.policy = options.policy;
  dp_options.connections.establish_batch = options.establish_batch;
  dp_options.prewarm_connections = options.prewarm_connections;
  dp_options.connections.instrument = true;
  // Small per-tenant pools: hundreds of tenants are resident at once, and the
  // churn traffic is a narrow closed-loop echo, not a bandwidth test.
  dp_options.engine.initial_recv_buffers = 8;
  NadinoDataPlane& dataplane = s.UseNadino(dp_options);
  dataplane.Start();

  ColdStartManager::Options cold_options;
  cold_options.keep_warm_timeout = options.keep_warm_timeout;
  cold_options.sweep_period = options.sweep_period;
  ColdStartManager coldstart(s.env(), cold_options);

  std::vector<TenantEchoLoad*> loads;
  std::map<FunctionId, TenantId> server_tenants;
  TenantChurnResult result;
  LatencyHistogram ttfb;

  // Instance retirement is the departure signal: once the sweeper retires a
  // tenant's (idle) server, the tenant's QPs on every node are destroyed and
  // their RNIC context reclaimed.
  coldstart.SetRetireHook([&](FunctionId fn) {
    const auto it = server_tenants.find(fn);
    if (it == server_tenants.end()) {
      return;
    }
    const TenantId tenant = it->second;
    server_tenants.erase(it);
    ++result.tenants_departed;
    dataplane.DetachTenant(tenant);
  });

  // Pre-generated Poisson schedule: equal seeds replay identical churn.
  Rng rng(options.seed);
  SimTime next_arrival = 0;
  for (int i = 0; i < options.tenants; ++i) {
    next_arrival += static_cast<SimTime>(
        rng.Exponential(static_cast<double>(options.mean_interarrival)));
    const SimDuration lifetime = std::max<SimDuration>(
        static_cast<SimDuration>(rng.Exponential(static_cast<double>(options.mean_lifetime))),
        5 * kMillisecond);
    const SimTime arrival = next_arrival;
    if (arrival >= options.duration) {
      break;
    }
    sim.Schedule(arrival, [&, i, arrival, lifetime]() {
      const TenantId tenant = kChurnTenantBase + static_cast<TenantId>(i);
      s.cluster().CreateTenantPools(tenant, 32, 2048);
      // Eager: all-pairs prewarm now; traffic is gated on the returned setup
      // latency. Lazy: returns 0, the first send pays the handshake inline.
      const SimDuration setup = dataplane.AttachTenant(tenant, 1);
      const EchoPair pair =
          s.SpawnEchoPair(tenant, kClientFnBase + static_cast<FunctionId>(i),
                          kServerFnBase + static_cast<FunctionId>(i), s.worker(0), s.worker(1));
      TenantEchoLoad* load = s.AddEchoLoad(pair, options.payload, options.window);
      // Wrap the server AFTER the echo load installed its handler, then
      // prewarm the instance: TTFB isolates the control plane, not the
      // container boot, and the keep-warm clock starts ticking.
      coldstart.Manage(pair.server);
      coldstart.Prewarm(pair.server->id());
      server_tenants[pair.server->id()] = tenant;
      load->SetOnFirstResponse([&, arrival]() {
        ttfb.Record(sim.now() - arrival);
        ++result.tenants_first_byte;
      });
      load->ScheduleActive(sim.now() + setup, arrival + lifetime);
      ++result.tenants_arrived;
      loads.push_back(load);
    });
  }

  sim.RunFor(options.duration);

  for (TenantEchoLoad* load : loads) {
    result.completed += load->completed();
  }
  result.ttfb_mean_ms = ttfb.MeanUs() / 1000.0;
  result.ttfb_p99_ms = static_cast<double>(ttfb.Percentile(0.99)) / kMillisecond;
  for (int node = 0; node < 2; ++node) {
    if (const ConnectionService* service = s.worker(node)->connections_or_null()) {
      const ConnectionService::Stats& stats = service->stats();
      result.setup_verbs += stats.create_verbs + stats.modify_verbs;
      result.destroy_verbs += stats.destroy_verbs;
      result.connects += s.cluster().metrics().ValueOf(
          "connmgr_connects", MetricLabels::Node(s.worker(node)->id()));
      result.establishes += stats.establishes;
      result.destroys += stats.destroys;
    }
  }
  if (result.completed > 0) {
    result.verbs_per_invocation =
        static_cast<double>(result.setup_verbs + result.destroy_verbs) /
        static_cast<double>(result.completed);
  }
  result.sim_events = sim.events_processed();
  return s.Finish(std::move(result));
}

// ---------------------------------------------------------------------------
// Fig. 16 / Table 2: Online Boutique
// ---------------------------------------------------------------------------

BoutiqueResult RunBoutique(const CostModel& cost, const BoutiqueOptions& options) {
  const bool single_node = options.system == SystemUnderTest::kNightcore;
  ClusterConfig config;
  config.worker_nodes = single_node ? 1 : 2;
  config.host_cores_per_node = single_node ? 14 : 16;
  config.with_ingress_node = true;
  config.seed = options.seed;
  Testbed s(cost, config);
  const BoutiqueSpec spec = BuildBoutiqueSpec(kEchoTenant);
  IngressGateway& gateway = s.DeployBoutique(spec, options.system);

  const ChainSpec* chain_spec = nullptr;
  for (const ChainSpec& c : spec.chains) {
    if (c.id == options.chain) {
      chain_spec = &c;
    }
  }
  assert(chain_spec != nullptr);

  ClosedLoopClients::Options client_options;
  client_options.num_clients = options.clients;
  client_options.path = BoutiquePath(options.chain);
  client_options.payload_bytes = chain_spec->entry_request_payload;
  ClosedLoopClients clients(s.env(), &gateway, client_options);
  clients.Start();

  uint64_t before = 0;
  const SimDuration window = s.RunWindow(options.warmup, options.duration, [&] {
    clients.mutable_latencies().Reset();
    for (int i = 0; i < s.cluster().worker_count(); ++i) {
      s.worker(i)->ResetUtilizationWindows();
    }
    before = clients.completed();
  });

  BoutiqueResult result;
  result.rps = RatePerSecond(clients.completed() - before, window);
  result.mean_latency_ms = clients.latencies().MeanUs() / 1000.0;
  result.p99_latency_ms = ToUs(clients.latencies().Percentile(0.99)) / 1000.0;
  result.errors = s.executor().errors() + s.cluster().metrics().ValueOf("dataplane_drops");
  if (s.baseline() == nullptr) {
    double engine_cores = 0.0;
    double dpu_cores = 0.0;
    for (NetworkEngine* engine : s.engines()) {
      if (engine->kind() == NetworkEngine::Kind::kDne) {
        dpu_cores += engine->worker_core()->WindowUtilization();
        dpu_cores += engine->node()->dpu()->core(1).WindowUtilization();
      } else {
        engine_cores += engine->worker_core()->WindowUtilization();
      }
    }
    result.dataplane_cpu_cores = engine_cores;
    result.dpu_cores = dpu_cores;
  } else {
    result.dataplane_cpu_cores =
        s.baseline()->EngineUtilizationCores() + gateway.PortalUtilizationCores();
    result.dpu_cores = 0.0;
  }
  return s.Finish(std::move(result));
}

// ---------------------------------------------------------------------------
// N-node scaling (DESIGN.md §3e)
// ---------------------------------------------------------------------------

namespace {

// ChainPlacer slot budget per node.
constexpr int kChainSlotsPerNode = 2;

// Per-tenant pipeline: fn_i calls fn_{i+1}; the last stage is the leaf.
ChainSpec BuildPipelineChain(TenantId tenant, FunctionId base, int stages,
                             uint32_t payload) {
  ChainSpec spec;
  spec.id = static_cast<ChainId>(tenant);
  spec.tenant = tenant;
  spec.name = "pipeline_" + std::to_string(tenant);
  spec.entry = base;
  spec.entry_request_payload = payload;
  for (int s = 0; s < stages; ++s) {
    FunctionBehavior behavior;
    behavior.compute = 5 * kMicrosecond;
    behavior.response_payload = payload;
    if (s + 1 < stages) {
      behavior.calls.push_back(CallSpec{base + static_cast<FunctionId>(s) + 1, payload});
    }
    spec.behaviors[base + static_cast<FunctionId>(s)] = behavior;
  }
  return spec;
}

}  // namespace

NodeScaleResult RunNodeScale(const CostModel& cost, const NodeScaleOptions& options) {
  Testbed s(cost, Workers(options.nodes, options.seed));
  Cluster& cluster = s.cluster();

  NadinoDataPlane& dataplane = s.UseNadino({});
  std::vector<NodeId> worker_ids;
  for (int i = 0; i < cluster.worker_count(); ++i) {
    worker_ids.push_back(s.worker(i)->id());
  }

  std::vector<ChainSpec> chains;
  for (int t = 0; t < options.tenants; ++t) {
    const TenantId tenant = static_cast<TenantId>(t + 1);
    cluster.CreateTenantPools(tenant, 4096, 8192);
    dataplane.AttachTenant(tenant, 1);
    chains.push_back(BuildPipelineChain(tenant, 1000 + static_cast<FunctionId>(t) * 100,
                                        options.stages, options.payload));
  }
  dataplane.Start();

  ChainExecutor& executor = s.UseExecutor();
  NodeScaleResult result;
  const int replicas = std::max(1, std::min(options.replicas, options.nodes));
  for (const ChainSpec& spec : chains) {
    executor.RegisterChain(spec);
    // Locality-aware primaries via the ChainPlacer, then `replicas - 1`
    // additional placements per stage on the following nodes (dense wrap) so
    // the routing table has live alternatives to rotate over everywhere.
    const std::map<FunctionId, NodeId> assignment =
        ChainPlacer::PlaceChain(spec, worker_ids, kChainSlotsPerNode);
    result.chain_crossing_score += ChainPlacer::ScoreAssignment(spec, assignment);
    for (const auto& [fn_id, primary] : assignment) {
      const size_t primary_pos = static_cast<size_t>(
          std::find(worker_ids.begin(), worker_ids.end(), primary) - worker_ids.begin());
      for (int r = 0; r < replicas; ++r) {
        s.Spawn(fn_id, spec.tenant, spec.name + "_fn" + std::to_string(fn_id),
                s.worker(static_cast<int>((primary_pos + static_cast<size_t>(r)) %
                                          worker_ids.size())));
      }
    }
  }

  // One open-loop client per tenant, colocated with its entry's primary.
  ChainClients clients(s);
  for (const ChainSpec& spec : chains) {
    clients.Add(900 + static_cast<FunctionId>(spec.tenant), spec, options.payload);
  }
  clients.ScheduleOpenLoop(options.requests_per_tenant, options.spacing);

  s.sim().RunFor(options.duration);

  result.completed = clients.completed();
  result.errors = clients.errors() + executor.errors();
  result.rps = RatePerSecond(result.completed, options.duration);
  result.mean_latency_us = clients.latencies().MeanUs();
  result.p99_latency_us = ToUs(clients.latencies().Percentile(0.99));
  for (const ChainSpec& spec : chains) {
    for (const NodeId node : worker_ids) {
      const uint64_t count = cluster.routing().ResolvedCount(spec.entry, node);
      if (count > 0) {
        result.entry_resolved[node] += count;
      }
    }
    // Worst per-function imbalance over every multi-replica stage that saw
    // meaningful traffic.
    for (const auto& [fn_id, behavior] : spec.behaviors) {
      (void)behavior;
      const std::vector<NodeId>* placements = cluster.routing().PlacementsOf(fn_id);
      if (placements == nullptr || placements->size() < 2) {
        continue;
      }
      uint64_t lo = UINT64_MAX, hi = 0, total = 0;
      for (const NodeId node : *placements) {
        const uint64_t count = cluster.routing().ResolvedCount(fn_id, node);
        lo = std::min(lo, count);
        hi = std::max(hi, count);
        total += count;
      }
      if (total >= 100) {
        const double ratio = static_cast<double>(hi) / static_cast<double>(std::max<uint64_t>(lo, 1));
        result.replica_skew = std::max(result.replica_skew, ratio);
      }
    }
  }
  return s.Finish(std::move(result));
}

// ---------------------------------------------------------------------------
// NIC-offloaded chain dispatch (DESIGN.md §3i)
// ---------------------------------------------------------------------------

ChainOffloadResult RunChainOffload(const CostModel& cost, const ChainOffloadOptions& options) {
  Testbed s(cost, Workers(options.nodes, options.seed));
  Cluster& cluster = s.cluster();
  s.Install(options);

  NadinoDataPlane::Options dp_options;
  dp_options.engine.comch_variant = options.comch_variant;
  dp_options.offload_chains = options.offload;
  NadinoDataPlane& dataplane = s.UseNadino(dp_options);

  std::vector<ChainSpec> chains;
  for (int t = 0; t < options.tenants; ++t) {
    const TenantId tenant = static_cast<TenantId>(t + 1);
    cluster.CreateTenantPools(tenant, 4096, 8192);
    dataplane.AttachTenant(tenant, 1);
    cluster.env().slos().Register(tenant, SloTarget{});
    chains.push_back(BuildPipelineChain(tenant, 1000 + static_cast<FunctionId>(t) * 100,
                                        options.stages, options.payload));
  }
  dataplane.Start();

  ChainExecutor& executor = s.UseExecutor();
  ChainOffloadResult result;
  for (int t = 0; t < options.tenants; ++t) {
    const ChainSpec& spec = chains[static_cast<size_t>(t)];
    executor.RegisterChain(spec);
    // Stripe stage i of tenant t onto node (t + i) % nodes: every hop and the
    // final response cross the wire, which is the regime NIC offload targets
    // (an intra-node hop is an IPC delivery with nothing to offload).
    int stage = 0;
    for (const auto& [fn_id, behavior] : spec.behaviors) {
      (void)behavior;
      s.Spawn(fn_id, spec.tenant, spec.name + "_fn" + std::to_string(fn_id),
              s.worker((t + stage) % options.nodes));
      ++stage;
    }
  }
  if (options.offload) {
    for (const ChainSpec& spec : chains) {
      result.hops_installed += executor.OffloadChain(spec.id);
    }
  }

  ChainClients clients(s);
  for (const ChainSpec& spec : chains) {
    clients.Add(900 + static_cast<FunctionId>(spec.tenant), spec, options.payload);
  }
  clients.ScheduleOpenLoop(options.requests_per_tenant, options.spacing);

  s.sim().RunFor(options.duration);

  result.completed = clients.completed();
  result.tenant_completed = clients.tenant_completed();
  result.errors = clients.errors() + executor.errors();
  result.software_requests = executor.requests_handled();
  for (int i = 0; i < options.nodes; ++i) {
    const NodeId node = cluster.worker(i)->id();
    if (dataplane.wr_programs(node) != nullptr) {
      const MetricLabels labels = MetricLabels::Node(node);
      result.offloaded_hops += cluster.metrics().ValueOf("wrprog_offloaded", labels);
      result.offloaded_responses += cluster.metrics().ValueOf("wrprog_responses", labels);
      result.fallbacks += cluster.metrics().ValueOf("wrprog_fallbacks", labels);
      result.wrprog_send_errors += cluster.metrics().ValueOf("wrprog_send_errors", labels);
    }
    for (int t = 0; t < options.tenants; ++t) {
      const auto tenant = static_cast<TenantId>(t + 1);
      BufferPool* pool = cluster.worker(i)->tenants().PoolOfTenant(tenant);
      if (pool != nullptr) {
        result.buffers_in_use_at_end += pool->in_use();
      }
      // The standing posted-RECV credits are RNIC-owned at quiesce by design;
      // only what is out BEYOND them is a leak.
      const size_t posted = cluster.worker(i)->rnic().SrqOfTenant(tenant).depth();
      result.buffers_in_use_at_end -= std::min<uint64_t>(result.buffers_in_use_at_end, posted);
    }
  }
  result.rps = RatePerSecond(result.completed, options.duration);
  result.mean_latency_us = clients.latencies().MeanUs();
  result.p99_latency_us = ToUs(clients.latencies().Percentile(0.99));
  result.per_hop_latency_us =
      result.mean_latency_us / static_cast<double>(options.stages + 1);
  return s.Finish(std::move(result));
}

// ---------------------------------------------------------------------------
// Open-loop scale (DESIGN.md §3g)
// ---------------------------------------------------------------------------

OpenLoopScaleResult RunOpenLoopScale(const CostModel& cost, const OpenLoopScaleOptions& options) {
  constexpr TenantId kTenantBase = 1;

  ClusterConfig config = Workers(options.nodes, options.seed);
  config.event_shards = options.event_shards;
  Testbed s(cost, config);
  Simulator& sim = s.sim();
  s.Install(options);

  NadinoDataPlane::Options dp_options;
  dp_options.engine.extra_per_op = options.extra_engine_cost;
  NadinoDataPlane& dataplane = s.UseNadino(dp_options);

  // Buffer pools are sized to the in-flight cap, not to the user count: the
  // open loop sheds what it cannot hold, so a 100x offered-load increase
  // leaves memory flat. Each node's engine pre-posts its RECV ring from the
  // same pool, so that depth is headroom on top of the cap — without it a
  // small cap leaves zero send buffers and every arrival sheds.
  const size_t pool_buffers = static_cast<size_t>(options.max_in_flight_per_tenant) +
                              static_cast<size_t>(dp_options.engine.initial_recv_buffers) + 64;
  const size_t pool_buffer_size = std::max<size_t>(1024, options.payload + 256u);
  for (int t = 0; t < options.tenants; ++t) {
    const TenantId tenant = kTenantBase + static_cast<TenantId>(t);
    s.cluster().CreateTenantPools(tenant, pool_buffers, pool_buffer_size);
    dataplane.AttachTenant(tenant, 1);
  }
  dataplane.Start();

  // Aggregate the users into per-tenant rate curves.
  const double total_rps = static_cast<double>(options.users) * options.rps_per_user;
  const double tenant_rps = total_rps / static_cast<double>(std::max(options.tenants, 1));

  OpenLoopSource::Options source_options;
  source_options.tick = options.tick;
  source_options.horizon = options.horizon;
  OpenLoopSource source(s.env(), source_options);

  std::vector<std::unique_ptr<OpenLoopEchoDriver>> drivers;
  for (int t = 0; t < options.tenants; ++t) {
    const TenantId tenant = kTenantBase + static_cast<TenantId>(t);
    const int client_node = t % options.nodes;
    const int server_node = (t + 1) % options.nodes;
    const EchoPair pair = s.SpawnEchoPair(
        tenant, 100 + static_cast<FunctionId>(t), 200 + static_cast<FunctionId>(t),
        s.worker(client_node), s.worker(server_node), "ol-");

    OpenLoopSource::TenantOptions tenant_options;
    tenant_options.schedule = TenantSchedule(tenant_rps, options.horizon, options.diurnal,
                                             options.flash_crowd_fraction);
    // Per-node admission: the tenant's arrivals live on its client node's
    // event-queue shard.
    tenant_options.shard = static_cast<uint32_t>(client_node);
    tenant_options.max_in_flight = options.max_in_flight_per_tenant;
    const uint32_t index = source.AddTenant(tenant_options);
    (void)index;  // == t by construction.

    drivers.push_back(std::make_unique<OpenLoopEchoDriver>(s.env(), &source, &dataplane,
                                                           pair.client, pair.server,
                                                           static_cast<uint32_t>(t),
                                                           options.payload));
  }
  source.SetDispatch([&drivers](uint32_t tenant, SimTime issued_at) {
    return drivers[tenant]->Issue(issued_at);
  });

  PeriodicSampler sampler(s.env(), options.sample_period);
  sampler.AddRate(&source.rate());
  sampler.Start();
  source.Start();
  sim.RunUntil(options.horizon + options.drain);
  sampler.Stop();

  OpenLoopScaleResult result;
  result.offered = source.offered();
  result.dispatched = source.dispatched();
  result.completed = source.completed();
  result.shed = source.shed();
  result.in_flight_peak = source.in_flight_peak();
  result.offered_rps = RatePerSecond(result.offered, options.horizon);
  result.goodput_rps = RatePerSecond(result.completed, options.horizon);
  result.mean_latency_us = source.latencies().MeanUs();
  result.p99_latency_us = ToUs(source.latencies().Percentile(0.99));
  for (const auto& driver : drivers) {
    result.unmatched_responses += driver->unmatched_responses();
    result.pending_at_end += driver->pending_requests();
  }
  result.slab_slots = sim.slab_slots();
  result.sim_events = sim.events_processed();
  return s.Finish(std::move(result));
}

ParallelDrainResult RunParallelDrain(const CostModel& cost, const ParallelDrainOptions& options) {
  const int nodes = std::max(options.nodes, 1);
  const uint32_t shard_count = static_cast<uint32_t>(std::min<int>(nodes, Simulator::kMaxShards));

  ClusterConfig config;
  config.worker_nodes = nodes;
  config.workers_have_dpu = false;  // The driver models the DNE stages itself.
  config.with_ingress_node = false;
  config.event_shards = shard_count;
  config.event_workers = options.event_workers;
  config.seed = options.seed;
  Testbed s(cost, config);
  Simulator& sim = s.sim();
  // The cluster installed the generic cost-model floor; this workload's
  // every cross-shard transition is a full fabric hop, so the horizon can be
  // an order of magnitude deeper (fewer windows, fewer barriers).
  sim.SetLookahead(OpenLoopShardEchoDriver::HopFloor(cost));

  OpenLoopSource::Options source_options;
  source_options.tick = options.tick;
  source_options.horizon = options.horizon;
  source_options.parallel = true;  // Shard-confined state for every worker count.
  OpenLoopSource source(s.env(), source_options);

  OpenLoopShardEchoDriver driver(s.env(), &source, cost, shard_count,
                                 options.buffers_per_shard);

  const double total_rps = static_cast<double>(options.users) * options.rps_per_user;
  const double tenant_rps = total_rps / static_cast<double>(nodes);
  for (int t = 0; t < nodes; ++t) {
    OpenLoopSource::TenantOptions tenant_options;
    tenant_options.schedule = TenantSchedule(tenant_rps, options.horizon, options.diurnal,
                                             options.flash_crowd_fraction);
    tenant_options.shard = static_cast<uint32_t>(t) % shard_count;
    tenant_options.max_in_flight = options.max_in_flight_per_tenant;
    source.AddTenant(tenant_options);

    // One tenant per client shard AND per server shard (t -> t+k mod n is a
    // bijection): single-origin arrival streams per engine keep same-instant
    // tie order identical between the serial and strided seq schemes.
    OpenLoopShardEchoDriver::TenantBinding binding;
    binding.client_shard = tenant_options.shard;
    binding.server_shard =
        (tenant_options.shard + std::max(shard_count / 2, 1u)) % shard_count;
    binding.payload = options.payload;
    binding.slo_target = options.slo_target;
    driver.AddTenant(binding);
  }

  // Per-worker counter lanes (DESIGN.md §3h): each worker counts dispatches
  // on its own cache line; the epoch barrier's serial section folds them into
  // the registry counter, so the metric is exact at every window edge without
  // a single contended atomic on the hot path.
  CounterLanes lanes = s.cluster().metrics().ResolveCounterLanes(
      "parallel_drain_dispatched_total", sim.worker_count());
  source.SetDispatch([&driver, &lanes, &sim](uint32_t tenant, SimTime issued_at) {
    const bool ok = driver.Issue(tenant, issued_at);
    if (ok) {
      lanes.Increment(sim.current_worker());
    }
    return ok;
  });
  if (options.event_workers > 1) {
    sim.SetBarrierHook([&lanes] { lanes.Fold(); });
  }

  source.Start();
  sim.RunUntil(options.horizon + options.drain);
  sim.SetBarrierHook(nullptr);
  lanes.Fold();  // Serial runs (and the post-join tail) fold here.

  ParallelDrainResult result;
  result.offered = source.offered();
  result.dispatched = source.dispatched();
  result.completed = source.completed();
  result.shed = source.shed();
  result.dropped = source.dropped();
  result.served = driver.served();
  result.server_drops = driver.server_drops();
  result.slo_violations = driver.slo_violations();
  result.digest = driver.digest();
  result.buffers_leaked = driver.buffers_leaked();
  result.goodput_rps = RatePerSecond(result.completed, options.horizon);
  const LatencyHistogram latencies = source.MergedLatencies();
  result.mean_latency_us = latencies.MeanUs();
  result.p99_latency_us = ToUs(latencies.Percentile(0.99));
  for (int t = 0; t < nodes; ++t) {
    const uint32_t tenant = static_cast<uint32_t>(t);
    result.tenant_completed.push_back(source.tenant_completed(tenant));
    result.tenant_served.push_back(driver.tenant_served(tenant));
    result.tenant_shed.push_back(source.tenant_shed(tenant));
    result.tenant_dropped.push_back(driver.tenant_dropped(tenant));
    result.tenant_slo_violations.push_back(driver.tenant_slo_violations(tenant));
  }
  result.sim_events = sim.events_processed();
  result.slab_slots = sim.slab_slots();
  result.heap_spills = sim.callback_heap_spills();
  result.windows = sim.parallel_windows();
  result.mail_delivered = sim.parallel_mail_delivered();
  result.horizon_clamps = sim.parallel_horizon_clamps();
  result.lane_dispatched = s.cluster().metrics().ValueOf("parallel_drain_dispatched_total");
  return result;
}

}  // namespace nadino
