// Per-layer drivers: host time of calls into one layer's public functions,
// measured from the benchmark's own code. Each driver times a few batches and
// reports the median per-operation cost; each checks its own outputs.

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "src/core/experiments.h"
#include "src/dne/scheduler.h"
#include "src/dpu/comch.h"
#include "src/mem/tenant_registry.h"
#include "src/rdma/rdma_engine.h"
#include "src/runtime/message_header.h"
#include "src/sim/metrics.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/transport/http.h"

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

using namespace nadino;

// Times `batches` calls of `batch()`, each returning the operations it did;
// returns the median nanoseconds per operation.
double MedianNsPerOp(int batches, const std::function<uint64_t()>& batch) {
  std::vector<double> samples;
  for (int b = 0; b < batches; ++b) {
    const double start = NowSeconds();
    const uint64_t ops = batch();
    const double elapsed = NowSeconds() - start;
    samples.push_back(ops == 0 ? 0.0 : elapsed * 1e9 / static_cast<double>(ops));
  }
  return Median(samples);
}

void Check(bool ok, const std::string& what, DriverResult* result) {
  if (!ok) {
    result->violations.push_back(what);
  }
}

}  // namespace

// The bare event core: `width` self-rescheduling timers, no model code.
DriverResult CoreNsPerEvent(uint64_t width, uint64_t seed, bool quick) {
  DriverResult result;
  const uint64_t total = quick ? 50'000 : 1'000'000;
  uint64_t batch_index = 0;
  result.value = MedianNsPerOp(quick ? 1 : 5, [&]() -> uint64_t {
    Simulator sim;
    Rng rng(seed + batch_index++);
    uint64_t fired = 0;
    struct Timer {
      Simulator* sim;
      uint64_t* fired;
      uint64_t limit;
      SimDuration period;
      void Fire() {
        if (++*fired >= limit) {
          return;
        }
        sim->Schedule(period, [t = *this]() mutable { t.Fire(); });
      }
    };
    for (uint64_t i = 0; i < width; ++i) {
      const auto period = static_cast<SimDuration>(100 + rng.UniformInt(0, width));
      Timer t{&sim, &fired, total, period};
      sim.Schedule(static_cast<SimDuration>(i), [t]() mutable { t.Fire(); });
    }
    sim.Run();
    return sim.events_processed();
  });
  Check(result.value > 0, "event core executed nothing", &result);
  return result;
}

// Simulator::ScheduleBatch admission of one 10 ms tick of openloop_1m's
// arrivals (1M users x 1 rps) over 4 shards, each shard already holding its
// share of the in-flight peak. Reports ns per admitted arrival.
DriverResult BatchAdmitNs(uint64_t seed, bool quick) {
  DriverResult result;
  constexpr uint32_t kShards = 4;
  constexpr uint32_t kTenants = 8;
  constexpr uint64_t kArrivalsPerTick = 10'000;
  constexpr uint64_t kBacklogPerShard = 2048;
  constexpr SimDuration kTick = 10 * kMillisecond;
  Simulator sim;
  sim.SetShardCount(kShards);
  Rng rng(seed);
  uint64_t fired = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    const std::vector<SimTime> backlog(kBacklogPerShard, 1000 * kSecond);
    sim.ScheduleBatch(s, backlog, [&fired](size_t) { return [&fired]() { ++fired; }; });
  }
  std::vector<std::vector<SimTime>> whens(kShards);
  std::vector<double> samples;
  const int ticks = quick ? 3 : 40;
  for (int tick = 0; tick < ticks; ++tick) {
    const SimTime base = sim.now();
    for (auto& w : whens) {
      w.clear();
    }
    for (uint64_t i = 0; i < kArrivalsPerTick; ++i) {
      const uint64_t tenant = rng.UniformInt(0, kTenants - 1);
      whens[tenant % kShards].push_back(base + static_cast<SimTime>(rng.UniformInt(0, kTick - 1)));
    }
    for (auto& w : whens) {
      std::sort(w.begin(), w.end());
    }
    const double start = NowSeconds();
    for (uint32_t s = 0; s < kShards; ++s) {
      sim.ScheduleBatch(s, whens[s], [&fired](size_t) { return [&fired]() { ++fired; }; });
    }
    const double elapsed = NowSeconds() - start;
    samples.push_back(elapsed * 1e9 / static_cast<double>(kArrivalsPerTick));
    sim.RunUntil(base + kTick);
  }
  result.value = Median(samples);
  Check(fired == kArrivalsPerTick * static_cast<uint64_t>(ticks),
        "batch-admitted arrivals fired " + std::to_string(fired) + " times", &result);
  Check(sim.pending_events() == kShards * kBacklogPerShard, "admission backlog changed", &result);
  return result;
}

// MetricsRegistry::SnapshotJson on a registry with `entries` instruments.
DriverResult SnapshotUs(uint64_t entries, uint64_t seed, bool quick) {
  DriverResult result;
  MetricsRegistry registry;
  Rng rng(seed);
  for (uint64_t i = 0; i < entries; ++i) {
    MetricLabels labels;
    labels.node = static_cast<int64_t>(i % 4);
    labels.tenant = static_cast<int64_t>(i % 8);
    labels.engine = static_cast<int64_t>(i);
    const std::string name = "bench_metric_" + std::to_string(i % 32);
    if (i % 16 == 15) {
      registry.Histogram(name + "_latency", labels).Record(
          static_cast<int64_t>(rng.UniformInt(1, 1'000'000)));
    } else {
      registry.Counter(name, labels).Add(rng.UniformInt(0, 1'000'000'000));
    }
  }
  size_t bytes = 0;
  result.value = MedianNsPerOp(quick ? 3 : 30, [&]() -> uint64_t {
                   bytes = registry.SnapshotJson().size();
                   return 1;
                 }) /
                 1000.0;
  Check(registry.size() == entries && bytes > entries, "snapshot lost instruments", &result);
  return result;
}

// RunParallelDrain at 1M users: serial drain wall time over the W=2 drain's.
// The two runs must agree bit for bit (digest, counts).
DriverResult DrainSpeedupW2(uint64_t seed, bool quick) {
  DriverResult result;
  ParallelDrainOptions options;
  options.users = 1'000'000;
  options.horizon = quick ? 5 * kMillisecond : 50 * kMillisecond;
  options.drain = quick ? 5 * kMillisecond : 20 * kMillisecond;
  options.seed = seed;
  auto timed = [&](uint32_t workers, ParallelDrainResult* out) {
    ParallelDrainOptions o = options;
    o.event_workers = workers;
    const double start = NowSeconds();
    *out = RunParallelDrain(CostModel::Default(), o);
    return NowSeconds() - start;
  };
  std::vector<double> ratios;
  const int pairs = quick ? 1 : 3;
  for (int p = 0; p < pairs; ++p) {
    ParallelDrainResult serial;
    ParallelDrainResult parallel;
    double serial_s = 0.0;
    double parallel_s = 0.0;
    if (p % 2 == 0) {
      serial_s = timed(1, &serial);
      parallel_s = timed(2, &parallel);
    } else {
      parallel_s = timed(2, &parallel);
      serial_s = timed(1, &serial);
    }
    ratios.push_back(serial_s / parallel_s);
    Check(serial.digest == parallel.digest && serial.offered == parallel.offered &&
              serial.completed == parallel.completed && serial.shed == parallel.shed,
          "parallel drain W=2 diverged from W=1", &result);
    Check(serial.offered == serial.dispatched + serial.shed && serial.completed > 0,
          "parallel drain accounting broken", &result);
  }
  result.value = Median(ratios);
  return result;
}

// HttpCodec: parse the 256 B echo request and serialize its response.
DriverResult HttpParseNs(uint64_t seed, bool quick) {
  DriverResult result;
  Rng rng(seed);
  HttpRequest request;
  request.method = "POST";
  request.target = "/echo";
  request.headers.push_back({"Host", "gateway"});
  request.headers.push_back({"Content-Type", "application/octet-stream"});
  for (int i = 0; i < 256; ++i) {
    request.body.push_back(static_cast<char>('a' + rng.UniformInt(0, 25)));
  }
  const std::string wire = HttpCodec::Serialize(request);
  const uint64_t iters = quick ? 2'000 : 50'000;
  uint64_t bad = 0;
  size_t response_bytes = 0;
  result.value = MedianNsPerOp(quick ? 1 : 5, [&]() -> uint64_t {
    for (uint64_t i = 0; i < iters; ++i) {
      HttpRequest parsed;
      size_t consumed = 0;
      if (HttpCodec::ParseRequest(wire, &parsed, &consumed) != HttpParseResult::kOk ||
          consumed != wire.size() || parsed.body.size() != request.body.size()) {
        ++bad;
      }
      HttpResponse response;
      response.headers.push_back({"Content-Type", "application/octet-stream"});
      response.body = std::move(parsed.body);
      response_bytes += HttpCodec::Serialize(response).size();
    }
    return iters;
  });
  HttpRequest last;
  size_t consumed = 0;
  Check(bad == 0 && HttpCodec::ParseRequest(wire, &last, &consumed) == HttpParseResult::kOk &&
            last.body == request.body && response_bytes > 0,
        "HTTP round trip lost the request body", &result);
  return result;
}

// DwrrScheduler Enqueue + Dequeue with tenants_dwrr's weights, message sizes
// and per-tenant backlog (its windows), kept at that depth.
DriverResult DwrrNs(uint64_t seed, bool quick) {
  DriverResult result;
  struct Tenant {
    TenantId id;
    uint32_t weight;
    uint32_t bytes;
    int backlog;
  };
  const Tenant tenants[] = {{1, 6, 1024, 64}, {2, 1, 64, 64}, {3, 2, 4096, 96}, {4, 1, 1024, 32}};
  DwrrScheduler scheduler;
  std::vector<TxItem> initial;
  for (const Tenant& t : tenants) {
    scheduler.SetWeight(t.id, t.weight);
    for (int i = 0; i < t.backlog; ++i) {
      TxItem item;
      item.tenant = t.id;
      item.bytes = t.bytes;
      item.desc.length = t.bytes;
      initial.push_back(item);
    }
  }
  Rng rng(seed);
  for (size_t i = initial.size(); i > 1; --i) {
    std::swap(initial[i - 1], initial[rng.UniformInt(0, i - 1)]);
  }
  for (const TxItem& item : initial) {
    scheduler.Enqueue(item);
  }
  const size_t depth = scheduler.pending();
  const uint64_t iters = quick ? 20'000 : 1'000'000;
  uint64_t empty = 0;
  result.value = MedianNsPerOp(quick ? 1 : 5, [&]() -> uint64_t {
    for (uint64_t i = 0; i < iters; ++i) {
      TxItem item;
      if (!scheduler.Dequeue(&item)) {
        ++empty;
        continue;
      }
      scheduler.Enqueue(item);
    }
    return iters;
  });
  Check(empty == 0 && scheduler.pending() == depth, "DWRR backlog drained", &result);
  // Deficit accounting serves bytes in proportion to weight under backlog.
  const double heavy = static_cast<double>(scheduler.Served(1)) * 1024.0;
  const double light = static_cast<double>(scheduler.Served(4)) * 1024.0;
  Check(light > 0 && heavy / light > 5.0 && heavy / light < 7.0,
        "DWRR byte shares off the 6:1 weights", &result);
  return result;
}

// One Comch-E hop each way (SendToDpu + SendToHost) on a bare Env, events
// included. Reports ns per hop.
DriverResult ComchHopNs(uint64_t seed, bool quick) {
  DriverResult result;
  const CostModel cost = CostModel::Default();
  constexpr FunctionId kFn = 7;
  const uint64_t round_trips = quick ? 2'000 : 100'000;
  uint64_t done = 0;
  result.value = MedianNsPerOp(quick ? 1 : 5, [&]() -> uint64_t {
    Simulator sim;
    Env env(&sim, &cost, seed);
    FifoResource dpu_core(&sim, "dpu");
    FifoResource host_core(&sim, "host");
    ComchServer server(env, &dpu_core, /*engine_managed_polling=*/false, /*node=*/1);
    server.SetReceiver(
        [&server](FunctionId fn, const BufferDescriptor& desc) { server.SendToHost(fn, desc); });
    uint64_t completed = 0;
    const BufferDescriptor desc{1, 0, 256, kFn};
    server.ConnectEndpoint(
        kFn, ComchVariant::kEvent, &host_core,
        [&](const BufferDescriptor&) {
          if (++completed < round_trips) {
            server.SendToDpu(kFn, desc);
          }
        },
        /*tenant=*/1);
    sim.Schedule(0, [&]() { server.SendToDpu(kFn, desc); });
    sim.Run();
    done = completed;
    return 2 * completed;
  });
  Check(done == round_trips, "Comch round trips lost", &result);
  return result;
}

// One-WR RdmaEngine::PostWr (two-sided send) through to its send CQE on a
// two-node RNIC pair, the receiver reposting each buffer. Reports ns per WR.
DriverResult PostWrNs(uint64_t seed, bool quick) {
  DriverResult result;
  const CostModel cost = CostModel::Default();
  constexpr TenantId kTenant = 5;
  const uint64_t wrs = quick ? 2'000 : 50'000;
  uint64_t sent_ok = 0;
  uint64_t received = 0;
  bool payload_ok = true;
  result.value = MedianNsPerOp(quick ? 1 : 5, [&]() -> uint64_t {
    Simulator sim;
    Env env(&sim, &cost, seed);
    RdmaNetwork network(env);
    RdmaEngine a(env, 1, &network);
    RdmaEngine b(env, 2, &network);
    TenantRegistry registry_a;
    TenantRegistry registry_b;
    BufferPool* pool_a = registry_a.CreatePool(kTenant, "a", {32, 4096});
    BufferPool* pool_b = registry_b.CreatePool(kTenant, "b", {32, 4096});
    a.mr_table().Register(pool_a, kMrLocal);
    b.mr_table().Register(pool_b, kMrLocal);
    const QpNum qp = RdmaEngine::CreateConnectedPair(a, b, kTenant).first;
    uint64_t recv_wr = 1;
    for (int i = 0; i < 16; ++i) {
      Buffer* buffer = pool_b->Get(OwnerId::External(2));
      b.PostRecvBuffer(pool_b, buffer, OwnerId::External(2), recv_wr++);
    }
    Buffer* src = pool_a->Get(OwnerId::Rnic(1));
    src->FillPattern(seed, 256);
    const uint64_t src_sum = Checksum(src->payload());
    WorkRequest wr;
    wr.opcode = RdmaOpcode::kSend;
    wr.src = src;
    uint64_t sent = 0;
    uint64_t got = 0;
    b.cq().SetHandler([&](const Completion& cqe) {
      if (cqe.opcode != RdmaOpcode::kRecv || cqe.buffer == nullptr) {
        return;
      }
      ++got;
      payload_ok = payload_ok && Checksum(cqe.buffer->payload()) == src_sum;
      pool_b->Transfer(cqe.buffer, OwnerId::Rnic(2), OwnerId::External(2));
      b.PostRecvBuffer(pool_b, cqe.buffer, OwnerId::External(2), recv_wr++);
    });
    a.cq().SetHandler([&](const Completion& cqe) {
      if (cqe.opcode != RdmaOpcode::kSend || cqe.status != WrStatus::kSuccess) {
        return;
      }
      if (++sent < wrs) {
        wr.wr_id = sent;
        a.PostWr(qp, wr);
      }
    });
    sim.Schedule(0, [&]() { a.PostWr(qp, wr); });
    sim.Run();
    sent_ok = sent;
    received = got;
    return sent;
  });
  Check(sent_ok == wrs && received == wrs && payload_ok, "PostWr sends lost or corrupted",
        &result);
  return result;
}

// BufferPool::Get + Put, eight buffers held at a time.
DriverResult PoolGetPutNs(uint64_t seed, bool quick) {
  DriverResult result;
  TenantRegistry registry;
  BufferPool* pool = registry.CreatePool(1, "bench", {1024, 2048});
  const OwnerId owner = OwnerId::Function(static_cast<FunctionId>(seed % 1000 + 1));
  const uint64_t rounds = quick ? 2'000 : 200'000;
  Buffer* held[8] = {};
  result.value = MedianNsPerOp(quick ? 1 : 5, [&]() -> uint64_t {
    for (uint64_t r = 0; r < rounds; ++r) {
      for (Buffer*& buffer : held) {
        buffer = pool->Get(owner);
      }
      for (Buffer* buffer : held) {
        pool->Put(buffer, owner);
      }
    }
    return rounds * 8;
  });
  const BufferPool::Stats& stats = pool->stats();
  Check(stats.get_failures == 0 && stats.ownership_violations == 0 &&
            pool->free_count() == pool->capacity() && stats.gets == stats.puts,
        "buffer pool accounting broken", &result);
  return result;
}

// WriteMessage + ReadMessage (checksum verified) cycling 256/1024/4096 B.
DriverResult HeaderRwNs(uint64_t seed, bool quick) {
  DriverResult result;
  TenantRegistry registry;
  BufferPool* pool = registry.CreatePool(1, "hdr", {4, 8192});
  Buffer* buffer = pool->Get(OwnerId::External(1));
  const uint32_t sizes[] = {256, 1024, 4096};
  const uint64_t iters = quick ? 3'000 : 60'000;
  uint64_t bad = 0;
  uint64_t request_id = seed;
  result.value = MedianNsPerOp(quick ? 1 : 5, [&]() -> uint64_t {
    for (uint64_t i = 0; i < iters; ++i) {
      MessageHeader header;
      header.chain = 1;
      header.src = 100;
      header.dst = 200;
      header.payload_length = sizes[i % 3];
      header.request_id = ++request_id;
      const bool written = WriteMessage(buffer, header);
      const std::optional<MessageHeader> read = ReadMessage(*buffer);
      if (!written || !read.has_value() || read->request_id != request_id ||
          read->payload_length != header.payload_length) {
        ++bad;
      }
    }
    return iters;
  });
  Check(bad == 0, "message header round trip failed", &result);
  return result;
}

}  // namespace perfbench
