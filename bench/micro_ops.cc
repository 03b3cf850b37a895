// Micro-operation benchmarks (google-benchmark) for the hot data structures
// behind the design choices DESIGN.md calls out: pool-based allocation vs
// malloc (section 3.4), DWRR scheduling overhead (section 3.3), HTTP parsing
// at the ingress (section 3.6), descriptor encode/decode (section 3.5.4), the
// message checksum, QP-cache behaviour under churn, and the host cost of one
// FifoResource job and of one two-sided RDMA SEND WR (section 3c).

#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <vector>

#include "src/core/nadino.h"

namespace {

using namespace nadino;

void BM_BufferPoolGetPut(benchmark::State& state) {
  HugepageArena arena;
  BufferPool pool(1, 1, 1024, static_cast<size_t>(state.range(0)), &arena);
  for (auto _ : state) {
    Buffer* b = pool.Get(OwnerId::External());
    benchmark::DoNotOptimize(b);
    pool.Put(b, OwnerId::External());
  }
}
BENCHMARK(BM_BufferPoolGetPut)->Arg(1024)->Arg(16384);

void BM_MallocFreeBaseline(benchmark::State& state) {
  for (auto _ : state) {
    void* p = ::operator new(static_cast<size_t>(state.range(0)));
    benchmark::DoNotOptimize(p);
    ::operator delete(p);
  }
}
BENCHMARK(BM_MallocFreeBaseline)->Arg(1024)->Arg(16384);

void BM_OwnershipTransfer(benchmark::State& state) {
  HugepageArena arena;
  BufferPool pool(1, 1, 8, 1024, &arena);
  Buffer* b = pool.Get(OwnerId::Function(1));
  bool forward = true;
  for (auto _ : state) {
    if (forward) {
      benchmark::DoNotOptimize(pool.Transfer(b, OwnerId::Function(1), OwnerId::Engine(2)));
    } else {
      benchmark::DoNotOptimize(pool.Transfer(b, OwnerId::Engine(2), OwnerId::Function(1)));
    }
    forward = !forward;
  }
}
BENCHMARK(BM_OwnershipTransfer);

void BM_DwrrEnqueueDequeue(benchmark::State& state) {
  DwrrScheduler scheduler(2048);
  const int tenants = static_cast<int>(state.range(0));
  for (int t = 1; t <= tenants; ++t) {
    scheduler.SetWeight(static_cast<TenantId>(t), static_cast<uint32_t>(t));
  }
  TxItem item;
  item.bytes = 1024;
  uint32_t next = 0;
  for (auto _ : state) {
    item.tenant = 1 + next++ % static_cast<uint32_t>(tenants);
    scheduler.Enqueue(item);
    TxItem out;
    benchmark::DoNotOptimize(scheduler.Dequeue(&out));
  }
}
BENCHMARK(BM_DwrrEnqueueDequeue)->Arg(1)->Arg(3)->Arg(16);

void BM_FcfsEnqueueDequeue(benchmark::State& state) {
  FcfsScheduler scheduler;
  TxItem item;
  item.tenant = 1;
  item.bytes = 1024;
  for (auto _ : state) {
    scheduler.Enqueue(item);
    TxItem out;
    benchmark::DoNotOptimize(scheduler.Dequeue(&out));
  }
}
BENCHMARK(BM_FcfsEnqueueDequeue);

void BM_HttpParseRequest(benchmark::State& state) {
  HttpRequest request;
  request.method = "POST";
  request.target = "/product";
  request.headers = {{"Host", "nadino.cluster"}, {"User-Agent", "wrk/4"}};
  request.body = std::string(static_cast<size_t>(state.range(0)), 'x');
  const std::string wire = HttpCodec::Serialize(request);
  for (auto _ : state) {
    HttpRequest parsed;
    size_t consumed = 0;
    benchmark::DoNotOptimize(HttpCodec::ParseRequest(wire, &parsed, &consumed));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * wire.size()));
}
BENCHMARK(BM_HttpParseRequest)->Arg(64)->Arg(4096);

void BM_DescriptorEncodeDecode(benchmark::State& state) {
  BufferDescriptor desc{3, 1000, 4096, 42};
  for (auto _ : state) {
    const auto wire = desc.Encode();
    benchmark::DoNotOptimize(BufferDescriptor::Decode(wire));
  }
}
BENCHMARK(BM_DescriptorEncodeDecode);

void BM_MessageHeaderWriteRead(benchmark::State& state) {
  HugepageArena arena;
  BufferPool pool(1, 1, 2, 16384, &arena);
  Buffer* b = pool.Get(OwnerId::External());
  MessageHeader header;
  header.payload_length = static_cast<uint32_t>(state.range(0));
  header.request_id = 7;
  for (auto _ : state) {
    WriteMessage(b, header);
    benchmark::DoNotOptimize(ReadMessage(*b));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_MessageHeaderWriteRead)->Arg(256)->Arg(4096);

// A forwarding hop: re-address a buffer that holds range(0) payload bytes as a
// range(1)-byte message. Same length costs the header and checksum only; a
// longer message also synthesizes its tail.
void BM_MessageHeaderRewrite(benchmark::State& state) {
  HugepageArena arena;
  BufferPool pool(1, 1, 2, 16384, &arena);
  Buffer* b = pool.Get(OwnerId::External());
  MessageHeader header;
  header.payload_length = static_cast<uint32_t>(state.range(0));
  header.request_id = 7;
  WriteMessage(b, header);
  const uint32_t held = b->length;
  header.payload_length = static_cast<uint32_t>(state.range(1));
  header.request_id = 8;
  for (auto _ : state) {
    b->length = held;
    RewriteHeader(b, header);
    benchmark::DoNotOptimize(ReadMessage(*b));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(1));
}
BENCHMARK(BM_MessageHeaderRewrite)->Args({256, 256})->Args({4096, 4096})->Args({256, 4096});

void BM_Checksum(benchmark::State& state) {
  std::vector<std::byte> bytes(static_cast<size_t>(state.range(0)));
  FillLcgBytes(bytes, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Checksum(bytes));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Checksum)->Arg(64)->Arg(1024)->Arg(4096);

void BM_QpCacheChurn(benchmark::State& state) {
  QpCache cache(64);
  const QpNum span = static_cast<QpNum>(state.range(0));
  QpNum next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Touch(next++ % span));
  }
}
BENCHMARK(BM_QpCacheChurn)->Arg(32)->Arg(256);

void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(i, []() {});
    }
    sim.Run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleRun);

// Host cost per event of 16 short self-rescheduling events with range(0)
// 5 ms timers armed and then cancelled beside them (the RDMA ACK-timeout
// pattern). Virtual time stays at 0, so no timer deadline is ever reached:
// only the purge keeps the cancelled timers out of the heap, and with it
// ns/event does not grow with range(0).
void BM_EventLoopWithCancelledTimers(benchmark::State& state) {
  constexpr int kChains = 16;
  constexpr int kEventsPerIteration = 1024;
  Simulator sim;
  std::function<void()> hop = [&sim, &hop]() { sim.Schedule(0, [&hop]() { hop(); }); };
  for (int c = 0; c < kChains; ++c) {
    sim.Schedule(0, [&hop]() { hop(); });
  }
  std::vector<EventId> timers;
  for (int64_t i = 0; i < state.range(0); ++i) {
    timers.push_back(sim.Schedule(5 * kMillisecond, []() {}));
  }
  for (const EventId id : timers) {
    sim.Cancel(id);
  }
  for (auto _ : state) {
    for (int i = 0; i < kEventsPerIteration; ++i) {
      sim.Step();
    }
  }
  benchmark::DoNotOptimize(sim.events_processed());
  state.SetItemsProcessed(state.iterations() * kEventsPerIteration);
}
BENCHMARK(BM_EventLoopWithCancelledTimers)->Arg(0)->Arg(1000)->Arg(10000);

// Host cost of one FifoResource job: submit, complete, run the callback.
// The capture (three words) is the size of a typical core job.
void BM_FifoResourceSubmit(benchmark::State& state) {
  Simulator sim;
  FifoResource core(&sim, "core");
  uint64_t sink = 0;
  uint64_t* sink_ptr = &sink;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      core.Submit(10, [sink_ptr, i, &core]() { *sink_ptr += i + core.queue_depth(); });
    }
    sim.Run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_FifoResourceSubmit);

// Host cost of one two-sided SEND WR of range(0) bytes between two RNICs,
// from PostSend through the receive CQE, the ACK and the send CQE; the
// receiver reposts each consumed buffer.
void BM_RdmaSendWr(benchmark::State& state) {
  constexpr TenantId kTenant = 1;
  const auto bytes = static_cast<uint32_t>(state.range(0));
  CostModel cost = CostModel::Default();
  Simulator sim;
  Env env(&sim, &cost);
  RdmaNetwork network(env);
  RdmaEngine a(env, 1, &network);
  RdmaEngine b(env, 2, &network);
  TenantRegistry registry_a;
  TenantRegistry registry_b;
  BufferPool* pool_a = registry_a.CreatePool(kTenant, "a", {4, 4096});
  BufferPool* pool_b = registry_b.CreatePool(kTenant, "b", {16, 4096});
  const QpNum qp = RdmaEngine::CreateConnectedPair(a, b, kTenant).first;
  for (uint64_t wr = 0; wr < 16; ++wr) {
    b.PostRecvBuffer(pool_b, pool_b->Get(OwnerId::External(2)), OwnerId::External(2), wr);
  }
  b.cq().SetHandler([&](const Completion& cqe) {
    pool_b->Transfer(cqe.buffer, OwnerId::Rnic(2), OwnerId::External(2));
    b.PostRecvBuffer(pool_b, cqe.buffer, OwnerId::External(2), cqe.wr_id);
  });
  uint64_t completions = 0;
  a.cq().SetHandler([&](const Completion&) { ++completions; });
  Buffer* src = pool_a->Get(OwnerId::Rnic(1));
  src->FillPattern(7, bytes);
  uint64_t wr_id = 0;
  for (auto _ : state) {
    a.PostSend(qp, *src, ++wr_id);
    sim.Run();
  }
  if (completions != wr_id) {
    state.SkipWithError("a SEND WR did not complete");
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_RdmaSendWr)->Arg(256)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
