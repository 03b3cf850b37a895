// Integration tests for the NADINO data plane + chain executor: routing,
// exclusive ownership, the zero-copy invariant, and end-to-end payload
// integrity across intra- and inter-node hops.

#include "src/dne/nadino_dataplane.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "src/core/experiments.h"
#include "src/runtime/chain.h"
#include "src/runtime/message_header.h"
#include "tests/registry_read.h"

namespace nadino {
namespace {

class DataPlaneTest : public ::testing::Test {
 protected:
  DataPlaneTest() {
    ClusterConfig config;
    config.worker_nodes = 2;
    config.with_ingress_node = false;
    cluster_ = std::make_unique<Cluster>(&cost_, config);
    cluster_->CreateTenantPools(1, 512, 8192);
    dataplane_ = std::make_unique<NadinoDataPlane>(cluster_->env(), &cluster_->routing(),
                                                   NadinoDataPlane::Options{});
    dataplane_->AddWorkerNode(cluster_->worker(0));
    dataplane_->AddWorkerNode(cluster_->worker(1));
    dataplane_->AttachTenant(1, 1);
    dataplane_->Start();
  }

  std::unique_ptr<FunctionRuntime> MakeFunction(FunctionId id, int node) {
    Node* n = cluster_->worker(node);
    auto fn = std::make_unique<FunctionRuntime>(id, 1, "fn" + std::to_string(id), n,
                                                n->AllocateCore(),
                                                n->tenants().PoolOfTenant(1));
    dataplane_->RegisterFunction(fn.get());
    return fn;
  }

  CostModel cost_ = CostModel::Default();
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<NadinoDataPlane> dataplane_;
};

TEST_F(DataPlaneTest, IntraNodeSendUsesSharedMemoryPath) {
  auto src = MakeFunction(11, 0);
  auto dst = MakeFunction(12, 0);
  uint64_t received_checksum = 0;
  dst->SetHandler([&](FunctionRuntime& fn, Buffer* buffer) {
    // Ownership reached the destination function.
    EXPECT_EQ(buffer->owner, fn.owner_id());
    received_checksum = ReadMessage(*buffer)->payload_checksum;
    fn.pool()->Put(buffer, fn.owner_id());
  });
  Buffer* out = src->pool()->Get(src->owner_id());
  MessageHeader header;
  header.src = 11;
  header.dst = 12;
  header.payload_length = 1024;
  header.request_id = 5;
  WriteMessage(out, header);
  const uint64_t sent = ReadMessage(*out)->payload_checksum;
  ASSERT_TRUE(dataplane_->Send(src.get(), out));
  cluster_->sim().RunFor(kMillisecond);
  EXPECT_EQ(received_checksum, sent);
  EXPECT_EQ(RegistryCounter(cluster_->metrics(), "dataplane_intra_node"), 1u);
  EXPECT_EQ(RegistryCounter(cluster_->metrics(), "dataplane_inter_node"), 0u);
  // Zero software copies on the NADINO path.
  EXPECT_EQ(RegistryCounter(cluster_->metrics(), "dataplane_payload_copies"), 0u);
}

TEST_F(DataPlaneTest, IntraNodeSendIsZeroCopySameBuffer) {
  auto src = MakeFunction(11, 0);
  auto dst = MakeFunction(12, 0);
  Buffer* delivered = nullptr;
  dst->SetHandler([&](FunctionRuntime& fn, Buffer* buffer) {
    delivered = buffer;
    fn.pool()->Put(buffer, fn.owner_id());
  });
  Buffer* out = src->pool()->Get(src->owner_id());
  MessageHeader header;
  header.src = 11;
  header.dst = 12;
  header.payload_length = 64;
  WriteMessage(out, header);
  dataplane_->Send(src.get(), out);
  cluster_->sim().RunFor(kMillisecond);
  // Intra-node: literally the same buffer object moved, no copy at all.
  EXPECT_EQ(delivered, out);
}

TEST_F(DataPlaneTest, InterNodeSendCrossesViaEngineAndKeepsIntegrity) {
  auto src = MakeFunction(11, 0);
  auto dst = MakeFunction(12, 1);
  uint64_t received_checksum = 0;
  Buffer* delivered = nullptr;
  dst->SetHandler([&](FunctionRuntime& fn, Buffer* buffer) {
    delivered = buffer;
    received_checksum = ReadMessage(*buffer)->payload_checksum;
    fn.pool()->Put(buffer, fn.owner_id());
  });
  Buffer* out = src->pool()->Get(src->owner_id());
  MessageHeader header;
  header.src = 11;
  header.dst = 12;
  header.payload_length = 4096;
  header.request_id = 9;
  WriteMessage(out, header);
  const uint64_t sent = ReadMessage(*out)->payload_checksum;
  ASSERT_TRUE(dataplane_->Send(src.get(), out));
  cluster_->sim().RunFor(10 * kMillisecond);
  ASSERT_NE(delivered, nullptr);
  EXPECT_NE(delivered, out);  // Different node: a different pool's buffer.
  EXPECT_EQ(delivered->pool, cluster_->worker(1)->tenants().PoolOfTenant(1)->id());
  EXPECT_EQ(received_checksum, sent);
  EXPECT_EQ(RegistryCounter(cluster_->metrics(), "dataplane_inter_node"), 1u);
  // RDMA is not a SW copy.
  EXPECT_EQ(RegistryCounter(cluster_->metrics(), "dataplane_payload_copies"), 0u);
}

TEST_F(DataPlaneTest, SenderBufferRecycledAfterSendCompletion) {
  auto src = MakeFunction(11, 0);
  auto dst = MakeFunction(12, 1);
  dst->SetHandler([](FunctionRuntime& fn, Buffer* buffer) {
    fn.pool()->Put(buffer, fn.owner_id());
  });
  BufferPool* pool = src->pool();
  const size_t in_use_before = pool->in_use();
  Buffer* out = pool->Get(src->owner_id());
  MessageHeader header;
  header.src = 11;
  header.dst = 12;
  header.payload_length = 128;
  WriteMessage(out, header);
  dataplane_->Send(src.get(), out);
  cluster_->sim().RunFor(10 * kMillisecond);
  EXPECT_EQ(pool->in_use(), in_use_before);
}

TEST_F(DataPlaneTest, MalformedMessageRejectedWithoutOwnershipChange) {
  auto src = MakeFunction(11, 0);
  Buffer* out = src->pool()->Get(src->owner_id());
  out->length = 4;  // No valid header.
  EXPECT_FALSE(dataplane_->Send(src.get(), out));
  EXPECT_EQ(out->owner, src->owner_id());
  EXPECT_EQ(RegistryCounter(cluster_->metrics(), "dataplane_drops"), 1u);
}

TEST_F(DataPlaneTest, UnplacedDestinationRejected) {
  auto src = MakeFunction(11, 0);
  Buffer* out = src->pool()->Get(src->owner_id());
  MessageHeader header;
  header.src = 11;
  header.dst = 444;
  header.payload_length = 64;
  WriteMessage(out, header);
  EXPECT_FALSE(dataplane_->Send(src.get(), out));
  EXPECT_EQ(out->owner, src->owner_id());
}

TEST_F(DataPlaneTest, SendFromNonOwnerRejected) {
  auto src = MakeFunction(11, 0);
  auto other = MakeFunction(13, 0);
  auto dst = MakeFunction(12, 0);
  Buffer* out = src->pool()->Get(src->owner_id());
  MessageHeader header;
  header.src = 13;
  header.dst = 12;
  header.payload_length = 64;
  WriteMessage(out, header);
  // `other` does not own the buffer; the ownership transfer must fail.
  EXPECT_FALSE(dataplane_->Send(other.get(), out));
  EXPECT_EQ(out->owner, src->owner_id());
}

TEST_F(DataPlaneTest, ChainExecutorRunsLinearChainAcrossNodes) {
  auto f1 = MakeFunction(11, 0);
  auto f2 = MakeFunction(12, 1);
  auto f3 = MakeFunction(13, 0);
  auto client = MakeFunction(10, 0);

  ChainExecutor executor(cluster_->env(), dataplane_.get());
  ChainSpec chain;
  chain.id = 1;
  chain.tenant = 1;
  chain.entry = 11;
  FunctionBehavior b1;
  b1.compute = 10 * kMicrosecond;
  b1.calls = {{12, 256}};
  b1.response_payload = 512;
  chain.behaviors[11] = b1;
  FunctionBehavior b2;
  b2.compute = 10 * kMicrosecond;
  b2.calls = {{13, 128}};
  b2.response_payload = 256;
  chain.behaviors[12] = b2;
  FunctionBehavior b3;
  b3.compute = 5 * kMicrosecond;
  b3.response_payload = 128;
  chain.behaviors[13] = b3;
  executor.RegisterChain(chain);
  EXPECT_EQ(chain.ExpectedExchanges(), 4u);
  executor.AttachFunction(f1.get());
  executor.AttachFunction(f2.get());
  executor.AttachFunction(f3.get());

  bool response_received = false;
  client->SetHandler([&](FunctionRuntime& fn, Buffer* buffer) {
    const auto header = ReadMessage(*buffer);
    ASSERT_TRUE(header.has_value());
    EXPECT_TRUE(header->is_response());
    EXPECT_EQ(header->payload_length, 512u);
    response_received = true;
    fn.pool()->Put(buffer, fn.owner_id());
  });
  Buffer* request = client->pool()->Get(client->owner_id());
  MessageHeader header;
  header.chain = 1;
  header.src = 10;
  header.dst = 11;
  header.payload_length = 256;
  header.request_id = executor.NextRequestId();
  WriteMessage(request, header);
  ASSERT_TRUE(dataplane_->Send(client.get(), request));
  cluster_->sim().RunFor(50 * kMillisecond);
  EXPECT_TRUE(response_received);
  EXPECT_EQ(executor.errors(), 0u);
  EXPECT_EQ(executor.requests_handled(), 3u);
}

TEST_F(DataPlaneTest, ChainFanOutIssuesSequentialCalls) {
  auto frontend = MakeFunction(11, 0);
  auto leaf_a = MakeFunction(12, 1);
  auto leaf_b = MakeFunction(13, 1);
  auto leaf_c = MakeFunction(14, 0);
  auto client = MakeFunction(10, 0);

  ChainExecutor executor(cluster_->env(), dataplane_.get());
  ChainSpec chain;
  chain.id = 2;
  chain.tenant = 1;
  chain.entry = 11;
  FunctionBehavior fe;
  fe.compute = 5 * kMicrosecond;
  fe.calls = {{12, 64}, {13, 64}, {14, 64}};
  fe.response_payload = 400;
  chain.behaviors[11] = fe;
  for (FunctionId leaf : {12u, 13u, 14u}) {
    FunctionBehavior b;
    b.compute = 2 * kMicrosecond;
    b.response_payload = 100;
    chain.behaviors[leaf] = b;
  }
  executor.RegisterChain(chain);
  EXPECT_EQ(chain.ExpectedExchanges(), 6u);
  executor.AttachFunction(frontend.get());
  executor.AttachFunction(leaf_a.get());
  executor.AttachFunction(leaf_b.get());
  executor.AttachFunction(leaf_c.get());

  bool done = false;
  client->SetHandler([&](FunctionRuntime& fn, Buffer* buffer) {
    done = true;
    fn.pool()->Put(buffer, fn.owner_id());
  });
  Buffer* request = client->pool()->Get(client->owner_id());
  MessageHeader header;
  header.chain = 2;
  header.src = 10;
  header.dst = 11;
  header.payload_length = 64;
  header.request_id = executor.NextRequestId();
  WriteMessage(request, header);
  dataplane_->Send(client.get(), request);
  cluster_->sim().RunFor(50 * kMillisecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(leaf_a->messages_received(), 1u);
  EXPECT_EQ(leaf_b->messages_received(), 1u);
  EXPECT_EQ(leaf_c->messages_received(), 1u);
  EXPECT_EQ(executor.errors(), 0u);
}

// Origins synthesize a payload once and hops forward it: every request a hop
// issues, and every reply, carries the bytes the hop received, so a leaf's
// payload begins with its caller's. A shorter call keeps a prefix of them and
// a longer one appends a tail. Two of the hops cross nodes over RDMA.
TEST_F(DataPlaneTest, ChainHopsForwardTheBytesTheyReceived) {
  auto f1 = MakeFunction(11, 0);
  auto f2 = MakeFunction(12, 1);
  auto f3 = MakeFunction(13, 0);
  auto client = MakeFunction(10, 0);

  ChainExecutor executor(cluster_->env(), dataplane_.get());
  ChainSpec chain;
  chain.id = 4;
  chain.tenant = 1;
  chain.entry = 11;
  FunctionBehavior b1;
  b1.calls = {{12, 512}};  // Shorter than the 1024 B it received.
  b1.response_payload = 256;
  chain.behaviors[11] = b1;
  FunctionBehavior b2;
  b2.calls = {{13, 768}};  // Longer than the 512 B it received.
  b2.response_payload = 256;
  chain.behaviors[12] = b2;
  FunctionBehavior b3;
  b3.response_payload = 256;
  chain.behaviors[13] = b3;
  executor.RegisterChain(chain);

  // Record the payload of each request and response a function receives,
  // then run the executor's handler.
  std::map<FunctionId, std::vector<std::byte>> received;
  std::map<FunctionId, std::vector<std::byte>> answered;
  for (FunctionRuntime* fn : {f1.get(), f2.get(), f3.get()}) {
    executor.AttachFunction(fn);
    fn->SetHandler([&, inner = fn->handler()](FunctionRuntime& self, Buffer* buffer) {
      const auto header = ReadMessage(*buffer);
      ASSERT_TRUE(header.has_value());
      const auto payload = buffer->payload().subspan(MessageHeader::kWireSize);
      (header->is_response() ? answered : received)[self.id()].assign(payload.begin(),
                                                                       payload.end());
      inner(self, buffer);
    });
  }
  std::vector<std::byte> response;
  client->SetHandler([&](FunctionRuntime& fn, Buffer* buffer) {
    const auto header = ReadMessage(*buffer);
    ASSERT_TRUE(header.has_value());
    const auto payload = buffer->payload().subspan(MessageHeader::kWireSize);
    response.assign(payload.begin(), payload.end());
    fn.pool()->Put(buffer, fn.owner_id());
  });
  Buffer* request = client->pool()->Get(client->owner_id());
  MessageHeader header;
  header.chain = 4;
  header.src = 10;
  header.dst = 11;
  header.payload_length = 1024;
  header.request_id = executor.NextRequestId();
  ASSERT_TRUE(WriteMessage(request, header));
  const std::vector<std::byte> sent(request->payload().begin() + MessageHeader::kWireSize,
                                    request->payload().end());
  ASSERT_TRUE(dataplane_->Send(client.get(), request));
  cluster_->sim().RunFor(50 * kMillisecond);
  ASSERT_EQ(executor.errors(), 0u);

  auto begins_with = [](const std::vector<std::byte>& bytes, const std::vector<std::byte>& prefix,
                        size_t n) {
    return bytes.size() >= n && prefix.size() >= n &&
           std::equal(prefix.begin(), prefix.begin() + n, bytes.begin());
  };
  ASSERT_EQ(received[11].size(), 1024u);
  ASSERT_EQ(received[12].size(), 512u);
  ASSERT_EQ(received[13].size(), 768u);
  ASSERT_EQ(response.size(), 256u);
  EXPECT_EQ(received[11], sent);
  EXPECT_TRUE(begins_with(received[11], received[12], 512));
  EXPECT_TRUE(begins_with(received[13], received[12], 512));
  // The replies travel back in the same buffers, so every answer still
  // begins with the bytes the client sent.
  EXPECT_TRUE(begins_with(answered[12], sent, 256));
  EXPECT_TRUE(begins_with(answered[11], sent, 256));
  EXPECT_TRUE(begins_with(response, sent, 256));
}

TEST_F(DataPlaneTest, NoBufferLeaksAfterManyChainInvocations) {
  auto f1 = MakeFunction(11, 0);
  auto f2 = MakeFunction(12, 1);
  auto client = MakeFunction(10, 0);
  ChainExecutor executor(cluster_->env(), dataplane_.get());
  ChainSpec chain;
  chain.id = 3;
  chain.tenant = 1;
  chain.entry = 11;
  FunctionBehavior b1;
  b1.calls = {{12, 256}};
  b1.response_payload = 256;
  chain.behaviors[11] = b1;
  FunctionBehavior b2;
  b2.response_payload = 256;
  chain.behaviors[12] = b2;
  executor.RegisterChain(chain);
  executor.AttachFunction(f1.get());
  executor.AttachFunction(f2.get());
  int responses = 0;
  client->SetHandler([&](FunctionRuntime& fn, Buffer* buffer) {
    ++responses;
    fn.pool()->Put(buffer, fn.owner_id());
  });
  BufferPool* pool0 = cluster_->worker(0)->tenants().PoolOfTenant(1);
  BufferPool* pool1 = cluster_->worker(1)->tenants().PoolOfTenant(1);
  const size_t base0 = pool0->in_use();
  const size_t base1 = pool1->in_use();
  for (int i = 0; i < 50; ++i) {
    cluster_->sim().Schedule(i * 100 * kMicrosecond, [&, i]() {
      Buffer* request = client->pool()->Get(client->owner_id());
      ASSERT_NE(request, nullptr);
      MessageHeader header;
      header.chain = 3;
      header.src = 10;
      header.dst = 11;
      header.payload_length = 256;
      header.request_id = executor.NextRequestId();
      WriteMessage(request, header);
      dataplane_->Send(client.get(), request);
    });
  }
  cluster_->sim().RunFor(200 * kMillisecond);
  EXPECT_EQ(responses, 50);
  // Conservation: everything not posted as a receive buffer went back.
  EXPECT_EQ(pool0->in_use(), base0);
  EXPECT_EQ(pool1->in_use(), base1);
  EXPECT_EQ(pool0->stats().ownership_violations, 0u);
  EXPECT_EQ(pool1->stats().ownership_violations, 0u);
}

}  // namespace
}  // namespace nadino
