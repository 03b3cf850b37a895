// Tests for file-prefix-based per-tenant memory isolation.

#include "src/mem/tenant_registry.h"

#include <gtest/gtest.h>

namespace nadino {
namespace {

TEST(TenantRegistryTest, CreatePoolBindsPrefix) {
  TenantRegistry registry;
  BufferPool* pool = registry.CreatePool(1, "tenant_1", {64, 1024});
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->tenant(), 1u);
  EXPECT_EQ(registry.pool_count(), 1u);
}

TEST(TenantRegistryTest, DuplicatePrefixRejected) {
  TenantRegistry registry;
  EXPECT_NE(registry.CreatePool(1, "shared_prefix", {16, 256}), nullptr);
  EXPECT_EQ(registry.CreatePool(2, "shared_prefix", {16, 256}), nullptr);
}

TEST(TenantRegistryTest, OnePoolPerTenant) {
  TenantRegistry registry;
  EXPECT_NE(registry.CreatePool(1, "a", {16, 256}), nullptr);
  EXPECT_EQ(registry.CreatePool(1, "b", {16, 256}), nullptr);
}

TEST(TenantRegistryTest, AttachRequiresMatchingTenant) {
  TenantRegistry registry;
  BufferPool* pool1 = registry.CreatePool(1, "tenant_1", {16, 256});
  registry.CreatePool(2, "tenant_2", {16, 256});
  ASSERT_TRUE(registry.RegisterFunction(100, 1));
  ASSERT_TRUE(registry.RegisterFunction(200, 2));

  // Correct prefix: attach succeeds.
  EXPECT_EQ(registry.Attach(100, "tenant_1"), pool1);
  // A tenant-2 function cannot attach to tenant-1's pool — the isolation
  // boundary of section 3.4.1.
  EXPECT_EQ(registry.Attach(200, "tenant_1"), nullptr);
  EXPECT_EQ(registry.denied_attaches(), 1u);
}

TEST(TenantRegistryTest, AttachUnknownPrefixOrFunctionDenied) {
  TenantRegistry registry;
  registry.CreatePool(1, "tenant_1", {16, 256});
  registry.RegisterFunction(100, 1);
  EXPECT_EQ(registry.Attach(100, "nope"), nullptr);
  EXPECT_EQ(registry.Attach(999, "tenant_1"), nullptr);
  EXPECT_EQ(registry.denied_attaches(), 2u);
}

TEST(TenantRegistryTest, FunctionRegisteredOnce) {
  TenantRegistry registry;
  EXPECT_TRUE(registry.RegisterFunction(100, 1));
  EXPECT_FALSE(registry.RegisterFunction(100, 2));
  EXPECT_EQ(registry.TenantOfFunction(100), 1u);
  EXPECT_EQ(registry.TenantOfFunction(101), kInvalidTenant);
}

TEST(TenantRegistryTest, PoolsAreDisjointMemory) {
  TenantRegistry registry;
  BufferPool* p1 = registry.CreatePool(1, "t1", {8, 512});
  BufferPool* p2 = registry.CreatePool(2, "t2", {8, 512});
  Buffer* b1 = p1->Get(OwnerId::External());
  Buffer* b2 = p2->Get(OwnerId::External());
  b1->FillPattern(1, 512);
  b2->FillPattern(2, 512);
  EXPECT_NE(Checksum(b1->payload()), Checksum(b2->payload()));
  EXPECT_NE(b1->data.data(), b2->data.data());
}

TEST(TenantRegistryTest, LookupByIdAndTenant) {
  TenantRegistry registry;
  BufferPool* p1 = registry.CreatePool(7, "t7", {8, 512});
  EXPECT_EQ(registry.PoolOfTenant(7), p1);
  EXPECT_EQ(registry.PoolById(p1->id()), p1);
  EXPECT_EQ(registry.PoolOfTenant(8), nullptr);
  EXPECT_EQ(registry.PoolById(999), nullptr);
  EXPECT_EQ(registry.pool_count(), 1u);
}

}  // namespace
}  // namespace nadino
