// Tests for the copy engine.

#include "src/mem/copy_engine.h"

#include <gtest/gtest.h>

#include "src/mem/hugepage_arena.h"
#include "src/mem/buffer_pool.h"

namespace nadino {
namespace {

TEST(CopyEngineTest, CopyMovesBytesAndCounts) {
  HugepageArena arena;
  BufferPool pool(1, 1, 4, 4096, &arena);
  Buffer* src = pool.Get(OwnerId::External());
  Buffer* dst = pool.Get(OwnerId::External());
  src->FillPattern(99, 2048);
  CopyEngine copier;
  const SimDuration cost = copier.Copy(*src, dst, CopyLocality::kCacheHot);
  EXPECT_GT(cost, 0);
  EXPECT_EQ(dst->length, 2048u);
  EXPECT_EQ(Checksum(src->payload()), Checksum(dst->payload()));
  EXPECT_EQ(copier.copies(), 1u);
  EXPECT_EQ(copier.bytes_copied(), 2048u);
}

TEST(CopyEngineTest, ColdCopyCostsMoreThanHot) {
  CopyEngine copier;
  EXPECT_GT(copier.CostOf(4096, CopyLocality::kCacheCold),
            copier.CostOf(4096, CopyLocality::kCacheHot));
}

TEST(CopyEngineTest, CostScalesWithSize) {
  CopyEngine copier;
  const SimDuration small = copier.CostOf(64, CopyLocality::kCacheHot);
  const SimDuration large = copier.CostOf(65536, CopyLocality::kCacheHot);
  EXPECT_GT(large, small * 10);
}

}  // namespace
}  // namespace nadino
