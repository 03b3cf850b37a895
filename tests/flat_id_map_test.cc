// Tests for FlatIdMap, the open-addressing id table behind the per-message
// bookkeeping (DESIGN.md §3c): a randomized differential run against
// std::map, and release of erased values.

#include "src/sim/flat_id_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <utility>

#include "src/sim/random.h"

namespace nadino {
namespace {

// Inserts, erases, takes and looks up random keys from a narrow range, so
// probe runs collide, wrap around the array's end and get shifted back by
// deletes; every lookup must agree with a std::map reference.
template <typename Key, typename MakeKey>
void RunDifferential(MakeKey make_key) {
  FlatIdMap<Key, uint64_t> table;
  std::map<Key, uint64_t> reference;
  Rng rng(20261018);
  for (uint64_t step = 0; step < 200000; ++step) {
    const Key key = make_key(rng.UniformInt(0, 511));
    switch (rng.UniformInt(0, 3)) {
      case 0: {
        const auto [value, inserted] = table.TryEmplace(key);
        const auto [it, ref_inserted] = reference.try_emplace(key, 0);
        ASSERT_EQ(inserted, ref_inserted);
        if (inserted) {
          *value = step;
          it->second = step;
        }
        ASSERT_EQ(*value, it->second);
        break;
      }
      case 1:
        ASSERT_EQ(table.Erase(key), reference.erase(key) == 1);
        break;
      case 2: {
        uint64_t taken = 0;
        const auto it = reference.find(key);
        ASSERT_EQ(table.Take(key, &taken), it != reference.end());
        if (it != reference.end()) {
          ASSERT_EQ(taken, it->second);
          reference.erase(it);
        }
        break;
      }
      default: {
        const uint64_t* value = table.Find(key);
        const auto it = reference.find(key);
        ASSERT_EQ(value != nullptr, it != reference.end());
        ASSERT_EQ(table.Contains(key), it != reference.end());
        if (value != nullptr) {
          ASSERT_EQ(*value, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(table.size(), reference.size());
  }
  for (const auto& [key, value] : reference) {
    const uint64_t* found = table.Find(key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, value);
  }
}

TEST(FlatIdMapTest, MatchesStdMapUnderRandomChurn) {
  RunDifferential<uint64_t>([](uint64_t k) { return k; });
}

TEST(FlatIdMapTest, PairKeysMatchStdMapUnderRandomChurn) {
  using Key = std::pair<uint32_t, uint64_t>;
  RunDifferential<Key>([](uint64_t k) { return Key{static_cast<uint32_t>(k % 7), k / 7}; });
}

// Erasing or taking an entry releases what its value held, and the moved
// entries of a backward shift keep theirs.
TEST(FlatIdMapTest, RemovedValuesAreReleased) {
  FlatIdMap<uint64_t, std::shared_ptr<int>> table;
  auto held = std::make_shared<int>(7);
  for (uint64_t id = 1; id <= 64; ++id) {
    table[id] = held;
  }
  EXPECT_EQ(held.use_count(), 65);
  for (uint64_t id = 1; id <= 64; id += 2) {
    EXPECT_TRUE(table.Erase(id));
  }
  EXPECT_EQ(held.use_count(), 33);
  std::shared_ptr<int> taken;
  EXPECT_TRUE(table.Take(2, &taken));
  EXPECT_EQ(held.use_count(), 33);  // Moved out, not copied.
  taken.reset();
  EXPECT_EQ(held.use_count(), 32);
  EXPECT_FALSE(table.Take(2, &taken));
  for (uint64_t id = 4; id <= 64; id += 2) {
    ASSERT_NE(table.Find(id), nullptr);
    EXPECT_EQ(**table.Find(id), 7);
  }
}

}  // namespace
}  // namespace nadino
