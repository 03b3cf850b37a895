// FlatIdMap<Key, Value>: an open-addressing hash table for the model's
// per-message id bookkeeping (pending ACKs, posted receives, in-flight sends,
// pending calls). One flat array of {key, value, used} slots, linear probing
// from a Fibonacci hash, and backward-shift deletion, so no tombstones build
// up under insert/erase churn. The array doubles when half full and never
// shrinks: a warm table, grown to its peak, touches no allocator (DESIGN.md
// §3c).
//
// There is deliberately no iteration. Slot order depends on the hash and on
// the history of inserts and erases, so key order must never reach an
// output; every user looks entries up by id. A container whose contents
// must be walked belongs in an ordered structure.
//
// Pointers returned by Find and TryEmplace are invalidated by the next
// insert (it may grow the array) and by any Erase or Take (backward shift
// moves entries).

#ifndef SRC_SIM_FLAT_ID_MAP_H_
#define SRC_SIM_FLAT_ID_MAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace nadino {

// Hash for the table's keys: an unsigned integer id, or a pair of them
// (e.g. (qp, wr_id)). The table keeps the high bits of the product.
struct FlatIdHash {
  template <typename T, typename = std::enable_if_t<std::is_integral_v<T>>>
  uint64_t operator()(T key) const {
    return static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull;
  }
  template <typename A, typename B>
  uint64_t operator()(const std::pair<A, B>& key) const {
    return ((*this)(key.first) ^ static_cast<uint64_t>(key.second)) * 0x9E3779B97F4A7C15ull;
  }
};

template <typename Key, typename Value>
class FlatIdMap {
 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  Value* Find(const Key& key) {
    const size_t index = IndexOf(key);
    return index == kAbsent ? nullptr : &slots_[index].value;
  }
  const Value* Find(const Key& key) const {
    const size_t index = IndexOf(key);
    return index == kAbsent ? nullptr : &slots_[index].value;
  }
  bool Contains(const Key& key) const { return IndexOf(key) != kAbsent; }

  // Returns the value under `key`, default-constructing it first when
  // absent; `second` is true when it was inserted.
  std::pair<Value*, bool> TryEmplace(const Key& key) {
    if (2 * (size_ + 1) > slots_.size()) {
      Grow();
    }
    size_t index = Home(key);
    while (slots_[index].used) {
      if (slots_[index].key == key) {
        return {&slots_[index].value, false};
      }
      index = (index + 1) & mask_;
    }
    slots_[index].key = key;
    slots_[index].used = true;
    ++size_;
    return {&slots_[index].value, true};
  }

  Value& operator[](const Key& key) { return *TryEmplace(key).first; }

  // Removes `key`; false when absent.
  bool Erase(const Key& key) {
    const size_t index = IndexOf(key);
    if (index == kAbsent) {
      return false;
    }
    RemoveAt(index);
    return true;
  }

  // Moves the value under `key` into `*out` and removes the entry; false
  // (leaving `*out` untouched) when absent.
  bool Take(const Key& key, Value* out) {
    const size_t index = IndexOf(key);
    if (index == kAbsent) {
      return false;
    }
    *out = std::move(slots_[index].value);
    RemoveAt(index);
    return true;
  }

 private:
  static constexpr size_t kAbsent = ~size_t{0};
  static constexpr size_t kInitialCapacity = 16;

  struct Slot {
    Key key{};
    Value value{};
    bool used = false;
  };

  size_t Home(const Key& key) const {
    return static_cast<size_t>(FlatIdHash{}(key) >> shift_);
  }

  size_t IndexOf(const Key& key) const {
    if (size_ == 0) {
      return kAbsent;
    }
    for (size_t index = Home(key);; index = (index + 1) & mask_) {
      const Slot& slot = slots_[index];
      if (!slot.used) {
        return kAbsent;
      }
      if (slot.key == key) {
        return index;
      }
    }
  }

  // Backward-shift deletion: every later entry of the probe run whose home
  // does not lie in (hole, entry] moves back into the hole, so lookups never
  // need tombstones.
  void RemoveAt(size_t hole) {
    for (size_t next = (hole + 1) & mask_; slots_[next].used; next = (next + 1) & mask_) {
      const size_t home = Home(slots_[next].key);
      if (((next - home) & mask_) < ((next - hole) & mask_)) {
        continue;  // Its home lies after the hole: it stays reachable.
      }
      slots_[hole].key = slots_[next].key;
      slots_[hole].value = std::move(slots_[next].value);
      hole = next;
    }
    slots_[hole].used = false;
    slots_[hole].value = Value{};  // Releases whatever the value held.
    --size_;
  }

  void Grow() {
    const size_t capacity = slots_.empty() ? kInitialCapacity : 2 * slots_.size();
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    mask_ = capacity - 1;
    shift_ = 64;
    for (size_t c = capacity; c > 1; c >>= 1) {
      --shift_;
    }
    for (Slot& slot : old) {
      if (!slot.used) {
        continue;
      }
      size_t index = Home(slot.key);
      while (slots_[index].used) {
        index = (index + 1) & mask_;
      }
      slots_[index].key = slot.key;
      slots_[index].value = std::move(slot.value);
      slots_[index].used = true;
    }
  }

  std::vector<Slot> slots_;  // Size is zero or a power of two.
  size_t mask_ = 0;
  unsigned shift_ = 64;
  size_t size_ = 0;
};

}  // namespace nadino

#endif  // SRC_SIM_FLAT_ID_MAP_H_
