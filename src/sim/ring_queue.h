// RingQueue<T>: a FIFO over a power-of-two ring buffer that keeps its
// capacity. Unlike std::deque, which frees and reallocates a chunk every few
// dozen push/pop cycles, a warm RingQueue never touches the allocator: it
// grows by doubling when full and never shrinks (DESIGN.md §3c).

#ifndef SRC_SIM_RING_QUEUE_H_
#define SRC_SIM_RING_QUEUE_H_

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace nadino {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  T& front() {
    assert(size_ > 0);
    return slots_[head_];
  }

  void push_back(T value) {
    if (size_ == slots_.size()) {
      Grow();
    }
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  // Releases the front element (its slot is reset to T{}).
  void pop_front() {
    assert(size_ > 0);
    slots_[head_] = T{};
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

 private:
  static constexpr size_t kInitialCapacity = 8;

  void Grow() {
    std::vector<T> grown(slots_.empty() ? kInitialCapacity : 2 * slots_.size());
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_.swap(grown);
    head_ = 0;
  }

  std::vector<T> slots_;  // Size is zero or a power of two.
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace nadino

#endif  // SRC_SIM_RING_QUEUE_H_
