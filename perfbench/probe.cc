// The reference probe (see bench.h): a fixed job, independent of the model,
// whose time says how fast the host is running this process right now.

#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>

#include "bench.h"

namespace perfbench {
namespace {

constexpr size_t kPoolBytes = 16u << 20;
constexpr size_t kSlotBytes = 2048;
constexpr size_t kSourceBytes = 64u << 10;
constexpr uint32_t kLiveEvents = 50'000;
constexpr int kSteps = 150'000;
constexpr int kComputeSteps = 20'000'000;

uint64_t XorShift(uint64_t* x) {
  *x ^= *x << 13;
  *x ^= *x >> 7;
  *x ^= *x << 17;
  return *x;
}

}  // namespace

ReferenceProbe::ReferenceProbe() : pool_(kPoolBytes, 1), source_(kSourceBytes, 2) {}

double ReferenceProbe::RunSeconds() {
  const double start = NowSeconds();
  // Compute: a dependent multiply-add chain.
  uint64_t h = 1;
  for (int i = 0; i < kComputeSteps; ++i) {
    h = h * 6364136223846793005ull + (h >> 29);
  }
  // A miniature event simulation: pop the earliest timestamp, fill and
  // checksum the next buffer of a FIFO pool, update a hash table, allocate a
  // small object, and schedule the event again.
  using Event = std::pair<uint64_t, uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::unordered_map<uint32_t, uint64_t> table;
  uint64_t x = 12345;
  for (uint32_t id = 0; id < kLiveEvents; ++id) {
    queue.push({XorShift(&x) % 100'000, id});
  }
  const size_t slots = pool_.size() / kSlotBytes;
  for (int step = 0; step < kSteps; ++step) {
    const auto [when, id] = queue.top();
    queue.pop();
    char* buffer = &pool_[(static_cast<size_t>(step) % slots) * kSlotBytes];
    std::memcpy(buffer, source_.data() + id % 1000, 256);
    uint64_t sum = 0;
    for (int k = 0; k < 256; k += 8) {
      uint64_t word;
      std::memcpy(&word, buffer + k, sizeof(word));
      sum ^= word;
    }
    table[id * 2654435761u % 65536] += sum;
    auto object = std::make_unique<std::array<uint64_t, 8>>();
    (*object)[0] = sum;
    h += (*object)[0];
    queue.push({when + 1 + XorShift(&x) % 100'000, id});
  }
  sink_ += h + table.size();
  return NowSeconds() - start;
}

}  // namespace perfbench
