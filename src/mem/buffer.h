// Shared-memory buffers and the 16-byte buffer descriptors exchanged over
// intra-node IPC (SK_MSG), the DOCA-Comch-like channel, and the DNE.

#ifndef SRC_MEM_BUFFER_H_
#define SRC_MEM_BUFFER_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <span>

#include "src/core/types.h"

namespace nadino {

// A fixed-capacity buffer carved from a tenant's unified memory pool. The
// payload bytes are real: experiments checksum them end-to-end to prove the
// zero-copy paths do not corrupt or duplicate data.
struct Buffer {
  PoolId pool = 0;
  uint32_t index = 0;
  TenantId tenant = 0;
  uint32_t length = 0;      // Valid payload bytes, <= capacity.
  uint32_t generation = 0;  // Bumped on every recycle; detects stale descriptors.
  OwnerId owner = OwnerId::None();
  std::span<std::byte> data;  // Capacity-sized view into the arena.

  size_t capacity() const { return data.size(); }

  std::span<std::byte> payload() { return data.subspan(0, length); }
  std::span<const std::byte> payload() const { return data.subspan(0, length); }

  // Fills the payload with a deterministic pattern derived from `seed`.
  void FillPattern(uint64_t seed, uint32_t payload_length);
};

// The compact descriptor that travels instead of the data. 16 bytes, the size
// the paper quotes for Comch descriptor exchanges (section 3.5.4).
struct BufferDescriptor {
  PoolId pool = 0;
  uint32_t buffer_index = 0;
  uint32_t length = 0;
  FunctionId dst_function = kInvalidFunction;

  friend bool operator==(const BufferDescriptor&, const BufferDescriptor&) = default;

  static constexpr size_t kWireSize = 16;

  std::array<std::byte, kWireSize> Encode() const;
  static BufferDescriptor Decode(std::span<const std::byte, kWireSize> wire);
};

// Fills `out` with the top byte of each step of the LCG x' = A*x + C started
// at `state` (byte i is the top byte of x_{i+1}). The payload pattern behind
// Buffer::FillPattern and WriteMessage; it computes eight bytes per step
// from precomputed jump-ahead constants.
void FillLcgBytes(std::span<std::byte> out, uint64_t state);

// Word-at-a-time 64-bit checksum used by integrity assertions along the data
// plane: four lanes of 8-byte loads, each step a bijection of its lane state
// and of its input word, so any change confined to one 8-byte word (counted
// from the start of `bytes`), and hence any single flipped byte, always
// changes the result. The length is folded in, so zero-extended inputs differ.
uint64_t Checksum(std::span<const std::byte> bytes);

}  // namespace nadino

#endif  // SRC_MEM_BUFFER_H_
