#include "src/mem/buffer.h"

#include <algorithm>
#include <bit>

namespace nadino {

namespace {

// The fill stream's LCG step x' = A*x + C, and its k-step jumps
// x_{i+k} = kLcgJumps.mul[k-1] * x_i + kLcgJumps.add[k-1] for k = 1..8.
constexpr uint64_t kLcgMul = 6364136223846793005ULL;
constexpr uint64_t kLcgAdd = 1442695040888963407ULL;
constexpr size_t kJump = 8;

struct LcgJumps {
  uint64_t mul[kJump];
  uint64_t add[kJump];
};

constexpr LcgJumps MakeLcgJumps() {
  LcgJumps j{};
  uint64_t mul = 1;
  uint64_t add = 0;
  for (size_t k = 0; k < kJump; ++k) {
    mul *= kLcgMul;
    add = add * kLcgMul + kLcgAdd;
    j.mul[k] = mul;
    j.add[k] = add;
  }
  return j;
}

constexpr LcgJumps kLcgJumps = MakeLcgJumps();

// Checksum constants: odd multipliers (each lane step is a bijection of its
// state and of its input word) and distinct lane seeds.
constexpr uint64_t kMul[5] = {0x9E3779B97F4A7C15ULL, 0xC2B2AE3D27D4EB4FULL,
                              0x165667B19E3779F9ULL, 0x27D4EB2F165667C5ULL,
                              0x85EBCA77C2B2AE63ULL};
constexpr uint64_t kSeed[4] = {0x243F6A8885A308D3ULL, 0x13198A2E03707344ULL,
                               0xA4093822299F31D0ULL, 0x082EFA98EC4E6C89ULL};

uint64_t Load64(const std::byte* p) {
  uint64_t w = 0;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

// One absorb step. For a fixed state it is a bijection of the word, and for a
// fixed word a bijection of the state, so a change confined to one word always
// changes the final state. The rotate feeds the high product bits back into
// the low ones; without it, differences that stay in the top bits of two words
// of the same lane could cancel.
uint64_t Absorb(uint64_t h, uint64_t w, uint64_t mul) { return std::rotl((h ^ w) * mul, 29); }

// MurmurHash3's 64-bit finalizer: a bijection that spreads every input bit.
uint64_t Finalize(uint64_t h) {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

void FillLcgBytes(std::span<std::byte> out, uint64_t state) {
  std::byte* p = out.data();
  size_t n = out.size();
  for (; n >= kJump; p += kJump, n -= kJump) {
    for (size_t k = 0; k < kJump; ++k) {
      p[k] = static_cast<std::byte>((kLcgJumps.mul[k] * state + kLcgJumps.add[k]) >> 56);
    }
    state = kLcgJumps.mul[kJump - 1] * state + kLcgJumps.add[kJump - 1];
  }
  for (size_t i = 0; i < n; ++i) {
    state = state * kLcgMul + kLcgAdd;
    p[i] = static_cast<std::byte>(state >> 56);
  }
}

void Buffer::FillPattern(uint64_t seed, uint32_t payload_length) {
  length = static_cast<uint32_t>(std::min<size_t>(payload_length, data.size()));
  FillLcgBytes(data.first(length), seed ^ 0x9E3779B97F4A7C15ULL);
}

std::array<std::byte, BufferDescriptor::kWireSize> BufferDescriptor::Encode() const {
  std::array<std::byte, kWireSize> wire{};
  std::memcpy(wire.data() + 0, &pool, 4);
  std::memcpy(wire.data() + 4, &buffer_index, 4);
  std::memcpy(wire.data() + 8, &length, 4);
  std::memcpy(wire.data() + 12, &dst_function, 4);
  return wire;
}

BufferDescriptor BufferDescriptor::Decode(std::span<const std::byte, kWireSize> wire) {
  BufferDescriptor d;
  std::memcpy(&d.pool, wire.data() + 0, 4);
  std::memcpy(&d.buffer_index, wire.data() + 4, 4);
  std::memcpy(&d.length, wire.data() + 8, 4);
  std::memcpy(&d.dst_function, wire.data() + 12, 4);
  return d;
}

uint64_t Checksum(std::span<const std::byte> bytes) {
  const std::byte* p = bytes.data();
  size_t n = bytes.size();
  uint64_t a = kSeed[0];
  uint64_t b = kSeed[1];
  uint64_t c = kSeed[2];
  uint64_t d = kSeed[3];
  for (; n >= 32; p += 32, n -= 32) {
    a = Absorb(a, Load64(p), kMul[0]);
    b = Absorb(b, Load64(p + 8), kMul[1]);
    c = Absorb(c, Load64(p + 16), kMul[2]);
    d = Absorb(d, Load64(p + 24), kMul[3]);
  }
  // Odd multipliers keep each lane's contribution a bijection of that lane.
  uint64_t h = a * kMul[1] ^ b * kMul[2] ^ c * kMul[3] ^ d * kMul[4];
  for (; n >= 8; p += 8, n -= 8) {
    h = Absorb(h, Load64(p), kMul[4]);
  }
  // The 0..7 tail bytes, zero-padded, with their count in the top byte so
  // zero-extended tails differ; the total length goes into the final value.
  uint64_t tail = 0;
  if (n != 0) {
    std::memcpy(&tail, p, n);
  }
  h = Absorb(h, tail ^ (static_cast<uint64_t>(n) << 56), kMul[0]);
  return Finalize(h ^ bytes.size());
}

}  // namespace nadino
