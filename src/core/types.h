// Common identifier types shared across the NADINO modules.

#ifndef SRC_CORE_TYPES_H_
#define SRC_CORE_TYPES_H_

#include <cstdint>
#include <functional>

namespace nadino {

using NodeId = uint32_t;
using TenantId = uint32_t;
using FunctionId = uint32_t;
using PoolId = uint32_t;
using QpNum = uint32_t;
using ChainId = uint32_t;

inline constexpr NodeId kInvalidNode = 0xFFFFFFFF;
inline constexpr FunctionId kInvalidFunction = 0xFFFFFFFF;
inline constexpr TenantId kInvalidTenant = 0xFFFFFFFF;

// Identifies who currently owns a shared-memory buffer. NADINO's buffer
// lifecycle uses exclusive ownership semantics (paper section 3.5.1): only the
// owner may read, write, or recycle a buffer.
struct OwnerId {
  enum class Kind : uint8_t {
    kNone = 0,     // Free in the pool.
    kFunction,     // A user function (id = FunctionId).
    kEngine,       // A network engine: DNE/CNE/ingress worker (id = engine id).
    kRnic,         // Posted to the RNIC receive queue / in-flight DMA.
    kExternal,     // Owned by test/benchmark harness code.
  };

  Kind kind = Kind::kNone;
  uint32_t id = 0;

  friend bool operator==(const OwnerId&, const OwnerId&) = default;

  static OwnerId None() { return {Kind::kNone, 0}; }
  static OwnerId Function(FunctionId f) { return {Kind::kFunction, f}; }
  static OwnerId Engine(uint32_t e) { return {Kind::kEngine, e}; }
  static OwnerId Rnic(uint32_t n) { return {Kind::kRnic, n}; }
  static OwnerId External(uint32_t x = 0) { return {Kind::kExternal, x}; }
};

}  // namespace nadino

#endif  // SRC_CORE_TYPES_H_
