// The on-wire application header NADINO functions place at the start of every
// buffer payload. Carrying routing and RPC-correlation state *inside the
// buffer* keeps the data plane honest: engines move opaque descriptors, and
// everything a function needs arrives in the bytes that were (simulated-)
// DMAed — including a checksum that end-to-end integrity tests verify.

#ifndef SRC_RUNTIME_MESSAGE_HEADER_H_
#define SRC_RUNTIME_MESSAGE_HEADER_H_

#include <cstdint>
#include <optional>

#include "src/core/types.h"
#include "src/mem/buffer.h"

namespace nadino {

struct MessageHeader {
  static constexpr size_t kWireSize = 40;
  static constexpr uint8_t kFlagResponse = 1 << 0;

  ChainId chain = 0;
  FunctionId src = kInvalidFunction;
  FunctionId dst = kInvalidFunction;
  uint32_t payload_length = 0;
  uint64_t request_id = 0;
  // Digest over the whole message — the serialized header (this field
  // zeroed) and the payload — so a flip anywhere on the wire is caught.
  uint64_t payload_checksum = 0;
  uint8_t flags = 0;

  bool is_response() const { return (flags & kFlagResponse) != 0; }
};

// Payload bytes are synthesized once, by the message's origin: whoever writes
// into a buffer fresh from a pool (a client, the gateway, a retry) calls
// WriteMessage. A hop that reuses the buffer it received (a chain call, a
// reply, a WR-program forward) calls RewriteHeader, so the bytes it received travel on untouched,
// as NADINO's zero-copy hand-off moves them (paper section 3.5.1).

// Writes `header` followed by a deterministic payload of
// `header.payload_length` bytes (seeded by the request id) into `buffer`,
// computing the checksum. Returns false when the buffer is too small.
bool WriteMessage(Buffer* buffer, MessageHeader header);

// Writes `header` but keeps the payload bytes the buffer already holds (its
// `length` past the header). Only the tail it never held,
// [length - kWireSize, payload_length), is synthesized as WriteMessage would
// (seeded by the request id, from the start of the pattern), so a fresh
// buffer (length 0) gets WriteMessage's bytes and a shorter message keeps a
// prefix. Recomputes the checksum over the whole payload.
bool RewriteHeader(Buffer* buffer, MessageHeader header);

// Parses the header and verifies the payload checksum. nullopt on truncation
// or checksum mismatch (i.e. the data plane corrupted or duplicated bytes).
std::optional<MessageHeader> ReadMessage(const Buffer& buffer);

}  // namespace nadino

#endif  // SRC_RUNTIME_MESSAGE_HEADER_H_
