#include "src/runtime/message_header.h"

#include <array>
#include <cstring>

namespace nadino {

namespace {

// Offset/width of the checksum field inside the serialized header.
constexpr size_t kChecksumOffset = 24;
constexpr size_t kChecksumWidth = 8;

// Mixed into the request id to seed a message's synthesized payload bytes.
constexpr uint64_t kPayloadSeed = 0xD1B54A32D192ED03ULL;

// Digest over the serialized header (checksum field zeroed) and the payload.
// Covering the header bytes — including routing and correlation fields and
// the padding — means a single flipped bit anywhere in the message is caught,
// not just flips that land in the payload.
uint64_t MessageChecksum(const Buffer& buffer, uint32_t payload_length) {
  std::array<std::byte, MessageHeader::kWireSize> head;
  std::memcpy(head.data(), buffer.data.data(), MessageHeader::kWireSize);
  std::memset(head.data() + kChecksumOffset, 0, kChecksumWidth);
  return Checksum({head.data(), head.size()}) ^
         Checksum({buffer.data.data() + MessageHeader::kWireSize, payload_length});
}

void Serialize(const MessageHeader& h, std::byte* out) {
  std::memcpy(out + 0, &h.chain, 4);
  std::memcpy(out + 4, &h.src, 4);
  std::memcpy(out + 8, &h.dst, 4);
  std::memcpy(out + 12, &h.payload_length, 4);
  std::memcpy(out + 16, &h.request_id, 8);
  std::memcpy(out + 24, &h.payload_checksum, 8);
  std::memcpy(out + 32, &h.flags, 1);
  std::memset(out + 33, 0, 7);
}

MessageHeader Deserialize(const std::byte* in) {
  MessageHeader h;
  std::memcpy(&h.chain, in + 0, 4);
  std::memcpy(&h.src, in + 4, 4);
  std::memcpy(&h.dst, in + 8, 4);
  std::memcpy(&h.payload_length, in + 12, 4);
  std::memcpy(&h.request_id, in + 16, 8);
  std::memcpy(&h.payload_checksum, in + 24, 8);
  std::memcpy(&h.flags, in + 32, 1);
  return h;
}

// Serializes `header` into `buffer`, synthesizing the payload bytes from
// `held` on (the first `held` are kept as they are), and seals the checksum.
bool Compose(Buffer* buffer, MessageHeader header, uint32_t held) {
  if (buffer == nullptr ||
      buffer->data.size() < MessageHeader::kWireSize + header.payload_length) {
    return false;
  }
  if (header.payload_length > held) {
    FillLcgBytes(buffer->data.subspan(MessageHeader::kWireSize + held,
                                      header.payload_length - held),
                 header.request_id ^ kPayloadSeed);
  }
  header.payload_checksum = 0;
  Serialize(header, buffer->data.data());
  header.payload_checksum = MessageChecksum(*buffer, header.payload_length);
  std::memcpy(buffer->data.data() + kChecksumOffset, &header.payload_checksum, kChecksumWidth);
  buffer->length = MessageHeader::kWireSize + header.payload_length;
  return true;
}

}  // namespace

bool WriteMessage(Buffer* buffer, MessageHeader header) { return Compose(buffer, header, 0); }

bool RewriteHeader(Buffer* buffer, MessageHeader header) {
  const uint32_t held =
      buffer == nullptr || buffer->length < MessageHeader::kWireSize
          ? 0
          : buffer->length - static_cast<uint32_t>(MessageHeader::kWireSize);
  return Compose(buffer, header, held);
}

std::optional<MessageHeader> ReadMessage(const Buffer& buffer) {
  if (buffer.length < MessageHeader::kWireSize) {
    return std::nullopt;
  }
  MessageHeader h = Deserialize(buffer.data.data());
  if (buffer.length < MessageHeader::kWireSize + h.payload_length) {
    return std::nullopt;
  }
  if (MessageChecksum(buffer, h.payload_length) != h.payload_checksum) {
    return std::nullopt;
  }
  return h;
}

}  // namespace nadino
