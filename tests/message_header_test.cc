// Tests for the in-buffer message header and payload integrity machinery.

#include "src/runtime/message_header.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/mem/buffer_pool.h"
#include "src/mem/hugepage_arena.h"

namespace nadino {
namespace {

class MessageHeaderTest : public ::testing::Test {
 protected:
  HugepageArena arena_;
  BufferPool pool_{1, 1, 4, 8192, &arena_};
};

TEST_F(MessageHeaderTest, WriteReadRoundTrip) {
  Buffer* b = pool_.Get(OwnerId::External());
  MessageHeader header;
  header.chain = 3;
  header.src = 11;
  header.dst = 22;
  header.payload_length = 1024;
  header.request_id = 0xABCDEF;
  ASSERT_TRUE(WriteMessage(b, header));
  EXPECT_EQ(b->length, MessageHeader::kWireSize + 1024);
  const auto parsed = ReadMessage(*b);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->chain, 3u);
  EXPECT_EQ(parsed->src, 11u);
  EXPECT_EQ(parsed->dst, 22u);
  EXPECT_EQ(parsed->payload_length, 1024u);
  EXPECT_EQ(parsed->request_id, 0xABCDEFu);
  EXPECT_FALSE(parsed->is_response());
}

TEST_F(MessageHeaderTest, ResponseFlagRoundTrips) {
  Buffer* b = pool_.Get(OwnerId::External());
  MessageHeader header;
  header.flags = MessageHeader::kFlagResponse;
  header.payload_length = 16;
  ASSERT_TRUE(WriteMessage(b, header));
  EXPECT_TRUE(ReadMessage(*b)->is_response());
}

TEST_F(MessageHeaderTest, OversizedPayloadRejected) {
  Buffer* b = pool_.Get(OwnerId::External());
  MessageHeader header;
  header.payload_length = 100000;  // Larger than the 8 KB buffer.
  EXPECT_FALSE(WriteMessage(b, header));
}

TEST_F(MessageHeaderTest, CorruptionDetectedByChecksum) {
  Buffer* b = pool_.Get(OwnerId::External());
  MessageHeader header;
  header.payload_length = 256;
  header.request_id = 7;
  ASSERT_TRUE(WriteMessage(b, header));
  // Flip one payload byte: the data plane corrupted the message.
  b->data[MessageHeader::kWireSize + 10] ^= std::byte{0xFF};
  EXPECT_FALSE(ReadMessage(*b).has_value());
}

TEST_F(MessageHeaderTest, TruncationDetected) {
  Buffer* b = pool_.Get(OwnerId::External());
  MessageHeader header;
  header.payload_length = 256;
  ASSERT_TRUE(WriteMessage(b, header));
  b->length = MessageHeader::kWireSize + 100;  // Short delivery.
  EXPECT_FALSE(ReadMessage(*b).has_value());
  b->length = 10;  // Shorter than the header itself.
  EXPECT_FALSE(ReadMessage(*b).has_value());
}

TEST_F(MessageHeaderTest, RewritePreservesPayload) {
  Buffer* b = pool_.Get(OwnerId::External());
  MessageHeader header;
  header.payload_length = 512;
  header.request_id = 42;
  ASSERT_TRUE(WriteMessage(b, header));
  const uint64_t payload_sum =
      Checksum({b->data.data() + MessageHeader::kWireSize, 512});
  // Re-address the same buffer (zero-copy forward).
  MessageHeader fwd = header;
  fwd.src = 5;
  fwd.dst = 6;
  ASSERT_TRUE(RewriteHeader(b, fwd));
  const auto parsed = ReadMessage(*b);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dst, 6u);
  EXPECT_EQ(Checksum({b->data.data() + MessageHeader::kWireSize, 512}), payload_sum);
}

TEST_F(MessageHeaderTest, DistinctRequestsHaveDistinctPayloads) {
  Buffer* a = pool_.Get(OwnerId::External());
  Buffer* b = pool_.Get(OwnerId::External());
  MessageHeader ha;
  ha.payload_length = 128;
  ha.request_id = 1;
  MessageHeader hb = ha;
  hb.request_id = 2;
  ASSERT_TRUE(WriteMessage(a, ha));
  ASSERT_TRUE(WriteMessage(b, hb));
  EXPECT_NE(ReadMessage(*a)->payload_checksum, ReadMessage(*b)->payload_checksum);
}

// Payload lengths that end in every lane of a 32-byte block and at every
// tail alignment of the word loop.
constexpr uint32_t kLaneLengths[] = {0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 255, 1023, 4096};

TEST_F(MessageHeaderTest, EverySingleByteFlipIsDetected) {
  Buffer* b = pool_.Get(OwnerId::External());
  for (uint32_t length : kLaneLengths) {
    MessageHeader header;
    header.chain = 2;
    header.src = 9;
    header.dst = 10;
    header.payload_length = length;
    header.request_id = 1000 + length;
    ASSERT_TRUE(WriteMessage(b, header));
    for (size_t i = 0; i < b->length; ++i) {
      for (std::byte mask : {std::byte{0x01}, std::byte{0x80}, std::byte{0xFF}}) {
        b->data[i] ^= mask;
        EXPECT_FALSE(ReadMessage(*b).has_value())
            << "payload_length " << length << " byte " << i << " mask "
            << std::to_integer<int>(mask);
        b->data[i] ^= mask;
      }
    }
    EXPECT_TRUE(ReadMessage(*b).has_value()) << "payload_length " << length;
  }
}

TEST(ChecksumTest, ZeroExtendedInputsDiffer) {
  std::set<uint64_t> sums;
  for (size_t n = 0; n <= 9; ++n) {
    sums.insert(Checksum(std::vector<std::byte>(n)));
  }
  EXPECT_EQ(sums.size(), 10u);
}

TEST(ChecksumTest, TopBitFlipsInTwoWordsOfOneLaneDoNotCancel) {
  // (h ^ w) * K alone passes a flip of bit 63 straight through to bit 63, so
  // the same flip in a later word of the lane would cancel it.
  std::vector<std::byte> bytes(256);
  FillLcgBytes(bytes, 3);
  const uint64_t clean = Checksum(bytes);
  for (size_t first = 7; first < bytes.size(); first += 8) {
    for (size_t second = first + 32; second < bytes.size(); second += 32) {
      bytes[first] ^= std::byte{0x80};
      bytes[second] ^= std::byte{0x80};
      EXPECT_NE(Checksum(bytes), clean) << "bytes " << first << " and " << second;
      bytes[first] ^= std::byte{0x80};
      bytes[second] ^= std::byte{0x80};
    }
  }
}

TEST(ChecksumTest, IndependentOfAlignment) {
  std::vector<std::byte> bytes(4096 + 8);
  FillLcgBytes(bytes, 5);
  for (size_t length : kLaneLengths) {
    const uint64_t expected = Checksum(std::vector<std::byte>(bytes.begin(), bytes.begin() + length));
    for (size_t offset = 1; offset < 8; ++offset) {
      std::vector<std::byte> shifted(offset + length);
      std::copy(bytes.begin(), bytes.begin() + length, shifted.begin() + offset);
      EXPECT_EQ(Checksum(std::span(shifted).subspan(offset)), expected)
          << "length " << length << " offset " << offset;
    }
  }
}

// The per-byte LCG the payload pattern is defined by: byte i is the top byte
// of the (i+1)-th step from `state`.
std::vector<std::byte> ReferencePattern(uint64_t state, size_t length) {
  std::vector<std::byte> out(length);
  for (std::byte& byte : out) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    byte = static_cast<std::byte>(state >> 56);
  }
  return out;
}

std::vector<uint32_t> PinnedFillLengths() {
  std::vector<uint32_t> lengths;
  for (uint32_t n = 0; n <= 80; ++n) {
    lengths.push_back(n);
  }
  lengths.push_back(4096);
  return lengths;
}

TEST_F(MessageHeaderTest, WriteMessagePayloadMatchesPerByteReference) {
  Buffer* b = pool_.Get(OwnerId::External());
  for (uint32_t length : PinnedFillLengths()) {
    for (uint64_t request_id : {0ULL, 7ULL, 0xFEDCBA9876543210ULL}) {
      MessageHeader header;
      header.payload_length = length;
      header.request_id = request_id;
      ASSERT_TRUE(WriteMessage(b, header));
      const auto payload = b->payload().subspan(MessageHeader::kWireSize);
      const std::vector<std::byte> expected =
          ReferencePattern(request_id ^ 0xD1B54A32D192ED03ULL, length);
      EXPECT_TRUE(std::equal(payload.begin(), payload.end(), expected.begin(), expected.end()))
          << "payload_length " << length << " request_id " << request_id;
    }
  }
}

// A hop that grows the message keeps every byte it held and synthesizes only
// the tail, from the start of the new request id's pattern, never reusing
// stale bytes a buffer's earlier, longer message left past its length.
TEST_F(MessageHeaderTest, LongerRewriteKeepsHeldBytesAndFillsTail) {
  Buffer* b = pool_.Get(OwnerId::External());
  MessageHeader stale;
  stale.payload_length = 4096;
  stale.request_id = 1;
  ASSERT_TRUE(WriteMessage(b, stale));
  MessageHeader header;
  header.payload_length = 100;
  header.request_id = 5;
  ASSERT_TRUE(WriteMessage(b, header));
  const std::vector<std::byte> held(b->payload().begin() + MessageHeader::kWireSize,
                                    b->payload().end());
  MessageHeader longer;
  longer.dst = 3;
  longer.payload_length = 300;
  longer.request_id = 9;
  ASSERT_TRUE(RewriteHeader(b, longer));
  EXPECT_EQ(b->length, MessageHeader::kWireSize + 300);
  const auto payload = b->payload().subspan(MessageHeader::kWireSize);
  EXPECT_TRUE(std::equal(held.begin(), held.end(), payload.begin()));
  const std::vector<std::byte> tail = ReferencePattern(9 ^ 0xD1B54A32D192ED03ULL, 200);
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), payload.begin() + 100, payload.end()));
  const auto parsed = ReadMessage(*b);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dst, 3u);
  EXPECT_EQ(parsed->payload_length, 300u);
}

TEST_F(MessageHeaderTest, ShorterRewriteKeepsPrefix) {
  Buffer* b = pool_.Get(OwnerId::External());
  MessageHeader header;
  header.payload_length = 512;
  header.request_id = 42;
  ASSERT_TRUE(WriteMessage(b, header));
  const std::vector<std::byte> held(b->payload().begin() + MessageHeader::kWireSize,
                                    b->payload().end());
  MessageHeader shorter;
  shorter.payload_length = 128;
  shorter.request_id = 43;
  shorter.flags = MessageHeader::kFlagResponse;
  ASSERT_TRUE(RewriteHeader(b, shorter));
  EXPECT_EQ(b->length, MessageHeader::kWireSize + 128);
  const auto payload = b->payload().subspan(MessageHeader::kWireSize);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), held.begin(), held.begin() + 128));
  const auto parsed = ReadMessage(*b);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->is_response());
  EXPECT_EQ(parsed->request_id, 43u);
}

// A buffer fresh from the pool holds nothing, so rewriting it is writing it:
// the same header, payload and checksum bytes as WriteMessage.
TEST_F(MessageHeaderTest, RewriteOfFreshBufferMatchesWriteMessage) {
  Buffer* written = pool_.Get(OwnerId::External());
  for (uint32_t length : kLaneLengths) {
    for (uint64_t request_id : {0ULL, 7ULL, 0xFEDCBA9876543210ULL}) {
      MessageHeader header;
      header.chain = 4;
      header.src = 1;
      header.dst = 2;
      header.payload_length = length;
      header.request_id = request_id;
      Buffer* rewritten = pool_.Get(OwnerId::External());
      ASSERT_EQ(rewritten->length, 0u);
      ASSERT_TRUE(WriteMessage(written, header));
      ASSERT_TRUE(RewriteHeader(rewritten, header));
      EXPECT_TRUE(std::equal(written->payload().begin(), written->payload().end(),
                             rewritten->payload().begin(), rewritten->payload().end()))
          << "payload_length " << length << " request_id " << request_id;
      pool_.Put(rewritten, OwnerId::External());
    }
  }
}

TEST_F(MessageHeaderTest, FillPatternMatchesPerByteReference) {
  Buffer* b = pool_.Get(OwnerId::External());
  for (uint32_t length : PinnedFillLengths()) {
    for (uint64_t seed : {0ULL, 1ULL, 0xE0E0ULL}) {
      b->FillPattern(seed, length);
      ASSERT_EQ(b->length, length);
      const std::vector<std::byte> expected = ReferencePattern(seed ^ 0x9E3779B97F4A7C15ULL, length);
      EXPECT_TRUE(std::equal(b->payload().begin(), b->payload().end(), expected.begin(),
                             expected.end()))
          << "length " << length << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace nadino
