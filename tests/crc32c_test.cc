// CRC32C against the RFC 3720 reference vectors, plus the streaming
// composition law Crc32cExtend(Crc32c(a), b) == Crc32c(a + b) and the
// combine law Crc32cCombine(Crc32c(a), Crc32c(b), |b|) == Crc32c(a + b)
// that the serialization layers rely on. The dispatched kernel (hardware
// lanes where the CPU has them) is held to the portable table walk at
// every length, misalignment and lane boundary.

#include "util/crc32c.h"

#include <algorithm>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace cluseq {
namespace {

TEST(Crc32cTest, Rfc3720Vectors) {
  EXPECT_EQ(Crc32c(""), 0u);
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
  const std::string ones(32, '\xff');
  EXPECT_EQ(Crc32c(ones), 0x62A8AB43u);
}

TEST(Crc32cTest, ExtendComposesWithOneShot) {
  Rng rng(20260807);
  std::string data(257, '\0');  // Odd length: exercises the tail loop.
  for (auto& c : data) c = static_cast<char>(rng.Uniform(256));
  const uint32_t whole = Crc32c(data);
  for (size_t split : {size_t{0}, size_t{1}, size_t{3}, size_t{64},
                       size_t{255}, data.size()}) {
    const uint32_t head = Crc32c(data.data(), split);
    EXPECT_EQ(Crc32cExtend(head, data.data() + split, data.size() - split),
              whole)
        << "split at " << split;
  }
}

TEST(Crc32cTest, ByteAtATimeMatchesOneShot) {
  const std::string data = "CLUSEQ frozen bank";
  uint32_t crc = 0;
  for (char c : data) crc = Crc32cExtend(crc, &c, 1);
  EXPECT_EQ(crc, Crc32c(data));
}

TEST(Crc32cTest, EveryBitFlipChangesTheSum) {
  const std::string data = "0123456789abcdef";
  const uint32_t clean = Crc32c(data);
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = data;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      EXPECT_NE(Crc32c(flipped), clean)
          << "byte " << byte << " bit " << bit;
    }
  }
}

std::string RandomBytes(size_t size, Rng* rng) {
  std::string data(size, '\0');
  for (auto& c : data) c = static_cast<char>(rng->Uniform(256));
  return data;
}

uint32_t Portable(const std::string& data) {
  return internal::Crc32cPortable(0, data.data(), data.size());
}

constexpr size_t kLane = internal::kCrc32cLaneBytes;

TEST(Crc32cTest, Rfc3720VectorsHoldThroughBothPaths) {
  const std::string vectors[] = {"", "123456789", std::string(32, '\0'),
                                 std::string(32, '\xff')};
  const uint32_t want[] = {0u, 0xE3069283u, 0x8A9136AAu, 0x62A8AB43u};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(Crc32c(vectors[i]), want[i]) << "vector " << i;
    EXPECT_EQ(Portable(vectors[i]), want[i]) << "vector " << i;
  }
}

TEST(Crc32cTest, DispatchedMatchesPortableAtEveryLengthAndMisalignment) {
  Rng rng(20261017);
  const std::string buffer = RandomBytes(1100 + 16, &rng);
  for (size_t shift = 0; shift < 16; ++shift) {
    for (size_t len = 0; len <= 1100; ++len) {
      const char* at = buffer.data() + shift;
      ASSERT_EQ(Crc32c(at, len), internal::Crc32cPortable(0, at, len))
          << "length " << len << " misalignment " << shift;
    }
  }
}

TEST(Crc32cTest, DispatchedMatchesPortableAroundLaneBlocks) {
  Rng rng(7);
  for (size_t len : {3 * kLane - 1, 3 * kLane, 3 * kLane + 1, 6 * kLane + 7,
                     size_t{5} << 20}) {
    const std::string data = RandomBytes(len, &rng);
    EXPECT_EQ(Crc32c(data), Portable(data)) << "length " << len;
    // A nonzero starting CRC must flow through the lane merge too.
    const uint32_t seed = 0xDEADBEEFu;
    EXPECT_EQ(Crc32cExtend(seed, data.data(), len),
              internal::Crc32cPortable(seed, data.data(), len))
        << "length " << len;
  }
}

TEST(Crc32cTest, CombineMatchesConcatenation) {
  Rng rng(11);
  const std::string data = RandomBytes(3 * kLane + 100, &rng);
  const uint32_t whole = Crc32c(data);
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{100}, kLane,
                       3 * kLane, data.size() - 1, data.size()}) {
    const uint32_t a = Crc32c(data.data(), split);
    const uint32_t b = Crc32c(data.data() + split, data.size() - split);
    EXPECT_EQ(Crc32cCombine(a, b, data.size() - split), whole)
        << "split at " << split;
  }
  EXPECT_EQ(Crc32cCombine(0, 0, 0), 0u) << "empty a and b";
}

TEST(Crc32cTest, StreamingInChunksMatchesOneShot) {
  Rng rng(13);
  const std::string data = RandomBytes(4 * kLane + 11, &rng);
  const uint32_t whole = Crc32c(data);
  for (size_t chunk : {size_t{1}, size_t{7}, size_t{4095}, kLane + 3}) {
    uint32_t crc = 0;
    for (size_t at = 0; at < data.size(); at += chunk) {
      crc = Crc32cExtend(crc, data.data() + at,
                         std::min(chunk, data.size() - at));
    }
    EXPECT_EQ(crc, whole) << "chunk " << chunk;
  }
}

}  // namespace
}  // namespace cluseq
