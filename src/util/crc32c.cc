#include "util/crc32c.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace cluseq {

namespace {

constexpr uint32_t kPolyReflected = 0x82F63B78u;

// Slicing-by-4: four 256-entry tables let the hot loop retire 4 input
// bytes per iteration with no data-dependent branches. Tables are built at
// compile time from the reflected Castagnoli polynomial.
struct Crc32cTables {
  uint32_t t[4][256];
};

constexpr Crc32cTables BuildTables() {
  Crc32cTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? kPolyReflected ^ (crc >> 1) : crc >> 1;
    }
    tables.t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    tables.t[1][i] =
        (tables.t[0][i] >> 8) ^ tables.t[0][tables.t[0][i] & 0xFFu];
    tables.t[2][i] =
        (tables.t[1][i] >> 8) ^ tables.t[0][tables.t[1][i] & 0xFFu];
    tables.t[3][i] =
        (tables.t[2][i] >> 8) ^ tables.t[0][tables.t[2][i] & 0xFFu];
  }
  return tables;
}

constexpr Crc32cTables kTables = BuildTables();

// a·b mod P over GF(2), both operands in the reflected representation the
// CRC register uses (bit 31 holds the x^0 coefficient), as zlib's
// multmodp.
constexpr uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b & 1u) ? (b >> 1) ^ kPolyReflected : b >> 1;
  }
  return product;
}

// kByteShifts.t[j] = x^(8·2^j) mod P, by repeated squaring of x^8.
struct ByteShifts {
  uint32_t t[64];
};

constexpr ByteShifts BuildByteShifts() {
  ByteShifts shifts{};
  uint32_t power = 1u << (31 - 8);  // x^8
  for (int j = 0; j < 64; ++j) {
    shifts.t[j] = power;
    power = MultModP(power, power);
  }
  return shifts;
}

constexpr ByteShifts kByteShifts = BuildByteShifts();

// x^(8n) mod P: multiplying a CRC register by it advances the register over
// n zero bytes.
constexpr uint32_t ZeroBytesOperator(uint64_t n) {
  uint32_t op = 1u << 31;  // x^0
  for (int j = 0; n != 0; n >>= 1, ++j) {
    if (n & 1) op = MultModP(kByteShifts.t[j], op);
  }
  return op;
}

#if defined(__x86_64__)

// Each hardware lane hashes one of three adjacent blocks of this size. The
// crc32 instruction has a 3-cycle latency and a 1-per-cycle throughput, so
// three independent lanes keep it busy; the block is large enough that the
// two merge multiplies per 3 blocks cost next to nothing.
constexpr size_t kLaneBytes = internal::kCrc32cLaneBytes;
constexpr uint32_t kShiftOneLane = ZeroBytesOperator(kLaneBytes);
constexpr uint32_t kShiftTwoLanes = ZeroBytesOperator(2 * kLaneBytes);

inline uint64_t Load64(const uint8_t* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));  // Little-endian, unaligned.
  return word;
}

__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                       const uint8_t* p,
                                                       size_t size) {
  uint64_t c = crc ^ 0xFFFFFFFFu;
  while (size >= 3 * kLaneBytes) {
    // Lanes b and d start from a zero register; by linearity the block's
    // register is a·x^(16L) ^ b·x^(8L) ^ d (L = kLaneBytes).
    uint64_t a = c, b = 0, d = 0;
    for (size_t i = 0; i < kLaneBytes; i += 8) {
      a = _mm_crc32_u64(a, Load64(p + i));
      b = _mm_crc32_u64(b, Load64(p + kLaneBytes + i));
      d = _mm_crc32_u64(d, Load64(p + 2 * kLaneBytes + i));
    }
    c = MultModP(kShiftTwoLanes, static_cast<uint32_t>(a)) ^
        MultModP(kShiftOneLane, static_cast<uint32_t>(b)) ^
        static_cast<uint32_t>(d);
    p += 3 * kLaneBytes;
    size -= 3 * kLaneBytes;
  }
  for (; size >= 8; p += 8, size -= 8) c = _mm_crc32_u64(c, Load64(p));
  for (; size > 0; ++p, --size) {
    c = _mm_crc32_u8(static_cast<uint32_t>(c), *p);
  }
  return static_cast<uint32_t>(c) ^ 0xFFFFFFFFu;
}

bool HasSse42() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return has;
}

#endif  // __x86_64__

}  // namespace

namespace internal {

uint32_t Crc32cPortable(uint32_t crc, const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  while (size >= 4) {
    uint32_t word;
    std::memcpy(&word, p, sizeof(word));  // Little-endian load.
    c ^= word;
    c = kTables.t[3][c & 0xFFu] ^ kTables.t[2][(c >> 8) & 0xFFu] ^
        kTables.t[1][(c >> 16) & 0xFFu] ^ kTables.t[0][c >> 24];
    p += 4;
    size -= 4;
  }
  while (size-- > 0) {
    c = (c >> 8) ^ kTables.t[0][(c ^ *p++) & 0xFFu];
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace internal

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t size) {
#if defined(__x86_64__)
  if (HasSse42()) {
    return ExtendSse42(crc, static_cast<const uint8_t*>(data), size);
  }
#endif
  return internal::Crc32cPortable(crc, data, size);
}

uint32_t Crc32c(const void* data, size_t size) {
  return Crc32cExtend(0, data, size);
}

uint32_t Crc32cCombine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b) {
  // With the pre/post inversions the finalized sums combine exactly like
  // raw registers (the inversions' contributions cancel), as in zlib.
  return MultModP(ZeroBytesOperator(len_b), crc_a) ^ crc_b;
}

}  // namespace cluseq
