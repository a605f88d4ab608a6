// CRC32C (Castagnoli, polynomial 0x1EDC6F41): the checksum used by every
// on-disk format (.pst, .fbank, .sqdb, checkpoints). Chosen over CRC32 for
// its widespread use in storage formats (iSCSI, ext4, RocksDB) and its
// hardware support.
//
// Loads hash files that are usually already in the page cache, so the
// checksum runs at memory speed or it is the load's largest cost. On x86-64
// CPUs with SSE4.2 (detected at run time) the kernel runs the crc32
// instruction on three independent lanes over adjacent blocks and merges
// them by a GF(2) multiply with precomputed x^(8n) mod P constants.
// Elsewhere it falls back to a portable slicing-by-4 table walk, which is
// also the test oracle (internal::Crc32cPortable). Both give identical
// values for every input.
//
// Convention matches the RFC 3720 test vectors: Crc32c("123456789") ==
// 0xE3069283, Crc32c("") == 0. Crc32cExtend composes incrementally:
// Crc32cExtend(Crc32c(a), b) == Crc32c(a + b); Crc32cCombine composes two
// independently computed sums: Crc32cCombine(Crc32c(a), Crc32c(b), |b|) ==
// Crc32c(a + b).

#ifndef CLUSEQ_UTIL_CRC32C_H_
#define CLUSEQ_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace cluseq {

/// CRC32C of `size` bytes at `data`.
uint32_t Crc32c(const void* data, size_t size);

inline uint32_t Crc32c(std::string_view data) {
  return Crc32c(data.data(), data.size());
}

/// Extends a previously computed CRC with more bytes (streaming use).
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t size);

/// CRC32C of a + b from crc_a = Crc32c(a), crc_b = Crc32c(b) and
/// len_b = |b|, without touching the bytes (zlib's crc32_combine, O(log
/// len_b)). Lets a caller hash disjoint ranges once and derive the sum of
/// their concatenation.
uint32_t Crc32cCombine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b);

namespace internal {

/// Block each of the hardware kernel's three lanes hashes; exported so the
/// tests can probe lengths around the lane boundaries.
inline constexpr size_t kCrc32cLaneBytes = 16384;

/// The portable table walk, with Crc32cExtend's contract. Serves CPUs
/// without the crc32 instruction and is the reference the tests hold the
/// dispatched kernel to.
uint32_t Crc32cPortable(uint32_t crc, const void* data, size_t size);

}  // namespace internal

}  // namespace cluseq

#endif  // CLUSEQ_UTIL_CRC32C_H_
