#include "seq/seqdb_reader.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <utility>

#include "obs/metrics.h"
#include "seq/seqdb_writer.h"
#include "util/crc32c.h"
#include "util/string_util.h"

namespace cluseq {

namespace {

template <typename T>
T ReadPod(const char* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

// Index of the first of `count` packed symbols that is >= `limit`, or
// `count` if none is. A branch-free pass decides whether any is (the OR of
// the comparisons vectorizes even on baseline SSE2, which has no unsigned
// 32-bit max); only then does a second pass find the first. Kept out of
// line: inlined into the read loop below, GCC leaves the pass scalar.
__attribute__((noinline)) size_t FirstSymbolAtLeast(const char* symbols,
                                                    size_t count,
                                                    uint32_t limit) {
  uint32_t any = 0;
  for (size_t i = 0; i < count; ++i) {
    any |= ReadPod<SymbolId>(symbols + i * sizeof(SymbolId)) >= limit;
  }
  if (any == 0) return count;
  size_t i = 0;
  while (ReadPod<SymbolId>(symbols + i * sizeof(SymbolId)) < limit) ++i;
  return i;
}

Status Corrupt(const std::string& path, const std::string& detail) {
  return Status::Corruption(
      StringPrintf("%s: %s", path.c_str(), detail.c_str()));
}

// Streams the data file through a small reusable buffer, verifying the
// whole-file CRC32C and that every payload symbol is < alphabet_count.
// Reads via read(2) rather than the mapping so the verification pass does
// not fault the corpus into this process's RSS; the pages live in the
// kernel page cache only.
Status VerifyDataStreaming(const std::string& path, uint64_t expected_bytes,
                           uint32_t expected_crc, uint32_t alphabet_count) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError(
        StringPrintf("open %s for verification failed", path.c_str()));
  }
  // Multiple of sizeof(SymbolId), and the 24-byte header is too, so every
  // refill starts and ends on a symbol boundary.
  constexpr size_t kChunk = 1u << 20;
  static_assert(kChunk % sizeof(SymbolId) == 0);
  static_assert(kSeqDbDataHeaderBytes % sizeof(SymbolId) == 0);
  // Uninitialized and no larger than the file: read(2) overwrites every
  // byte the loop looks at.
  const size_t buffer_bytes =
      static_cast<size_t>(std::min<uint64_t>(kChunk, expected_bytes));
  const auto buffer = std::make_unique_for_overwrite<char[]>(buffer_bytes);
  uint32_t crc = 0;
  uint64_t offset = 0;
  while (offset < expected_bytes) {
    // Fill the chunk completely (short reads would desync the symbol
    // boundaries below).
    size_t filled = 0;
    const size_t want = static_cast<size_t>(
        std::min<uint64_t>(kChunk, expected_bytes - offset));
    while (filled < want) {
      const ssize_t n = ::read(fd, buffer.get() + filled, want - filled);
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        return Status::IOError(
            StringPrintf("read %s during verification failed", path.c_str()));
      }
      if (n == 0) break;  // Premature EOF; caught by the length check below.
      filled += static_cast<size_t>(n);
    }
    if (filled < want) {
      ::close(fd);
      return Corrupt(path, StringPrintf(
                               "data file shorter than its index claims "
                               "(%llu of %llu bytes)",
                               static_cast<unsigned long long>(offset + filled),
                               static_cast<unsigned long long>(expected_bytes)));
    }
    crc = Crc32cExtend(crc, buffer.get(), filled);
    // Range-check the payload symbols in this chunk.
    const uint64_t chunk_end = offset + filled;
    const uint64_t sym_begin =
        std::min(std::max<uint64_t>(offset, kSeqDbDataHeaderBytes), chunk_end);
    const char* const symbols = buffer.get() + (sym_begin - offset);
    const size_t num_symbols = (chunk_end - sym_begin) / sizeof(SymbolId);
    const size_t bad = FirstSymbolAtLeast(symbols, num_symbols, alphabet_count);
    if (bad < num_symbols) {
      ::close(fd);
      return Corrupt(
          path, StringPrintf("symbol id %u at byte %llu outside the "
                             "alphabet (%u symbols)",
                             ReadPod<SymbolId>(symbols + bad * sizeof(SymbolId)),
                             static_cast<unsigned long long>(
                                 sym_begin + bad * sizeof(SymbolId)),
                             alphabet_count));
    }
    offset = chunk_end;
  }
  // The file must also not be longer than the index claims.
  char extra;
  const ssize_t tail = ::read(fd, &extra, 1);
  ::close(fd);
  if (tail != 0) {
    return Corrupt(path, "data file longer than its index claims");
  }
  if (crc != expected_crc) {
    return Corrupt(path,
                   StringPrintf("data CRC mismatch (stored %08x, computed "
                                "%08x)",
                                expected_crc, crc));
  }
  return Status::OK();
}

}  // namespace

void SeqDbReader::Reset() {
  alphabet_ = Alphabet();
  data_.Reset();
  index_.Reset();
  path_.clear();
  payload_ = nullptr;
  record_table_ = nullptr;
  id_blob_ = nullptr;
  num_records_ = 0;
  data_crc_ = 0;
  load_seconds_ = 0.0;
  aligned_payload_.clear();
  aligned_payload_.shrink_to_fit();
}

SeqDbReader::RecordEntry SeqDbReader::Entry(size_t i) const {
  static_assert(sizeof(RecordEntry) == kSeqDbRecordEntryBytes,
                "RecordEntry must match the on-disk entry layout");
  RecordEntry entry;
  std::memcpy(&entry, record_table_ + i * kSeqDbRecordEntryBytes,
              sizeof(entry));
  return entry;
}

std::span<const SymbolId> SeqDbReader::Symbols(size_t i) const {
  const RecordEntry entry = Entry(i);
  const size_t first =
      (entry.data_offset - kSeqDbDataHeaderBytes) / sizeof(SymbolId);
  return std::span<const SymbolId>(payload_ + first, entry.num_symbols);
}

std::string_view SeqDbReader::Id(size_t i) const {
  const RecordEntry entry = Entry(i);
  return std::string_view(id_blob_ + entry.id_offset, entry.id_bytes);
}

Label SeqDbReader::LabelOf(size_t i) const { return Entry(i).label; }

size_t SeqDbReader::Length(size_t i) const { return Entry(i).num_symbols; }

uint64_t SeqDbReader::ContentFingerprint() const {
  // Fold the data CRC (verified against the payload on open when
  // verify_data is set) into the structural base fingerprint.
  uint64_t h = SequenceStore::ContentFingerprint();
  h ^= 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(data_crc_) +
       (h << 6) + (h >> 2);
  return h;
}

Status SeqDbReader::Open(const std::string& path, SeqDbReader* out,
                         const SeqDbReaderOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  SeqDbReader reader;
  reader.path_ = path;

  const std::string index_path = SeqDbIndexPath(path);
  Status status = [&]() -> Status {
    // ---- Index file: map, then validate everything before trusting it.
    CLUSEQ_RETURN_NOT_OK(
        MappedFile::Open(index_path, &reader.index_, options.prefer_mmap));
    const char* ix = reader.index_.data();
    const uint64_t ix_size = reader.index_.size();
    if (ix_size < kSeqDbIndexHeaderBytes + sizeof(uint32_t)) {
      return Corrupt(index_path, "index file shorter than its header");
    }
    if (std::memcmp(ix, kSeqDbIndexMagic, sizeof(kSeqDbIndexMagic)) != 0) {
      return Corrupt(index_path, "bad index magic");
    }
    const uint32_t version = ReadPod<uint32_t>(ix + 8);
    if (version != kSeqDbVersion) {
      return Corrupt(index_path,
                     StringPrintf("unsupported version %u", version));
    }
    const uint32_t alphabet_count = ReadPod<uint32_t>(ix + 12);
    const uint64_t num_records = ReadPod<uint64_t>(ix + 16);
    const uint64_t data_file_bytes = ReadPod<uint64_t>(ix + 24);
    const uint32_t data_crc = ReadPod<uint32_t>(ix + 32);
    reader.data_crc_ = data_crc;
    const uint64_t alphabet_blob_bytes = ReadPod<uint64_t>(ix + 40);
    const uint64_t id_blob_bytes = ReadPod<uint64_t>(ix + 48);

    // Exact size equation. Cap each term by the actual file size first so
    // the sum cannot overflow, then require equality — no trailing junk,
    // no truncation.
    if (alphabet_blob_bytes > ix_size || id_blob_bytes > ix_size ||
        num_records > ix_size / kSeqDbRecordEntryBytes) {
      return Corrupt(index_path, "section sizes exceed the index file");
    }
    const uint64_t expected_size = kSeqDbIndexHeaderBytes +
                                   alphabet_blob_bytes +
                                   num_records * kSeqDbRecordEntryBytes +
                                   id_blob_bytes + sizeof(uint32_t);
    if (expected_size != ix_size) {
      return Corrupt(
          index_path,
          StringPrintf("index size %llu does not match layout (%llu expected)",
                       static_cast<unsigned long long>(ix_size),
                       static_cast<unsigned long long>(expected_size)));
    }
    const uint32_t stored_crc =
        ReadPod<uint32_t>(ix + ix_size - sizeof(uint32_t));
    const uint32_t computed_crc = Crc32c(ix, ix_size - sizeof(uint32_t));
    if (stored_crc != computed_crc) {
      return Corrupt(index_path,
                     StringPrintf("index CRC mismatch (stored %08x, "
                                  "computed %08x)",
                                  stored_crc, computed_crc));
    }

    // ---- Alphabet blob: must tile its section exactly, names distinct.
    const char* cursor = ix + kSeqDbIndexHeaderBytes;
    const char* const alphabet_end = cursor + alphabet_blob_bytes;
    for (uint32_t s = 0; s < alphabet_count; ++s) {
      if (alphabet_end - cursor < static_cast<ptrdiff_t>(sizeof(uint32_t))) {
        return Corrupt(index_path, "alphabet blob truncated");
      }
      const uint32_t name_bytes = ReadPod<uint32_t>(cursor);
      cursor += sizeof(uint32_t);
      if (alphabet_end - cursor < static_cast<ptrdiff_t>(name_bytes)) {
        return Corrupt(index_path, "alphabet name overruns its blob");
      }
      reader.alphabet_.Intern(std::string_view(cursor, name_bytes));
      cursor += name_bytes;
    }
    if (cursor != alphabet_end) {
      return Corrupt(index_path, "alphabet blob has trailing bytes");
    }
    if (reader.alphabet_.size() != alphabet_count) {
      return Corrupt(index_path, "alphabet contains duplicate symbol names");
    }

    // ---- Record table: enforce the canonical contiguous layout.
    reader.record_table_ = alphabet_end;
    reader.id_blob_ =
        reader.record_table_ + num_records * kSeqDbRecordEntryBytes;
    reader.num_records_ = num_records;
    uint64_t expected_data_offset = kSeqDbDataHeaderBytes;
    uint64_t expected_id_offset = 0;
    for (uint64_t i = 0; i < num_records; ++i) {
      const RecordEntry entry = reader.Entry(i);
      if (entry.data_offset != expected_data_offset) {
        return Corrupt(index_path,
                       StringPrintf("record %llu data offset not contiguous",
                                    static_cast<unsigned long long>(i)));
      }
      if (entry.id_offset != expected_id_offset) {
        return Corrupt(index_path,
                       StringPrintf("record %llu id offset not contiguous",
                                    static_cast<unsigned long long>(i)));
      }
      if (entry.label < kNoLabel) {
        return Corrupt(index_path,
                       StringPrintf("record %llu has invalid label %d",
                                    static_cast<unsigned long long>(i),
                                    entry.label));
      }
      expected_data_offset +=
          static_cast<uint64_t>(entry.num_symbols) * sizeof(SymbolId);
      expected_id_offset += entry.id_bytes;
    }
    if (expected_data_offset != data_file_bytes) {
      return Corrupt(index_path,
                     "record lengths do not tile the data file exactly");
    }
    if (expected_id_offset != id_blob_bytes) {
      return Corrupt(index_path,
                     "record id lengths do not tile the id blob exactly");
    }

    // ---- Data file: verify the stream first (CRC + symbol range, RSS-
    // bounded), then map it for zero-copy serving.
    if (options.verify_data) {
      CLUSEQ_RETURN_NOT_OK(VerifyDataStreaming(path, data_file_bytes, data_crc,
                                               alphabet_count));
    }
    CLUSEQ_RETURN_NOT_OK(
        MappedFile::Open(path, &reader.data_, options.prefer_mmap));
    if (reader.data_.size() != data_file_bytes) {
      return Corrupt(path,
                     StringPrintf("data file is %llu bytes, index expects "
                                  "%llu",
                                  static_cast<unsigned long long>(
                                      reader.data_.size()),
                                  static_cast<unsigned long long>(
                                      data_file_bytes)));
    }
    const char* dx = reader.data_.data();
    if (std::memcmp(dx, kSeqDbDataMagic, sizeof(kSeqDbDataMagic)) != 0) {
      return Corrupt(path, "bad data magic");
    }
    if (ReadPod<uint32_t>(dx + 8) != kSeqDbVersion) {
      return Corrupt(path, "data file version mismatch");
    }
    const uint64_t payload_bytes = ReadPod<uint64_t>(dx + 16);
    if (payload_bytes != data_file_bytes - kSeqDbDataHeaderBytes) {
      return Corrupt(path, "data header payload size mismatch");
    }

    // Zero-copy span base. mmap is page-aligned; the buffered path hands
    // out std::string storage, which is also suitably aligned for u32 in
    // practice — but if it ever is not, fall back to an owned aligned copy
    // rather than serving misaligned spans.
    const char* payload_start = dx + kSeqDbDataHeaderBytes;
    if (reinterpret_cast<uintptr_t>(payload_start) % alignof(SymbolId) == 0) {
      reader.payload_ = reinterpret_cast<const SymbolId*>(payload_start);
    } else {
      reader.aligned_payload_.resize(payload_bytes / sizeof(SymbolId));
      std::memcpy(reader.aligned_payload_.data(), payload_start,
                  payload_bytes);
      reader.payload_ = reader.aligned_payload_.data();
    }
    return Status::OK();
  }();

  static obs::Counter& corruption_detected =
      obs::MetricsRegistry::Get().GetCounter("seqdb.corruption_detected");
  if (!status.ok()) {
    if (status.IsCorruption()) {
      corruption_detected.Increment();
    }
    return status;
  }

  reader.load_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  static obs::Counter& bytes_mapped =
      obs::MetricsRegistry::Get().GetCounter("seqdb.bytes_mapped");
  static obs::Counter& records_loaded =
      obs::MetricsRegistry::Get().GetCounter("seqdb.records_loaded");
  static obs::Counter& loads_mmap =
      obs::MetricsRegistry::Get().GetCounter("seqdb.loads_mmap");
  static obs::Counter& loads_buffered =
      obs::MetricsRegistry::Get().GetCounter("seqdb.loads_buffered");
  static obs::Gauge& load_seconds =
      obs::MetricsRegistry::Get().GetGauge("seqdb.load_seconds");
  bytes_mapped.Add(reader.data_.size() + reader.index_.size());
  records_loaded.Add(reader.num_records_);
  (reader.data_.is_mmap() ? loads_mmap : loads_buffered).Increment();
  load_seconds.Set(reader.load_seconds_);

  *out = std::move(reader);
  return Status::OK();
}

}  // namespace cluseq
