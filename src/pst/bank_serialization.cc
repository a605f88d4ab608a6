#include "pst/bank_serialization.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/crc32c.h"
#include "util/file_io.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace cluseq {

namespace {

constexpr char kHeaderMagic[8] = {'C', 'S', 'Q', 'F', 'B', 'N', 'K', '1'};
constexpr char kFooterMagic[8] = {'1', 'K', 'N', 'B', 'F', 'Q', 'S', 'C'};
constexpr uint32_t kVersion = 1;
constexpr uint32_t kSectionMeta = 1;
constexpr uint32_t kSectionBases = 2;
constexpr uint32_t kSectionEntries = 3;

// Caps on untrusted counts, applied before any allocation. The entry cap
// mirrors FrozenBank::Assemble's CHECK: the SIMD gathers address entry g
// at scaled signed 32-bit index 4·g + 2.
constexpr uint64_t kMaxModels = 1ULL << 20;
constexpr uint64_t kMaxAlphabet = 1ULL << 24;
constexpr uint64_t kMaxStates = 1ULL << 28;
constexpr uint64_t kMaxTotalEntries =
    static_cast<uint64_t>(std::numeric_limits<int32_t>::max() / 4);

constexpr size_t kSectionTableOffset = kFbankHeaderBytes;
constexpr size_t kSectionsOffset =
    kSectionTableOffset + kFbankSectionCount * kFbankSectionEntryBytes;

size_t AlignUp(size_t v, size_t a) { return (v + a - 1) / a * a; }

template <typename T>
void AppendPod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void ReadPodAt(const char* data, size_t offset, T* value) {
  std::memcpy(value, data + offset, sizeof(T));  // Caller bounds-checks.
}

Status Corrupt(const char* detail) {
  return Status::Corruption(std::string(".fbank ") + detail);
}

/// The canonical section layout for a bank of `num_models` models and
/// `total_entries` packed rows; loads recompute this and require the
/// on-disk section table to match exactly, so overlapping or out-of-place
/// sections can never validate.
struct Layout {
  size_t meta_offset, meta_size;
  size_t bases_offset, bases_size;
  size_t entries_offset, entries_size;
  size_t footer_offset;
  size_t file_size;
};

Layout ComputeLayout(size_t num_models, size_t total_entries) {
  Layout l;
  l.meta_offset = kSectionsOffset;
  l.meta_size = 2 * sizeof(uint64_t) + num_models * 2 * sizeof(uint64_t);
  l.bases_offset = l.meta_offset + l.meta_size;
  l.bases_size = num_models * sizeof(uint64_t);
  l.entries_offset =
      AlignUp(l.bases_offset + l.bases_size, kFbankEntriesAlignment);
  l.entries_size = total_entries * sizeof(FrozenBank::Entry);
  l.footer_offset = l.entries_offset + l.entries_size;
  l.file_size = l.footer_offset + kFbankFooterBytes;
  return l;
}

void AppendSectionEntry(std::string* out, uint32_t id, size_t offset,
                        size_t size, uint32_t crc) {
  AppendPod(out, id);
  AppendPod(out, uint32_t{0});
  AppendPod(out, static_cast<uint64_t>(offset));
  AppendPod(out, static_cast<uint64_t>(size));
  AppendPod(out, crc);
  AppendPod(out, uint32_t{0});
}

struct SectionEntry {
  uint32_t id, reserved;
  uint64_t offset, size;
  uint32_t crc, reserved2;
};

SectionEntry ReadSectionEntry(const char* data, size_t table_index) {
  const size_t base =
      kSectionTableOffset + table_index * kFbankSectionEntryBytes;
  SectionEntry e;
  ReadPodAt(data, base, &e.id);
  ReadPodAt(data, base + 4, &e.reserved);
  ReadPodAt(data, base + 8, &e.offset);
  ReadPodAt(data, base + 16, &e.size);
  ReadPodAt(data, base + 24, &e.crc);
  ReadPodAt(data, base + 28, &e.reserved2);
  return e;
}

/// A byte range whose CRC32C the load already computed.
struct HashedRange {
  size_t offset, size;
  uint32_t crc;
};

/// Checks section `table_index` against its canonical place, then its CRC.
/// The CRC of `hashed` is reused when it covers exactly the canonical
/// range; any other range is hashed afresh.
Status CheckSection(const char* data, size_t table_index, uint32_t want_id,
                    size_t want_offset, size_t want_size,
                    const HashedRange& hashed) {
  SectionEntry e = ReadSectionEntry(data, table_index);
  if (e.id != want_id || e.reserved != 0 || e.reserved2 != 0) {
    return Corrupt("section table entry malformed");
  }
  if (e.offset != want_offset || e.size != want_size) {
    return Corrupt("section offsets disagree with canonical layout");
  }
  const uint32_t crc =
      hashed.offset == want_offset && hashed.size == want_size
          ? hashed.crc
          : Crc32c(data + want_offset, want_size);
  if (crc != e.crc) return Corrupt("section checksum mismatch");
  return Status::OK();
}

// --- persistence metrics (names shared with pst_serialization.cc) --------

void RecordBytesWritten(size_t n) {
  static obs::Counter& bytes =
      obs::MetricsRegistry::Get().GetCounter("persistence.bytes_written");
  bytes.Add(n);
}

void RecordLoad(double seconds, size_t bytes_read) {
  static obs::Histogram& load_seconds =
      obs::MetricsRegistry::Get().GetHistogram(
          "persistence.load_seconds", obs::ExponentialBounds(1e-5, 4.0, 12));
  static obs::Counter& bytes =
      obs::MetricsRegistry::Get().GetCounter("persistence.bytes_read");
  load_seconds.Observe(seconds);
  bytes.Add(bytes_read);
}

void RecordLoadMode(bool mmap) {
  static obs::Counter& mmap_loads =
      obs::MetricsRegistry::Get().GetCounter("persistence.loads_mmap");
  static obs::Counter& buffered_loads =
      obs::MetricsRegistry::Get().GetCounter("persistence.loads_buffered");
  static obs::Gauge& last_mmap =
      obs::MetricsRegistry::Get().GetGauge("persistence.last_load_mmap");
  (mmap ? mmap_loads : buffered_loads).Increment();
  last_mmap.Set(mmap ? 1.0 : 0.0);
}

Status TrackCorruption(Status st) {
  if (st.IsCorruption()) {
    static obs::Counter& corrupt = obs::MetricsRegistry::Get().GetCounter(
        "persistence.corruption_detected");
    corrupt.Increment();
  }
  return st;
}

}  // namespace

// Accesses FrozenBank internals on behalf of the .fbank save/load
// functions (mirrors PstSerializer for the live-tree .pst format).
class BankSerializer {
 public:
  static Status Save(const FrozenBank& bank, std::string* blob) {
    if (bank.empty()) {
      return Status::InvalidArgument("cannot save an empty FrozenBank");
    }
    const size_t k = bank.num_models();
    const size_t alphabet = bank.alphabet_size_;
    size_t total_entries = 0;
    for (size_t m = 0; m < k; ++m) total_entries += bank.ModelEntries(m);
    const Layout layout = ComputeLayout(k, total_entries);

    std::string meta;
    meta.reserve(layout.meta_size);
    AppendPod(&meta, static_cast<uint64_t>(alphabet));
    AppendPod(&meta, static_cast<uint64_t>(k));
    for (size_t m = 0; m < k; ++m) {
      AppendPod(&meta, static_cast<uint64_t>(bank.states_[m]));
      // max_depth is informational (diagnostics, future tooling); a bank
      // loaded from a .fbank no longer knows it and echoes 0.
      AppendPod(&meta, static_cast<uint64_t>(
                           bank.has_snapshots() ? bank.model(m).max_depth()
                                                : 0));
    }
    std::string bases;
    bases.reserve(layout.bases_size);
    for (size_t m = 0; m < k; ++m) {
      AppendPod(&bases, static_cast<uint64_t>(bank.base_[m]));
    }
    const char* entry_bytes =
        reinterpret_cast<const char*>(bank.scan_data());
    // The entries dominate the file; hash them once and derive the file
    // CRC from it by combine.
    const uint32_t entries_crc = Crc32c(entry_bytes, layout.entries_size);

    std::string out;
    out.reserve(layout.file_size);
    // Header: CRC over everything before the crc field itself.
    out.append(kHeaderMagic, sizeof(kHeaderMagic));
    AppendPod(&out, kVersion);
    AppendPod(&out, uint32_t{0});  // flags
    AppendPod(&out, static_cast<uint64_t>(layout.file_size));
    AppendPod(&out, static_cast<uint32_t>(kFbankSectionCount));
    AppendPod(&out, Crc32c(out.data(), out.size()));

    AppendSectionEntry(&out, kSectionMeta, layout.meta_offset,
                       layout.meta_size, Crc32c(meta));
    AppendSectionEntry(&out, kSectionBases, layout.bases_offset,
                       layout.bases_size, Crc32c(bases));
    AppendSectionEntry(&out, kSectionEntries, layout.entries_offset,
                       layout.entries_size, entries_crc);
    out += meta;
    out += bases;
    out.append(layout.entries_offset - out.size(), '\0');  // Alignment pad.
    const uint32_t file_crc = Crc32cCombine(Crc32c(out.data(), out.size()),
                                            entries_crc, layout.entries_size);
    out.append(entry_bytes, layout.entries_size);

    out.append(kFooterMagic, sizeof(kFooterMagic));
    AppendPod(&out, file_crc);
    AppendPod(&out, uint32_t{0});
    *blob = std::move(out);
    return Status::OK();
  }

  /// Validates `data` and installs it into `*bank`. With a non-null
  /// `storage` the entries section is served zero-copy from `data` (which
  /// `storage` must keep alive); otherwise the rows are copied into the
  /// bank's own arena. Per-model checks and the signature rebuild run on
  /// the pool, at most `num_threads` wide.
  static Status Load(const char* data, size_t size,
                     std::shared_ptr<const void> storage, size_t num_threads,
                     FrozenBank* bank) {
    // Framing first: nothing else is trusted before the whole-file CRC
    // verifies, so every later check reads checksummed bytes.
    constexpr size_t kMinSize =
        kSectionsOffset + 2 * sizeof(uint64_t) + kFbankFooterBytes;
    if (size < kMinSize) return Corrupt("file too small");
    if (std::memcmp(data, kHeaderMagic, sizeof(kHeaderMagic)) != 0) {
      return Corrupt("bad header magic");
    }
    uint32_t version = 0, flags = 0, section_count = 0, header_crc = 0;
    uint64_t declared_size = 0;
    ReadPodAt(data, 8, &version);
    ReadPodAt(data, 12, &flags);
    ReadPodAt(data, 16, &declared_size);
    ReadPodAt(data, 24, &section_count);
    ReadPodAt(data, 28, &header_crc);
    if (version != kVersion) return Corrupt("unsupported version");
    if (flags != 0) return Corrupt("unsupported flags");
    if (Crc32c(data, kFbankHeaderBytes - sizeof(uint32_t)) != header_crc) {
      return Corrupt("header checksum mismatch");
    }
    if (declared_size != size) return Corrupt("declared size mismatch");
    if (section_count != kFbankSectionCount) {
      return Corrupt("unexpected section count");
    }
    const size_t footer_offset = size - kFbankFooterBytes;
    if (std::memcmp(data + footer_offset, kFooterMagic,
                    sizeof(kFooterMagic)) != 0) {
      return Corrupt("bad footer magic");
    }
    uint32_t file_crc = 0, footer_reserved = 0;
    ReadPodAt(data, footer_offset + 8, &file_crc);
    ReadPodAt(data, footer_offset + 12, &footer_reserved);
    if (footer_reserved != 0) return Corrupt("footer reserved nonzero");
    // One pass over the bytes: the prefix before the entries section and
    // the entries are hashed separately and combined into the file CRC;
    // the entries' CRC is then reused by their section check. The split
    // comes from the not yet validated section table, so it is clamped
    // into the file; any split gives the same file CRC.
    const size_t split = static_cast<size_t>(
        std::min<uint64_t>(ReadSectionEntry(data, 2).offset, footer_offset));
    const HashedRange entries_hash = {split, footer_offset - split,
                                      Crc32c(data + split,
                                             footer_offset - split)};
    if (Crc32cCombine(Crc32c(data, split), entries_hash.crc,
                      entries_hash.size) != file_crc) {
      return Corrupt("file checksum mismatch");
    }

    // Meta counts, capped before any allocation, then the exact canonical
    // layout (so even CRC-fixed hostile section tables cannot move or
    // overlap sections).
    const SectionEntry meta_entry = ReadSectionEntry(data, 0);
    if (meta_entry.offset != kSectionsOffset ||
        meta_entry.size < 2 * sizeof(uint64_t) ||
        meta_entry.offset + meta_entry.size > footer_offset) {
      return Corrupt("meta section out of bounds");
    }
    uint64_t alphabet64 = 0, num_models64 = 0;
    ReadPodAt(data, kSectionsOffset, &alphabet64);
    ReadPodAt(data, kSectionsOffset + 8, &num_models64);
    if (alphabet64 == 0 || alphabet64 > kMaxAlphabet || num_models64 == 0 ||
        num_models64 > kMaxModels) {
      return Corrupt("implausible alphabet or model count");
    }
    const size_t alphabet = static_cast<size_t>(alphabet64);
    const size_t k = static_cast<size_t>(num_models64);
    if (meta_entry.size != 2 * sizeof(uint64_t) + k * 2 * sizeof(uint64_t)) {
      return Corrupt("meta section size mismatch");
    }
    if (meta_entry.offset + meta_entry.size > footer_offset) {
      return Corrupt("meta section overruns file");
    }
    std::vector<uint32_t> states(k);
    std::vector<size_t> base(k);
    uint64_t total_entries = 0;
    for (size_t m = 0; m < k; ++m) {
      uint64_t num_states = 0, max_depth = 0;
      const size_t at = kSectionsOffset + 16 + m * 16;
      ReadPodAt(data, at, &num_states);
      ReadPodAt(data, at + 8, &max_depth);
      if (num_states == 0 || num_states > kMaxStates ||
          max_depth > (1ULL << 32)) {
        return Corrupt("implausible per-model metadata");
      }
      base[m] = static_cast<size_t>(total_entries);
      total_entries += num_states * alphabet64;
      if (total_entries > kMaxTotalEntries) {
        return Corrupt("arena exceeds the gather-index range");
      }
      states[m] = static_cast<uint32_t>(num_states);
    }
    const Layout layout = ComputeLayout(k, static_cast<size_t>(total_entries));
    if (layout.file_size != size) return Corrupt("layout size mismatch");
    CLUSEQ_RETURN_NOT_OK(CheckSection(data, 0, kSectionMeta,
                                      layout.meta_offset, layout.meta_size,
                                      entries_hash));
    CLUSEQ_RETURN_NOT_OK(CheckSection(data, 1, kSectionBases,
                                      layout.bases_offset, layout.bases_size,
                                      entries_hash));
    CLUSEQ_RETURN_NOT_OK(CheckSection(data, 2, kSectionEntries,
                                      layout.entries_offset,
                                      layout.entries_size, entries_hash));
    for (size_t m = 0; m < k; ++m) {
      uint64_t stored_base = 0;
      ReadPodAt(data, layout.bases_offset + m * 8, &stored_base);
      if (stored_base != base[m]) {
        return Corrupt("bases disagree with per-model state counts");
      }
    }

    // Structural validation of every packed entry: after this, ScanAll's
    // unchecked gathers cannot leave the arena and the DP sees no NaN/+inf
    // (-inf stays legal: smoothing-off zero-probability rows). Transitions
    // must also respect symbol ownership — every non-root target of
    // Step(·, s) is reached on s alone, as in any frozen PST — which the
    // signature build relies on. Models are checked concurrently, each
    // recording its first bad entry; the lowest failing model is reported,
    // so the error is the serial scan's.
    const char* entry_bytes = data + layout.entries_offset;
    std::vector<const char*> model_error(k, nullptr);
    ParallelForWeighted(
        k, num_threads, [&](size_t m) -> uint64_t { return states[m]; },
        [&](size_t m) {
          constexpr uint32_t kNoOwner = std::numeric_limits<uint32_t>::max();
          std::vector<uint32_t> owner(states[m], kNoOwner);
          const uint64_t extent = static_cast<uint64_t>(states[m]) * alphabet;
          const char* rows = entry_bytes + base[m] * sizeof(FrozenBank::Entry);
          uint32_t symbol = 0;
          for (uint64_t e = 0; e < extent; ++e) {
            double ratio;
            uint32_t next, pad;
            const char* at = rows + e * sizeof(FrozenBank::Entry);
            std::memcpy(&ratio, at, sizeof(ratio));
            std::memcpy(&next, at + 8, sizeof(next));
            std::memcpy(&pad, at + 12, sizeof(pad));
            const uint32_t target = static_cast<uint32_t>(next / alphabet);
            if (pad != 0) {
              model_error[m] = "entry padding nonzero";
            } else if (next % alphabet != 0 || next >= extent) {
              model_error[m] = "entry transition out of range";
            } else if (std::isnan(ratio) ||
                       ratio == std::numeric_limits<double>::infinity()) {
              model_error[m] = "entry log-ratio is NaN or +inf";
            } else if (target != 0 && owner[target] != symbol) {
              if (owner[target] == kNoOwner) {
                owner[target] = symbol;
              } else {
                model_error[m] = "entry transition breaks symbol ownership";
              }
            }
            if (model_error[m] != nullptr) return;
            if (++symbol == alphabet) symbol = 0;
          }
        });
    for (const char* error : model_error) {
      if (error != nullptr) return Corrupt(error);
    }

    FrozenBank fresh;
    fresh.alphabet_size_ = alphabet;
    fresh.states_ = std::move(states);
    fresh.base_ = std::move(base);
    fresh.base32_.resize(k);
    for (size_t m = 0; m < k; ++m) {
      fresh.base32_[m] = static_cast<uint32_t>(fresh.base_[m]);
    }
    const size_t entries_addr =
        reinterpret_cast<uintptr_t>(data) + layout.entries_offset;
    if (storage != nullptr &&
        entries_addr % alignof(FrozenBank::Entry) == 0) {
      fresh.external_entries_ =
          reinterpret_cast<const FrozenBank::Entry*>(entry_bytes);
      fresh.external_storage_ = std::move(storage);
    } else {
      fresh.entries_.resize(static_cast<size_t>(total_entries));
      std::memcpy(fresh.entries_.data(), entry_bytes, layout.entries_size);
    }
    // The file carries only the packed rows; the prefilter's bound
    // signatures are derived, so rebuild them from the (validated) arena.
    fresh.BuildAllSignatures(num_threads);
    *bank = std::move(fresh);
    return Status::OK();
  }
};

Status SaveFrozenBank(const FrozenBank& bank, std::string* blob) {
  return BankSerializer::Save(bank, blob);
}

Status SaveFrozenBankToFile(const FrozenBank& bank, const std::string& path) {
  std::string blob;
  CLUSEQ_RETURN_NOT_OK(SaveFrozenBank(bank, &blob));
  CLUSEQ_RETURN_NOT_OK(WriteFileAtomic(path, blob));
  RecordBytesWritten(blob.size());
  return Status::OK();
}

Status LoadFrozenBank(std::string_view blob, FrozenBank* bank,
                      size_t num_threads) {
  return TrackCorruption(BankSerializer::Load(blob.data(), blob.size(),
                                              nullptr, num_threads, bank));
}

Status LoadFrozenBankFromFile(const std::string& path, FrozenBank* bank,
                              const FbankLoadOptions& options,
                              FbankLoadInfo* info) {
  Stopwatch timer;
  auto file = std::make_shared<MappedFile>();
  CLUSEQ_RETURN_NOT_OK(MappedFile::Open(path, file.get(),
                                        options.prefer_mmap));
  const bool zero_copy = file->is_mmap();
  const char* data = file->data();
  const size_t size = file->size();
  CLUSEQ_RETURN_NOT_OK(TrackCorruption(BankSerializer::Load(
      data, size, zero_copy ? std::shared_ptr<const void>(file) : nullptr,
      options.num_threads, bank)));
  RecordLoad(timer.ElapsedSeconds(), size);
  RecordLoadMode(bank->mapped());
  if (info != nullptr) {
    info->mmap = bank->mapped();
    info->file_bytes = size;
    info->num_models = bank->num_models();
  }
  return Status::OK();
}

}  // namespace cluseq
