// The .sqdb on-disk store, held to the same bar as the model formats:
// lossless round-trips (including empty databases, 1-symbol records,
// unicode ids/labels, and >64k-record tables), mmap and buffered loads
// byte-for-byte interchangeable, and a hostile-input wall — truncation at
// every offset and every single-bit flip of both files must come back as
// Status::Corruption (or IOError), never a crash. The CI sanitizer job
// runs this file under ASan/UBSan to turn "never a crash" into a check.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cluseq.h"
#include "seq/seqdb_reader.h"
#include "seq/seqdb_writer.h"
#include "seq/sequence_database.h"
#include "synth/dataset.h"
#include "util/crc32c.h"
#include "util/rng.h"

namespace cluseq {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// A scratch directory per fixture; removed on destruction.
struct TempDir {
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "cluseq_sqdb_XXXXXX";
    char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    path = made;
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string File(const std::string& name) const { return path + "/" + name; }
  std::string path;
};

void ExpectStoresEqual(const SequenceStore& want, const SequenceStore& got) {
  ASSERT_EQ(want.size(), got.size());
  ASSERT_EQ(want.alphabet().size(), got.alphabet().size());
  for (SymbolId s = 0; s < want.alphabet().size(); ++s) {
    EXPECT_EQ(want.alphabet().Name(s), got.alphabet().Name(s));
  }
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want.Id(i), got.Id(i)) << i;
    EXPECT_EQ(want.LabelOf(i), got.LabelOf(i)) << i;
    ASSERT_EQ(want.Length(i), got.Length(i)) << i;
    const auto a = want.Symbols(i);
    const auto b = got.Symbols(i);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << i;
  }
  EXPECT_EQ(want.TotalSymbols(), got.TotalSymbols());
  EXPECT_EQ(want.NumLabels(), got.NumLabels());
  EXPECT_EQ(want.LengthSortedOrder(), got.LengthSortedOrder());
}

SequenceDatabase SmallDb() {
  SequenceDatabase db;
  EXPECT_TRUE(db.AddText("abcabcabd", "first", 0).ok());
  EXPECT_TRUE(db.AddText("dddd", "", 1).ok());  // Empty id.
  EXPECT_TRUE(db.AddText("a", "one-symbol", kNoLabel).ok());
  EXPECT_TRUE(db.AddText("bcbcbc", "s\xC3\xA9q-\xE2\x9C\x93", 0).ok());
  return db;
}

// --- round trips ---------------------------------------------------------

TEST(SeqDbTest, RoundTripSmall) {
  TempDir dir;
  const std::string path = dir.File("small.sqdb");
  SequenceDatabase db = SmallDb();
  SeqDbWriteStats stats;
  ASSERT_TRUE(WriteSeqDb(db, path, &stats).ok());
  EXPECT_EQ(stats.records, db.size());
  EXPECT_EQ(stats.total_symbols, db.TotalSymbols());
  EXPECT_GT(stats.data_bytes, 0u);
  EXPECT_GT(stats.index_bytes, 0u);

  SeqDbReader reader;
  ASSERT_TRUE(SeqDbReader::Open(path, &reader).ok());
  ExpectStoresEqual(db, reader);
  EXPECT_EQ(reader.data_bytes(), stats.data_bytes);
  EXPECT_EQ(reader.index_bytes(), stats.index_bytes);
}

TEST(SeqDbTest, RoundTripEmptyDatabase) {
  TempDir dir;
  const std::string path = dir.File("empty.sqdb");
  SequenceDatabase db;
  ASSERT_TRUE(WriteSeqDb(db, path).ok());
  SeqDbReader reader;
  ASSERT_TRUE(SeqDbReader::Open(path, &reader).ok());
  EXPECT_EQ(reader.size(), 0u);
  EXPECT_EQ(reader.TotalSymbols(), 0u);
  EXPECT_EQ(reader.alphabet().size(), 0u);
}

TEST(SeqDbTest, RoundTripEmptyRecordsAndUnicodeNames) {
  TempDir dir;
  const std::string path = dir.File("edge.sqdb");
  // Multi-byte symbol names, zero-length records, ids that collide.
  Alphabet alphabet;
  alphabet.Intern("\xCE\xB1");  // α
  alphabet.Intern("\xCE\xB2");  // β
  SequenceDatabase db{alphabet};
  db.Add(Sequence(std::vector<SymbolId>{}, "empty-record", 3));
  db.Add(Sequence(std::vector<SymbolId>{0}, "\xF0\x9F\xA7\xAC", 2));  // 🧬
  db.Add(Sequence(std::vector<SymbolId>{1, 0, 1}, "\xF0\x9F\xA7\xAC", 2));
  db.Add(Sequence(std::vector<SymbolId>{}, "", kNoLabel));
  ASSERT_TRUE(WriteSeqDb(db, path).ok());
  SeqDbReader reader;
  ASSERT_TRUE(SeqDbReader::Open(path, &reader).ok());
  ExpectStoresEqual(db, reader);
}

TEST(SeqDbTest, RoundTripMoreThan64kRecords) {
  TempDir dir;
  const std::string path = dir.File("big.sqdb");
  Rng rng(20260809);
  SequenceDatabase db{Alphabet::Synthetic(5)};
  const size_t n = 70000;  // Past any u16 assumption in the record table.
  for (size_t i = 0; i < n; ++i) {
    std::vector<SymbolId> symbols(rng.Uniform(4));
    for (auto& s : symbols) s = static_cast<SymbolId>(rng.Uniform(5));
    db.Add(Sequence(std::move(symbols), i % 3 == 0 ? "r" + std::to_string(i)
                                                   : std::string(),
                    static_cast<Label>(i % 7)));
  }
  ASSERT_TRUE(WriteSeqDb(db, path).ok());
  SeqDbReader reader;
  ASSERT_TRUE(SeqDbReader::Open(path, &reader).ok());
  ASSERT_EQ(reader.size(), n);
  // Spot-check a spread plus full aggregate equality.
  for (size_t i = 0; i < n; i += 997) {
    EXPECT_EQ(db.Id(i), reader.Id(i));
    EXPECT_EQ(db.LabelOf(i), reader.LabelOf(i));
    const auto a = db.Symbols(i);
    const auto b = reader.Symbols(i);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << i;
  }
  EXPECT_EQ(db.TotalSymbols(), reader.TotalSymbols());
}

TEST(SeqDbTest, MmapAndBufferedLoadsAreInterchangeable) {
  TempDir dir;
  const std::string path = dir.File("both.sqdb");
  SequenceDatabase db = SmallDb();
  ASSERT_TRUE(WriteSeqDb(db, path).ok());

  SeqDbReaderOptions mmap_options;
  mmap_options.prefer_mmap = true;
  SeqDbReaderOptions buffered_options;
  buffered_options.prefer_mmap = false;
  SeqDbReader via_mmap, via_buffer;
  ASSERT_TRUE(SeqDbReader::Open(path, &via_mmap, mmap_options).ok());
  ASSERT_TRUE(SeqDbReader::Open(path, &via_buffer, buffered_options).ok());
  EXPECT_FALSE(via_buffer.is_mmap());
  ExpectStoresEqual(via_mmap, via_buffer);
  ExpectStoresEqual(db, via_buffer);
}

TEST(SeqDbTest, WriterIsAtomicOverExistingFiles) {
  TempDir dir;
  const std::string path = dir.File("replace.sqdb");
  SequenceDatabase first = SmallDb();
  ASSERT_TRUE(WriteSeqDb(first, path).ok());
  SequenceDatabase second;
  ASSERT_TRUE(second.AddText("zzzyyy", "other", 5).ok());
  ASSERT_TRUE(WriteSeqDb(second, path).ok());
  SeqDbReader reader;
  ASSERT_TRUE(SeqDbReader::Open(path, &reader).ok());
  ExpectStoresEqual(second, reader);
}

// --- consumer equivalence ------------------------------------------------

TEST(SeqDbTest, ClusteringFromSqdbMatchesInRamBitForBit) {
  TempDir dir;
  const std::string path = dir.File("corpus.sqdb");
  SyntheticDatasetOptions synth;
  synth.num_clusters = 3;
  synth.sequences_per_cluster = 8;
  synth.avg_length = 60;
  synth.seed = 99;
  SequenceDatabase db = MakeSyntheticDataset(synth);
  ASSERT_TRUE(WriteSeqDb(db, path).ok());
  SeqDbReader reader;
  ASSERT_TRUE(SeqDbReader::Open(path, &reader).ok());

  for (size_t threads : {size_t{1}, size_t{2}, size_t{7}}) {
    CluseqOptions options;
    options.initial_clusters = 3;
    options.max_iterations = 4;
    options.num_threads = threads;
    ClusteringResult from_ram, from_disk;
    ASSERT_TRUE(RunCluseq(db, options, &from_ram).ok());
    ASSERT_TRUE(RunCluseq(reader, options, &from_disk).ok());
    EXPECT_EQ(from_ram.best_cluster, from_disk.best_cluster)
        << "threads=" << threads;
    EXPECT_EQ(from_ram.iterations, from_disk.iterations);
    EXPECT_EQ(from_ram.final_log_threshold, from_disk.final_log_threshold);
  }
}

// --- hostile inputs ------------------------------------------------------

// A deliberately tiny database: the sweeps below are quadratic-ish in file
// size and run under the sanitizers.
struct CorruptionFixture : TempDir {
  CorruptionFixture() {
    SequenceDatabase db;
    EXPECT_TRUE(db.AddText("abcab", "x", 0).ok());
    EXPECT_TRUE(db.AddText("cba", "y", 1).ok());
    data_path = File("tiny.sqdb");
    index_path = SeqDbIndexPath(data_path);
    EXPECT_TRUE(WriteSeqDb(db, data_path).ok());
    data_blob = ReadAll(data_path);
    index_blob = ReadAll(index_path);
    EXPECT_LT(data_blob.size() + index_blob.size(), 16384u)
        << "fixture too big, the sweeps below will crawl";
  }

  Status TryOpen() const {
    SeqDbReader reader;
    return SeqDbReader::Open(data_path, &reader);
  }

  std::string data_path, index_path;
  std::string data_blob, index_blob;
};

TEST(SeqDbCorruptionTest, FixtureLoadsClean) {
  CorruptionFixture fix;
  EXPECT_TRUE(fix.TryOpen().ok());
}

TEST(SeqDbCorruptionTest, MissingFilesAreReported) {
  CorruptionFixture fix;
  std::filesystem::remove(fix.index_path);
  Status st = fix.TryOpen();
  EXPECT_FALSE(st.ok());
  std::filesystem::remove(fix.data_path);
  WriteAll(fix.index_path, fix.index_blob);
  st = fix.TryOpen();
  EXPECT_FALSE(st.ok());
}

TEST(SeqDbCorruptionTest, IndexTruncationAtEveryOffsetIsRejected) {
  CorruptionFixture fix;
  for (size_t len = 0; len < fix.index_blob.size(); ++len) {
    WriteAll(fix.index_path, fix.index_blob.substr(0, len));
    Status st = fix.TryOpen();
    EXPECT_TRUE(st.IsCorruption() || st.IsIOError())
        << "index truncated to " << len << ": " << st.ToString();
  }
}

TEST(SeqDbCorruptionTest, DataTruncationAtEveryOffsetIsRejected) {
  CorruptionFixture fix;
  for (size_t len = 0; len < fix.data_blob.size(); ++len) {
    WriteAll(fix.data_path, fix.data_blob.substr(0, len));
    Status st = fix.TryOpen();
    EXPECT_TRUE(st.IsCorruption() || st.IsIOError())
        << "data truncated to " << len << ": " << st.ToString();
  }
}

TEST(SeqDbCorruptionTest, AppendedGarbageIsRejected) {
  CorruptionFixture fix;
  WriteAll(fix.index_path, fix.index_blob + std::string(5, '\0'));
  EXPECT_TRUE(fix.TryOpen().IsCorruption());
  WriteAll(fix.index_path, fix.index_blob);
  WriteAll(fix.data_path, fix.data_blob + std::string(5, '\0'));
  EXPECT_TRUE(fix.TryOpen().IsCorruption());
}

TEST(SeqDbCorruptionTest, EverySingleBitFlipInTheIndexIsRejected) {
  CorruptionFixture fix;
  for (size_t byte = 0; byte < fix.index_blob.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = fix.index_blob;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      WriteAll(fix.index_path, mutated);
      Status st = fix.TryOpen();
      EXPECT_TRUE(st.IsCorruption())
          << "index bit " << bit << " of byte " << byte << " survived: "
          << st.ToString();
    }
  }
}

TEST(SeqDbCorruptionTest, EverySingleBitFlipInTheDataIsRejected) {
  CorruptionFixture fix;
  for (size_t byte = 0; byte < fix.data_blob.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = fix.data_blob;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      WriteAll(fix.data_path, mutated);
      Status st = fix.TryOpen();
      EXPECT_TRUE(st.IsCorruption())
          << "data bit " << bit << " of byte " << byte << " survived: "
          << st.ToString();
    }
  }
}

TEST(SeqDbCorruptionTest, OutOfAlphabetSymbolWithFixedCrcsIsNamed) {
  // With both CRCs recomputed, only the symbol range check stands between
  // a symbol id past the alphabet and the scorer's table lookups. It must
  // name the first offender and its byte offset.
  CorruptionFixture fix;
  const auto poke = [](std::string* blob, size_t at, uint32_t value) {
    std::memcpy(blob->data() + at, &value, sizeof(value));
  };
  // The fixture's alphabet is {a, b, c}; payload symbols start at byte 24.
  std::string data = fix.data_blob;
  poke(&data, 24 + 3 * sizeof(SymbolId), 7);
  poke(&data, 24 + 5 * sizeof(SymbolId), 9);
  std::string index = fix.index_blob;
  poke(&index, 32, Crc32c(data));
  poke(&index, index.size() - sizeof(uint32_t),
       Crc32c(index.data(), index.size() - sizeof(uint32_t)));
  WriteAll(fix.data_path, data);
  WriteAll(fix.index_path, index);
  const Status st = fix.TryOpen();
  ASSERT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find(
                "symbol id 7 at byte 36 outside the alphabet (3 symbols)"),
            std::string::npos)
      << st.message();
}

TEST(SeqDbCorruptionTest, SymbolPastTheFirstVerifyChunkIsNamed) {
  // The open-time verify streams the data file in 1 MiB chunks. A corpus
  // whose data file spans two of them must load clean, and an offender on
  // either side of the boundary must be named at its file byte offset.
  TempDir dir;
  const std::string path = dir.File("two_chunks.sqdb");
  Rng rng(20261020);
  SequenceDatabase db{Alphabet::Synthetic(5)};
  for (size_t r = 0; r < 40; ++r) {
    std::vector<SymbolId> symbols(8000);
    for (auto& s : symbols) s = static_cast<SymbolId>(rng.Uniform(5));
    db.Add(Sequence(std::move(symbols), "r" + std::to_string(r), 0));
  }
  ASSERT_TRUE(WriteSeqDb(db, path).ok());
  const std::string index_path = SeqDbIndexPath(path);
  const std::string data_blob = ReadAll(path);
  const std::string index_blob = ReadAll(index_path);
  constexpr size_t kChunk = size_t{1} << 20;
  ASSERT_GT(data_blob.size(), kChunk + 64);
  {
    SeqDbReader reader;
    ASSERT_TRUE(SeqDbReader::Open(path, &reader).ok());
    ExpectStoresEqual(db, reader);
  }

  for (const size_t at : {kChunk - sizeof(SymbolId), kChunk, kChunk + 40}) {
    std::string data = data_blob;
    const uint32_t bad = 5;
    std::memcpy(data.data() + at, &bad, sizeof(bad));
    std::string index = index_blob;
    const uint32_t data_crc = Crc32c(data);
    std::memcpy(index.data() + 32, &data_crc, sizeof(data_crc));
    const uint32_t index_crc =
        Crc32c(index.data(), index.size() - sizeof(uint32_t));
    std::memcpy(index.data() + index.size() - sizeof(uint32_t), &index_crc,
                sizeof(index_crc));
    WriteAll(path, data);
    WriteAll(index_path, index);
    SeqDbReader reader;
    const Status st = SeqDbReader::Open(path, &reader);
    ASSERT_TRUE(st.IsCorruption()) << at << ": " << st.ToString();
    EXPECT_NE(st.message().find("symbol id 5 at byte " + std::to_string(at) +
                                " outside the alphabet (5 symbols)"),
              std::string::npos)
        << st.message();
  }
}

TEST(SeqDbCorruptionTest, MismatchedDataAndIndexPairIsRejected) {
  // The index carries the data file's CRC, so pairing it with another
  // complete, self-consistent data file (the stale-data crash window, or a
  // copy gone wrong) must be detected.
  CorruptionFixture fix;
  SequenceDatabase other;
  ASSERT_TRUE(other.AddText("ababa", "x", 0).ok());
  ASSERT_TRUE(other.AddText("bab", "y", 1).ok());  // Same shape, new bytes.
  const std::string other_path = fix.File("other.sqdb");
  ASSERT_TRUE(WriteSeqDb(other, other_path).ok());
  std::filesystem::copy_file(
      other_path, fix.data_path,
      std::filesystem::copy_options::overwrite_existing);
  EXPECT_TRUE(fix.TryOpen().IsCorruption());
}

TEST(SeqDbCorruptionTest, SkippingDataVerificationStillChecksTheShape) {
  // verify_data=false skips the streaming CRC pass (the documented opt-out
  // for huge read-mostly corpora) but structural checks on the data header
  // must still hold.
  CorruptionFixture fix;
  SeqDbReaderOptions options;
  options.verify_data = false;
  {
    SeqDbReader reader;
    ASSERT_TRUE(SeqDbReader::Open(fix.data_path, &reader, options).ok());
    EXPECT_EQ(reader.size(), 2u);
  }
  WriteAll(fix.data_path, fix.data_blob.substr(0, fix.data_blob.size() - 2));
  SeqDbReader reader;
  EXPECT_TRUE(
      SeqDbReader::Open(fix.data_path, &reader, options).IsCorruption());
}

}  // namespace
}  // namespace cluseq
