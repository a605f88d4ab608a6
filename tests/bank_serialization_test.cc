// .fbank round-trip property tests: a FrozenBank loaded back from its
// serialized form — via the blob API, a buffered file read, or a zero-copy
// mmap — must score bit-for-bit like the assembled original (ScanAll and
// StepAll), across pruned/merged/sub-alphabet models, smoothing-off -inf
// rows, and banks wider than one cache block (k > 64).

#include "pst/bank_serialization.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <filesystem>

#include "obs/metrics.h"
#include "pst/frozen_bank.h"
#include "pst/frozen_pst.h"
#include "pst/pst.h"
#include "seq/background_model.h"
#include "util/crc32c.h"
#include "util/file_io.h"
#include "util/rng.h"

namespace cluseq {
namespace {

using Symbols = std::vector<SymbolId>;
using ModelPtr = std::shared_ptr<const FrozenPst>;

Symbols RandomText(size_t len, size_t alphabet, Rng* rng) {
  Symbols text(len);
  for (auto& s : text) s = static_cast<SymbolId>(rng->Uniform(alphabet));
  return text;
}

BackgroundModel SkewedBackground(size_t alphabet, Rng* rng) {
  std::vector<uint64_t> counts(alphabet);
  for (auto& c : counts) c = 1 + rng->Uniform(500);
  return BackgroundModel::FromCounts(counts);
}

// Varied significance thresholds, a pruned tree, a merged tree, a
// sub-alphabet tree, and (when `smoothing_off`) zero-probability rows that
// freeze to -inf log-ratios.
std::vector<ModelPtr> DiverseModels(size_t k, size_t alphabet, size_t depth,
                                    const BackgroundModel& background,
                                    Rng* rng, bool smoothing_off = false) {
  std::vector<ModelPtr> models;
  models.reserve(k);
  for (size_t m = 0; m < k; ++m) {
    PstOptions options;
    options.max_depth = depth;
    options.significance_threshold = 1 + rng->Uniform(6);
    options.smoothing_p_min = smoothing_off ? 0.0 : 1e-4;
    Pst pst(alphabet, options);
    switch (m % 3) {
      case 0:
        pst.InsertSequence(RandomText(200 + rng->Uniform(300), alphabet, rng));
        break;
      case 1:
        pst.InsertSequence(RandomText(500, alphabet, rng));
        pst.PruneToBudget(pst.ApproxMemoryBytes() / 3);
        break;
      default:
        pst.InsertSequence(
            RandomText(300, std::max<size_t>(2, alphabet / 2), rng));
        break;
    }
    models.push_back(std::make_shared<const FrozenPst>(pst, background));
  }
  return models;
}

void ExpectSameResults(const FrozenBank& want, const FrozenBank& got,
                       const Symbols& query, const char* what) {
  ASSERT_EQ(want.num_models(), got.num_models()) << what;
  EXPECT_EQ(want.alphabet_size(), got.alphabet_size()) << what;
  std::vector<SimilarityResult> expected = want.ScanAll(query);
  std::vector<SimilarityResult> actual = got.ScanAll(query);
  for (size_t m = 0; m < want.num_models(); ++m) {
    EXPECT_EQ(expected[m].log_sim, actual[m].log_sim) << what << " model " << m;
    EXPECT_EQ(expected[m].best_begin, actual[m].best_begin)
        << what << " model " << m;
    EXPECT_EQ(expected[m].best_end, actual[m].best_end)
        << what << " model " << m;
    EXPECT_EQ(want.model_states(m), got.model_states(m))
        << what << " model " << m;
  }
}

class BankSerializationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl = ::testing::TempDir() + "cluseq_fbank_XXXXXX";
    char* made = ::mkdtemp(tmpl.data());
    ASSERT_NE(made, nullptr);
    dir_ = made;
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(BankSerializationTest, BlobRoundTripMatchesAssembledBank) {
  Rng rng(20260807);
  // 70 > kMaxBlockModels: the loaded bank must reproduce multi-block scans.
  for (size_t k : {size_t{1}, size_t{3}, size_t{70}}) {
    const size_t alphabet = 4 + rng.Uniform(8);
    BackgroundModel background = SkewedBackground(alphabet, &rng);
    FrozenBank bank(DiverseModels(k, alphabet, 4, background, &rng));
    std::string blob;
    ASSERT_TRUE(SaveFrozenBank(bank, &blob).ok());

    FrozenBank loaded;
    ASSERT_TRUE(LoadFrozenBank(blob, &loaded).ok());
    EXPECT_FALSE(loaded.mapped()) << "blob loads copy into an owned arena";
    EXPECT_FALSE(loaded.has_snapshots());
    ExpectSameResults(bank, loaded, RandomText(300, alphabet, &rng), "blob");
  }
}

TEST_F(BankSerializationTest, SmoothingOffNegInfRowsSurvive) {
  Rng rng(7);
  const size_t alphabet = 6;
  BackgroundModel background = SkewedBackground(alphabet, &rng);
  FrozenBank bank(DiverseModels(5, alphabet, 3, background, &rng,
                                /*smoothing_off=*/true));
  std::string blob;
  ASSERT_TRUE(SaveFrozenBank(bank, &blob).ok());
  FrozenBank loaded;
  ASSERT_TRUE(LoadFrozenBank(blob, &loaded).ok())
      << "-inf rows are legal and must load";
  ExpectSameResults(bank, loaded, RandomText(250, alphabet, &rng), "-inf");
}

TEST_F(BankSerializationTest, FileRoundTripMmapAndBuffered) {
  Rng rng(11);
  const size_t alphabet = 8;
  BackgroundModel background = SkewedBackground(alphabet, &rng);
  FrozenBank bank(DiverseModels(9, alphabet, 4, background, &rng));
  const std::string path = dir_ + "/bank.fbank";
  ASSERT_TRUE(SaveFrozenBankToFile(bank, path).ok());
  const Symbols query = RandomText(400, alphabet, &rng);

  FrozenBank via_mmap;
  FbankLoadInfo info;
  ASSERT_TRUE(LoadFrozenBankFromFile(path, &via_mmap, {}, &info).ok());
  EXPECT_TRUE(info.mmap);
  EXPECT_TRUE(via_mmap.mapped());
  EXPECT_EQ(info.num_models, bank.num_models());
  ExpectSameResults(bank, via_mmap, query, "mmap");

  FrozenBank via_read;
  FbankLoadOptions no_mmap;
  no_mmap.prefer_mmap = false;
  ASSERT_TRUE(LoadFrozenBankFromFile(path, &via_read, no_mmap, &info).ok());
  EXPECT_FALSE(info.mmap);
  EXPECT_FALSE(via_read.mapped());
  ExpectSameResults(bank, via_read, query, "buffered");
}

TEST_F(BankSerializationTest, MappedBankStepAllAndReserialize) {
  Rng rng(13);
  const size_t alphabet = 5;
  BackgroundModel background = SkewedBackground(alphabet, &rng);
  FrozenBank bank(DiverseModels(4, alphabet, 4, background, &rng));
  const std::string path = dir_ + "/bank.fbank";
  ASSERT_TRUE(SaveFrozenBankToFile(bank, path).ok());
  FrozenBank mapped;
  ASSERT_TRUE(LoadFrozenBankFromFile(path, &mapped).ok());
  ASSERT_TRUE(mapped.mapped());

  // Streaming over the mapped arena must match the batch scan.
  const size_t k = mapped.num_models();
  const Symbols query = RandomText(200, alphabet, &rng);
  std::vector<uint32_t> rows(k, 0);
  std::vector<double> y(k), z(k, -std::numeric_limits<double>::infinity());
  std::vector<uint8_t> started(k, 0);
  for (SymbolId s : query) {
    mapped.StepAll(s, rows.data(), y.data(), z.data(), started.data());
  }
  std::vector<SimilarityResult> batch = bank.ScanAll(query);
  for (size_t m = 0; m < k; ++m) EXPECT_EQ(z[m], batch[m].log_sim);

  // A mapped bank is a first-class source: re-serializing it yields a
  // file that loads and scores identically again.
  std::string again;
  ASSERT_TRUE(SaveFrozenBank(mapped, &again).ok());
  FrozenBank reloaded;
  ASSERT_TRUE(LoadFrozenBank(again, &reloaded).ok());
  ExpectSameResults(bank, reloaded, query, "reserialized");
}

TEST_F(BankSerializationTest, SavedChecksumsMatchThePortableWalk) {
  // Save derives the file CRC from the entries' CRC by combine; every
  // stored checksum must still equal a plain walk over its range. The
  // entries span several hardware lane blocks.
  Rng rng(17);
  const size_t alphabet = 8;
  BackgroundModel background = SkewedBackground(alphabet, &rng);
  FrozenBank bank(DiverseModels(70, alphabet, 5, background, &rng));
  std::string blob;
  ASSERT_TRUE(SaveFrozenBank(bank, &blob).ok());
  auto u32_at = [&](size_t at) {
    uint32_t v;
    std::memcpy(&v, blob.data() + at, sizeof(v));
    return v;
  };
  auto u64_at = [&](size_t at) {
    uint64_t v;
    std::memcpy(&v, blob.data() + at, sizeof(v));
    return static_cast<size_t>(v);
  };
  auto portable = [&](size_t offset, size_t size) {
    return internal::Crc32cPortable(0, blob.data() + offset, size);
  };
  EXPECT_EQ(u32_at(kFbankHeaderBytes - 4),
            portable(0, kFbankHeaderBytes - 4));
  for (size_t i = 0; i < kFbankSectionCount; ++i) {
    const size_t entry = kFbankHeaderBytes + i * kFbankSectionEntryBytes;
    EXPECT_EQ(u32_at(entry + 24), portable(u64_at(entry + 8),
                                           u64_at(entry + 16)))
        << "section " << i;
  }
  const size_t entries_size =
      u64_at(kFbankHeaderBytes + 2 * kFbankSectionEntryBytes + 16);
  EXPECT_GT(entries_size, 3 * internal::kCrc32cLaneBytes);
  EXPECT_EQ(u32_at(blob.size() - 8),
            portable(0, blob.size() - kFbankFooterBytes));
}

TEST_F(BankSerializationTest, EmptyBankIsRejected) {
  FrozenBank empty;
  std::string blob;
  EXPECT_TRUE(SaveFrozenBank(empty, &blob).IsInvalidArgument());
}

TEST_F(BankSerializationTest, CorruptLoadLeavesBankUntouchedAndCounts) {
  Rng rng(17);
  const size_t alphabet = 4;
  BackgroundModel background = SkewedBackground(alphabet, &rng);
  FrozenBank bank(DiverseModels(2, alphabet, 3, background, &rng));
  std::string blob;
  ASSERT_TRUE(SaveFrozenBank(bank, &blob).ok());

  FrozenBank loaded;
  ASSERT_TRUE(LoadFrozenBank(blob, &loaded).ok());
  const Symbols query = RandomText(120, alphabet, &rng);
  std::vector<SimilarityResult> before = loaded.ScanAll(query);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  const uint64_t detected_before =
      registry.Snapshot().CounterValue("persistence.corruption_detected");
  std::string corrupt = blob;
  corrupt[corrupt.size() / 2] ^= 0x01;
  EXPECT_TRUE(LoadFrozenBank(corrupt, &loaded).IsCorruption());
  EXPECT_GT(registry.Snapshot().CounterValue("persistence.corruption_detected"),
            detected_before);

  // The failed load must not have disturbed the previously loaded bank.
  std::vector<SimilarityResult> after = loaded.ScanAll(query);
  for (size_t m = 0; m < loaded.num_models(); ++m) {
    EXPECT_EQ(before[m].log_sim, after[m].log_sim);
  }
}

TEST_F(BankSerializationTest, PersistenceMetricsRecorded) {
  Rng rng(19);
  const size_t alphabet = 4;
  BackgroundModel background = SkewedBackground(alphabet, &rng);
  FrozenBank bank(DiverseModels(2, alphabet, 3, background, &rng));
  const std::string path = dir_ + "/bank.fbank";

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  obs::MetricsSnapshot before = registry.Snapshot();
  ASSERT_TRUE(SaveFrozenBankToFile(bank, path).ok());
  FrozenBank loaded;
  ASSERT_TRUE(LoadFrozenBankFromFile(path, &loaded).ok());
  obs::MetricsSnapshot mid = registry.Snapshot();
  EXPECT_GT(mid.CounterValue("persistence.bytes_written"),
            before.CounterValue("persistence.bytes_written"));
  EXPECT_GT(mid.CounterValue("persistence.bytes_read"),
            before.CounterValue("persistence.bytes_read"));
  EXPECT_GT(mid.CounterValue("persistence.loads_mmap"),
            before.CounterValue("persistence.loads_mmap"));
  EXPECT_EQ(mid.GaugeValue("persistence.last_load_mmap"), 1.0);

  FbankLoadOptions no_mmap;
  no_mmap.prefer_mmap = false;
  ASSERT_TRUE(LoadFrozenBankFromFile(path, &loaded, no_mmap).ok());
  obs::MetricsSnapshot after = registry.Snapshot();
  EXPECT_GT(after.CounterValue("persistence.loads_buffered"),
            mid.CounterValue("persistence.loads_buffered"));
  EXPECT_EQ(after.GaugeValue("persistence.last_load_mmap"), 0.0);
}

TEST_F(BankSerializationTest, AssembleAfterMappedLoadRebuildsOwnedArena) {
  Rng rng(23);
  const size_t alphabet = 4;
  BackgroundModel background = SkewedBackground(alphabet, &rng);
  std::vector<ModelPtr> models = DiverseModels(3, alphabet, 3, background,
                                               &rng);
  FrozenBank bank(models);
  const std::string path = dir_ + "/bank.fbank";
  ASSERT_TRUE(SaveFrozenBankToFile(bank, path).ok());
  FrozenBank mapped;
  ASSERT_TRUE(LoadFrozenBankFromFile(path, &mapped).ok());
  ASSERT_TRUE(mapped.mapped());

  // Re-targeting a mapped bank at live snapshots must drop the mapping
  // (nothing can be "reused in place" from a read-only file view).
  FrozenBank::AssembleStats stats = mapped.Assemble(models);
  EXPECT_FALSE(mapped.mapped());
  EXPECT_TRUE(mapped.has_snapshots());
  EXPECT_EQ(stats.models_reused, 0u);
  ExpectSameResults(bank, mapped, RandomText(150, alphabet, &rng),
                    "reassembled");
}

}  // namespace
}  // namespace cluseq
