// Property tests: FrozenBank::ScanAll must match per-cluster FrozenPst
// scoring bit-for-bit — identical log SIM doubles and identical maximizing
// segments for every model — across randomized alphabets, depths, model
// counts (including > kMaxBlockModels so multiple blocks and the SIMD
// remainder loop run), pruned and merged trees, and smoothing-off -inf
// rows; with both the scalar and (when available) AVX2 kernels. Plus the
// incremental-Assemble contract: untouched models' arena rows are reused
// byte-identical, and streaming StepAll state survives reassembly.

#include "pst/frozen_bank.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/similarity.h"
#include "seq/background_model.h"
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

ModelPtr TrainModel(size_t alphabet, const PstOptions& options,
                    const BackgroundModel& background, size_t train_len,
                    Rng* rng, bool prune = false) {
  Pst pst(alphabet, options);
  pst.InsertSequence(RandomText(train_len, alphabet, rng));
  if (prune) pst.PruneToBudget(pst.ApproxMemoryBytes() / 3);
  return std::make_shared<const FrozenPst>(pst, background);
}

// A diverse bank: varied significance thresholds, a pruned tree (closure
// states), a merged tree, and one trained on a sub-alphabet.
std::vector<ModelPtr> DiverseModels(size_t k, size_t alphabet, size_t depth,
                                    const BackgroundModel& background,
                                    Rng* rng) {
  std::vector<ModelPtr> models;
  models.reserve(k);
  for (size_t m = 0; m < k; ++m) {
    PstOptions options;
    options.max_depth = depth;
    options.significance_threshold = 1 + rng->Uniform(6);
    options.smoothing_p_min = 1e-4;
    switch (m % 4) {
      case 0:
        models.push_back(TrainModel(alphabet, options, background,
                                    200 + rng->Uniform(300), rng));
        break;
      case 1:  // Pruned: closure states in the automaton.
        models.push_back(TrainModel(alphabet, options, background, 500, rng,
                                    /*prune=*/true));
        break;
      case 2: {  // Merged counts from two trees.
        Pst a(alphabet, options), b(alphabet, options);
        a.InsertSequence(RandomText(250, alphabet, rng));
        b.InsertSequence(RandomText(250, alphabet, rng));
        EXPECT_TRUE(a.MergeFrom(b).ok());
        models.push_back(std::make_shared<const FrozenPst>(a, background));
        break;
      }
      default: {  // Sub-alphabet training: unseen symbols at query time.
        Pst pst(alphabet, options);
        pst.InsertSequence(
            RandomText(300, std::max<size_t>(2, alphabet / 2), rng));
        models.push_back(std::make_shared<const FrozenPst>(pst, background));
        break;
      }
    }
  }
  return models;
}

void ExpectScanMatchesSerial(const std::vector<ModelPtr>& models,
                             const Symbols& query) {
  FrozenBank bank(models);
  ASSERT_EQ(bank.num_models(), models.size());
  std::span<const SymbolId> span(query);

  bank.set_force_scalar(true);
  std::vector<SimilarityResult> scalar = bank.ScanAll(span);
  bank.set_force_scalar(false);
  std::vector<SimilarityResult> dispatched = bank.ScanAll(span);

  for (size_t m = 0; m < models.size(); ++m) {
    const SimilarityResult serial = ComputeSimilarity(*models[m], span);
    // Bit-for-bit: same double ops in the same order (== handles -inf).
    EXPECT_EQ(serial.log_sim, scalar[m].log_sim) << "model " << m;
    EXPECT_EQ(serial.best_begin, scalar[m].best_begin) << "model " << m;
    EXPECT_EQ(serial.best_end, scalar[m].best_end) << "model " << m;
    EXPECT_EQ(serial.log_sim, dispatched[m].log_sim) << "model " << m;
    EXPECT_EQ(serial.best_begin, dispatched[m].best_begin) << "model " << m;
    EXPECT_EQ(serial.best_end, dispatched[m].best_end) << "model " << m;
  }
}

TEST(FrozenBankEquivalenceTest, RandomizedModelsMatchSerialScoring) {
  Rng rng(20240807);
  const size_t alphabets[] = {4, 8, 20};
  const size_t depths[] = {3, 6};
  // 70 > kMaxBlockModels exercises multiple cache blocks; 70 % 4 != 0
  // exercises the AVX2 remainder loop.
  const size_t ks[] = {1, 3, 17, 70};
  for (size_t alphabet : alphabets) {
    for (size_t depth : depths) {
      BackgroundModel background = SkewedBackground(alphabet, &rng);
      for (size_t k : ks) {
        if (k > 17 && alphabet > 8) continue;  // Keep the suite quick.
        std::vector<ModelPtr> models =
            DiverseModels(k, alphabet, depth, background, &rng);
        ExpectScanMatchesSerial(models,
                                RandomText(150 + rng.Uniform(200),
                                           alphabet, &rng));
      }
    }
  }
}

TEST(FrozenBankEquivalenceTest, SmoothingOffNegInfRows) {
  Rng rng(77);
  const size_t alphabet = 6;
  BackgroundModel background = SkewedBackground(alphabet, &rng);
  std::vector<ModelPtr> models;
  for (size_t m = 0; m < 7; ++m) {
    PstOptions options;
    options.max_depth = 4;
    options.significance_threshold = 2;
    options.smoothing_p_min = 0.0;  // Unseen symbols have probability zero.
    Pst pst(alphabet, options);
    // Restricted sub-alphabet so queries hit genuinely unseen symbols and
    // the -inf arena entries flow through ScanAll end to end.
    pst.InsertSequence(RandomText(300, 2 + m % 3, &rng));
    models.push_back(std::make_shared<const FrozenPst>(pst, background));
  }
  ExpectScanMatchesSerial(models, RandomText(120, alphabet, &rng));
}

TEST(FrozenBankEquivalenceTest, EmptyQueryYieldsNegInfForEveryModel) {
  Rng rng(3);
  BackgroundModel background = SkewedBackground(5, &rng);
  PstOptions options;
  options.max_depth = 3;
  std::vector<ModelPtr> models = {
      TrainModel(5, options, background, 100, &rng),
      TrainModel(5, options, background, 100, &rng)};
  FrozenBank bank(models);
  std::vector<SimilarityResult> results = bank.ScanAll({});
  ASSERT_EQ(results.size(), 2u);
  for (const SimilarityResult& r : results) {
    EXPECT_EQ(r.log_sim, -std::numeric_limits<double>::infinity());
    EXPECT_EQ(r.best_begin, 0u);
    EXPECT_EQ(r.best_end, 0u);
  }
}

TEST(FrozenBankEquivalenceTest, IncrementalAssembleReusesUntouchedRows) {
  Rng rng(41);
  const size_t alphabet = 8;
  BackgroundModel background = SkewedBackground(alphabet, &rng);
  PstOptions options;
  options.max_depth = 4;
  std::vector<ModelPtr> models;
  for (size_t m = 0; m < 5; ++m) {
    models.push_back(TrainModel(alphabet, options, background, 200, &rng));
  }
  FrozenBank bank(models);

  // Snapshot model 1's packed rows, then swap only the *last* model: every
  // earlier slot keeps its base offset, so the bank must reuse them all.
  std::vector<FrozenBank::Entry> rows_before(bank.Rows(1).begin(),
                                             bank.Rows(1).end());
  models.back() = TrainModel(alphabet, options, background, 333, &rng);
  FrozenBank::AssembleStats stats = bank.Assemble(models);
  EXPECT_EQ(stats.models_written, 1u);
  EXPECT_EQ(stats.models_reused, 4u);
  ASSERT_EQ(bank.Rows(1).size(), rows_before.size());
  EXPECT_EQ(std::memcmp(bank.Rows(1).data(), rows_before.data(),
                        rows_before.size() * sizeof(FrozenBank::Entry)),
            0);

  // Appending a model also leaves every existing slot in place.
  models.push_back(TrainModel(alphabet, options, background, 150, &rng));
  stats = bank.Assemble(models);
  EXPECT_EQ(stats.models_written, 1u);
  EXPECT_EQ(stats.models_reused, 5u);

  // Replacing the *first* model with a differently-sized one shifts every
  // later base offset: nothing stays in place. Only the new model is
  // packed; the others' rows move as they are.
  PstOptions shallow = options;
  shallow.max_depth = 1;
  models.front() = TrainModel(alphabet, shallow, background, 450, &rng);
  ASSERT_NE(models.front()->num_states(), bank.model(0).num_states());
  stats = bank.Assemble(models);
  EXPECT_EQ(stats.models_written, models.size());
  EXPECT_EQ(stats.models_moved, models.size() - 1);
  EXPECT_EQ(stats.models_reused, 0u);
  // Regardless of offsets, the scan must still match serial scoring.
  ExpectScanMatchesSerial(models, RandomText(100, alphabet, &rng));
}

TEST(FrozenBankEquivalenceTest, StepAllMatchesScanAllAtEveryPrefix) {
  Rng rng(11);
  const size_t alphabet = 6;
  BackgroundModel background = SkewedBackground(alphabet, &rng);
  PstOptions options;
  options.max_depth = 5;
  std::vector<ModelPtr> models;
  for (size_t m = 0; m < 6; ++m) {
    models.push_back(TrainModel(alphabet, options, background, 250, &rng));
  }
  FrozenBank bank(models);
  const Symbols stream = RandomText(140, alphabet, &rng);

  std::vector<uint32_t> rows(models.size(), 0);
  std::vector<double> y(models.size(), 0.0);
  std::vector<double> z(models.size(),
                        -std::numeric_limits<double>::infinity());
  std::vector<uint8_t> started(models.size(), 0);
  for (size_t i = 0; i < stream.size(); ++i) {
    bank.StepAll(stream[i], rows.data(), y.data(), z.data(), started.data());
    std::vector<SimilarityResult> batch = bank.ScanAll(
        std::span<const SymbolId>(stream).subspan(0, i + 1));
    for (size_t m = 0; m < models.size(); ++m) {
      ASSERT_EQ(z[m], batch[m].log_sim) << "prefix " << i << " model " << m;
    }
    if (i == stream.size() / 2) {
      // Mid-stream reassembly with an appended model: the live rows are
      // model-local, so the original models' streaming state survives.
      models.push_back(
          TrainModel(alphabet, options, background, 200, &rng));
      FrozenBank::AssembleStats stats = bank.Assemble(models);
      EXPECT_EQ(stats.models_written, 1u);
      rows.push_back(0);
      y.push_back(0.0);
      z.push_back(-std::numeric_limits<double>::infinity());
      started.push_back(0);
      // The appended model has missed the first half of the stream, so its
      // lane is only compared from here on against a fresh serial DP.
      FrozenPst::State st = FrozenPst::kRootState;
      double my = 0.0, mz = -std::numeric_limits<double>::infinity();
      bool mstarted = false;
      for (size_t j = i + 1; j < stream.size(); ++j) {
        const double x = models.back()->LogRatio(st, stream[j]);
        st = models.back()->Step(st, stream[j]);
        if (!mstarted || my + x < x) {
          my = x;
        } else {
          my += x;
        }
        mstarted = true;
        mz = std::max(mz, my);
      }
      // Checked after the loop below has pushed the rest of the stream.
      const size_t lane = models.size() - 1;
      for (size_t j = i + 1; j < stream.size(); ++j) {
        bank.StepAll(stream[j], rows.data(), y.data(), z.data(),
                     started.data());
      }
      EXPECT_EQ(z[lane], mz);
      // And the original lanes agree with a full-stream banked scan.
      std::vector<SimilarityResult> full =
          bank.ScanAll(std::span<const SymbolId>(stream));
      for (size_t m = 0; m < lane; ++m) {
        EXPECT_EQ(z[m], full[m].log_sim) << "model " << m;
      }
      return;
    }
  }
}

TEST(FrozenBankEquivalenceDeathTest, MixedAlphabetsAreFatal) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Rng rng(13);
  BackgroundModel bg4 = SkewedBackground(4, &rng);
  BackgroundModel bg6 = SkewedBackground(6, &rng);
  PstOptions options;
  options.max_depth = 3;
  std::vector<ModelPtr> models = {TrainModel(4, options, bg4, 80, &rng),
                                  TrainModel(6, options, bg6, 80, &rng)};
  EXPECT_DEATH(FrozenBank bank(models), "share one alphabet_size");
}

TEST(FrozenBankEquivalenceTest, ApproxMemoryBytesCoversArenas) {
  Rng rng(29);
  BackgroundModel background = SkewedBackground(8, &rng);
  PstOptions options;
  options.max_depth = 4;
  std::vector<ModelPtr> models = {
      TrainModel(8, options, background, 300, &rng),
      TrainModel(8, options, background, 300, &rng)};
  FrozenBank bank(models);
  size_t entries = 0;
  for (const ModelPtr& m : models) {
    entries += m->num_states() * m->alphabet_size();
  }
  EXPECT_GE(bank.ApproxMemoryBytes(),
            entries * (sizeof(double) + sizeof(uint32_t)));
}

}  // namespace
}  // namespace cluseq
