// Thread-count invariance of every FrozenBank build: Assemble (fresh,
// append-one, swap-one-slot, tier change), the .fbank load's validation
// and signature rebuild, and seeding through a caller-supplied bank. Bank
// builds run per model on the global pool, each slot writing only its own
// arena range and signature slices, so the result must be byte-identical
// at any width. Run under TSan, these are also the race checks for those
// parallel writes.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/seeding.h"
#include "pst/bank_serialization.h"
#include "pst/frozen_bank.h"
#include "pst/frozen_pst.h"
#include "pst/pst.h"
#include "seq/background_model.h"
#include "synth/dataset.h"
#include "util/rng.h"

namespace cluseq {
namespace {

using ModelPtr = std::shared_ptr<const FrozenPst>;

constexpr size_t kThreadCounts[] = {1, 2, 7};

ModelPtr RandomModel(size_t alphabet, size_t len, const BackgroundModel& bg,
                     Rng* rng) {
  PstOptions options;
  options.max_depth = 5;
  options.significance_threshold = 1 + rng->Uniform(4);
  options.smoothing_p_min = 1e-4;
  std::vector<SymbolId> text(len);
  for (auto& s : text) s = static_cast<SymbolId>(rng->Uniform(alphabet));
  Pst pst(alphabet, options);
  pst.InsertSequence(text);
  return std::make_shared<const FrozenPst>(pst, bg);
}

struct Corpus {
  // A 20-letter alphabet at k = 70 keeps the trigram tier and makes the
  // code-major transpose large enough to split across several pool tasks.
  static constexpr size_t kAlphabet = 20;
  Corpus() : rng(20261017) {
    std::vector<uint64_t> counts(kAlphabet);
    for (auto& c : counts) c = 1 + rng.Uniform(300);
    background = BackgroundModel::FromCounts(counts);
    for (size_t m = 0; m < 70; ++m) {
      models.push_back(
          RandomModel(kAlphabet, 100 + rng.Uniform(400), background, &rng));
    }
  }
  ModelPtr Another() {
    return RandomModel(kAlphabet, 100 + rng.Uniform(400), background, &rng);
  }
  Rng rng;
  BackgroundModel background;
  std::vector<ModelPtr> models;
};

// Byte-level equality of everything a bank build produces: packed rows,
// tier, per-model signatures and the shared transposed tables.
void ExpectBanksIdentical(const FrozenBank& want, const FrozenBank& got,
                          const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(want.num_models(), got.num_models());
  ASSERT_EQ(want.alphabet_size(), got.alphabet_size());
  ASSERT_EQ(want.signature_tier(), got.signature_tier());
  EXPECT_EQ(want.signature_quant_scale(), got.signature_quant_scale());
  for (size_t m = 0; m < want.num_models(); ++m) {
    const auto a = want.Rows(m);
    const auto b = got.Rows(m);
    ASSERT_EQ(a.size(), b.size()) << "model " << m;
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size_bytes()))
        << "rows of model " << m;
    EXPECT_EQ(want.signature_max(m), got.signature_max(m)) << "model " << m;
    const auto qa = want.signature_cap_q(m);
    const auto qb = got.signature_cap_q(m);
    EXPECT_TRUE(std::equal(qa.begin(), qa.end(), qb.begin(), qb.end()))
        << "caps of model " << m;
    const auto sa = want.signature_max_symbol(m);
    const auto sb = got.signature_max_symbol(m);
    EXPECT_EQ(0, std::memcmp(sa.data(), sb.data(), sa.size_bytes()))
        << "per-symbol maxima of model " << m;
  }
  for (size_t a = 0; a < want.alphabet_size(); ++a) {
    const auto ta = want.signature_pos_max_symbol_q(a);
    const auto tb = got.signature_pos_max_symbol_q(a);
    EXPECT_TRUE(std::equal(ta.begin(), ta.end(), tb.begin(), tb.end()))
        << "transposed maxima of symbol " << a;
  }
  for (size_t code = 0; code < want.signature_code_space(); ++code) {
    const auto ta = want.signature_pos_cap_q(code);
    const auto tb = got.signature_pos_cap_q(code);
    ASSERT_TRUE(std::equal(ta.begin(), ta.end(), tb.begin(), tb.end()))
        << "transposed caps of code " << code;
  }
}

// Runs `steps` (successive Assemble calls on one bank) at every thread
// count; each step's bank and stats must match the 1-thread run's.
void ExpectAssembleSequenceInvariant(
    const std::vector<std::vector<ModelPtr>>& steps,
    const std::vector<size_t>& budgets, const std::string& what) {
  ASSERT_EQ(steps.size(), budgets.size());
  std::vector<FrozenBank> reference;
  std::vector<FrozenBank::AssembleStats> reference_stats;
  FrozenBank bank;
  for (size_t i = 0; i < steps.size(); ++i) {
    bank.set_signature_budget_bytes(budgets[i]);
    reference_stats.push_back(bank.Assemble(steps[i], /*num_threads=*/1));
    reference.push_back(bank);
  }
  for (size_t threads : kThreadCounts) {
    FrozenBank parallel;
    for (size_t i = 0; i < steps.size(); ++i) {
      parallel.set_signature_budget_bytes(budgets[i]);
      const FrozenBank::AssembleStats stats =
          parallel.Assemble(steps[i], threads);
      const std::string label = what + " step " + std::to_string(i) +
                                " at " + std::to_string(threads) + " threads";
      EXPECT_EQ(stats.models_written, reference_stats[i].models_written)
          << label;
      EXPECT_EQ(stats.models_reused, reference_stats[i].models_reused)
          << label;
      ExpectBanksIdentical(reference[i], parallel, label);
    }
  }
}

TEST(FrozenBankThreadInvarianceTest, FreshAssemble) {
  Corpus corpus;
  ExpectAssembleSequenceInvariant(
      {corpus.models}, {FrozenBank::kDefaultSignatureBudgetBytes}, "fresh");
  FrozenBank bank(corpus.models, 7);
  EXPECT_EQ(bank.signature_tier(), FrozenBank::SignatureTier::kTrigram);
}

TEST(FrozenBankThreadInvarianceTest, AppendOneReusesEarlierSlots) {
  Corpus corpus;
  std::vector<ModelPtr> appended = corpus.models;
  appended.push_back(corpus.Another());
  ExpectAssembleSequenceInvariant(
      {corpus.models, appended},
      {FrozenBank::kDefaultSignatureBudgetBytes,
       FrozenBank::kDefaultSignatureBudgetBytes},
      "append one");
  FrozenBank bank(corpus.models, 7);
  const FrozenBank::AssembleStats stats = bank.Assemble(appended, 7);
  EXPECT_EQ(stats.models_written, 1u);
  EXPECT_EQ(stats.models_reused, corpus.models.size());
}

TEST(FrozenBankThreadInvarianceTest, SwapOneSlot) {
  Corpus corpus;
  std::vector<ModelPtr> swapped_middle = corpus.models;
  swapped_middle[31] = corpus.Another();  // Shifts every later slot.
  std::vector<ModelPtr> swapped_last = swapped_middle;
  swapped_last.back() = corpus.Another();
  const size_t budget = FrozenBank::kDefaultSignatureBudgetBytes;
  ExpectAssembleSequenceInvariant(
      {corpus.models, swapped_middle, swapped_last}, {budget, budget, budget},
      "swap one slot");
}

TEST(FrozenBankThreadInvarianceTest, TierChangeRebuildsReusedSlots) {
  Corpus corpus;
  const size_t k = corpus.models.size();
  const size_t bigram_budget = static_cast<size_t>(
      FrozenBank::SignatureTierCostBytes(k, Corpus::kAlphabet, 2));
  // Trigram → bigram → unigram → trigram on unchanged models: every row is
  // reused in place while every signature is rebuilt.
  ExpectAssembleSequenceInvariant(
      {corpus.models, corpus.models, corpus.models, corpus.models},
      {FrozenBank::kDefaultSignatureBudgetBytes, bigram_budget, 0,
       FrozenBank::kDefaultSignatureBudgetBytes},
      "tier change");
  FrozenBank bank(corpus.models, 7);
  bank.set_signature_budget_bytes(bigram_budget);
  const FrozenBank::AssembleStats stats = bank.Assemble(corpus.models, 7);
  EXPECT_EQ(bank.signature_tier(), FrozenBank::SignatureTier::kBigram);
  EXPECT_EQ(stats.models_reused, k);
}

TEST(FrozenBankThreadInvarianceTest, FbankLoadMatchesAssembledBank) {
  Corpus corpus;
  const FrozenBank assembled(corpus.models, 1);
  std::string blob;
  ASSERT_TRUE(SaveFrozenBank(assembled, &blob).ok());
  for (size_t threads : {size_t{1}, size_t{7}}) {
    FrozenBank loaded;
    ASSERT_TRUE(LoadFrozenBank(blob, &loaded, threads).ok());
    ExpectBanksIdentical(assembled, loaded,
                         "load at " + std::to_string(threads) + " threads");
  }
}

TEST(FrozenBankThreadInvarianceTest, SelectSeedsThroughClustererBank) {
  SyntheticDatasetOptions opts;
  opts.num_clusters = 4;
  opts.sequences_per_cluster = 12;
  opts.alphabet_size = 8;
  opts.avg_length = 80;
  opts.outlier_fraction = 0.05;
  opts.seed = 5;
  const SequenceDatabase db = MakeSyntheticDataset(opts);
  const BackgroundModel bg = BackgroundModel::FromDatabase(db);
  PstOptions pst_options;
  pst_options.max_depth = 5;
  pst_options.significance_threshold = 3;
  pst_options.smoothing_p_min = 1e-4;

  // Existing clusters: one model per source over its first few members;
  // the rest of the corpus is the unclustered pool.
  std::vector<ModelPtr> existing;
  std::vector<size_t> unclustered;
  for (size_t c = 0; c < 3; ++c) {
    Pst pst(db.alphabet().size(), pst_options);
    for (size_t i = 0; i < 4; ++i) {
      pst.InsertSequence(db.Symbols(c * opts.sequences_per_cluster + i));
    }
    existing.push_back(std::make_shared<const FrozenPst>(pst, bg));
  }
  for (size_t i = 0; i < db.size(); ++i) {
    if (i % opts.sequences_per_cluster >= 4 ||
        i >= 3 * opts.sequences_per_cluster) {
      unclustered.push_back(i);
    }
  }

  const auto select = [&](bool prefilter, size_t threads,
                          const FrozenBank* bank) {
    Rng rng(77);
    return SelectSeeds(db, unclustered, 5, 15, existing, bg, pst_options,
                       threads, &rng, prefilter, bank);
  };
  // The exhaustive oracle over a locally packed bank is the reference.
  const std::vector<size_t> want = select(false, 1, nullptr);
  ASSERT_EQ(want.size(), 5u);
  // A clusterer's bank may sit at any signature tier (its options budget);
  // BestModel's maximum is exact at every tier.
  for (size_t budget : {FrozenBank::kDefaultSignatureBudgetBytes, size_t{0}}) {
    FrozenBank bank;
    bank.set_signature_budget_bytes(budget);
    bank.Assemble(existing, 2);
    for (bool prefilter : {true, false}) {
      for (size_t threads : kThreadCounts) {
        const std::string label = "budget " + std::to_string(budget) +
                                  " prefilter " +
                                  std::to_string(prefilter) + " at " +
                                  std::to_string(threads) + " threads";
        EXPECT_EQ(select(prefilter, threads, &bank), want) << label;
        EXPECT_EQ(select(prefilter, threads, nullptr), want) << label;
      }
    }
  }
}

}  // namespace
}  // namespace cluseq
