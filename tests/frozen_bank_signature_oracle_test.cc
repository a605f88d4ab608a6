// Signature oracle: the bank's context caps (FrozenBank::signature_cap_q)
// must equal a direct image walk over the packed rows at every tier. The
// reference below is the straightforward construction — collect the
// one-step image of each symbol (and the two-step image of each symbol
// pair) with epoch stamps, then fold the quantized rows of that image — so
// it shares nothing with the bank's ownership-bucketed build except the
// packed rows it reads. Assembled banks, .fbank-loaded banks and banks
// re-assembled with moved slots are all checked, over pruned, merged and
// smoothing-off models and a bank wider than one 64-model kernel block.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pst/bank_serialization.h"
#include "pst/frozen_bank.h"
#include "pst/frozen_pst.h"
#include "pst/pst.h"
#include "seq/background_model.h"
#include "util/rng.h"

namespace cluseq {
namespace {

using Symbols = std::vector<SymbolId>;
using ModelPtr = std::shared_ptr<const FrozenPst>;
using Tier = FrozenBank::SignatureTier;

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

// Cycles through a plain tree, a tree pruned to a third of its size (which
// adds closure states), a merged tree and a sub-alphabet tree.
std::vector<ModelPtr> Models(size_t k, size_t alphabet, size_t depth,
                             size_t text, const BackgroundModel& background,
                             Rng* rng, bool smoothing_off = false) {
  std::vector<ModelPtr> models;
  for (size_t m = 0; m < k; ++m) {
    PstOptions options;
    options.max_depth = depth;
    options.significance_threshold = 1 + rng->Uniform(5);
    options.smoothing_p_min = smoothing_off ? 0.0 : 1e-4;
    Pst pst(alphabet, options);
    pst.InsertSequence(RandomText(text + rng->Uniform(text), alphabet, rng));
    switch (m % 4) {
      case 1:
        pst.PruneToBudget(pst.ApproxMemoryBytes() / 3);
        break;
      case 2: {
        Pst other(alphabet, options);
        other.InsertSequence(RandomText(text, alphabet, rng));
        EXPECT_TRUE(pst.MergeFrom(other).ok());
        break;
      }
      case 3:
        pst.InsertSequence(
            RandomText(text, std::max<size_t>(2, alphabet / 3), rng));
        break;
      default:
        break;
    }
    models.push_back(std::make_shared<const FrozenPst>(pst, background));
  }
  return models;
}

int16_t ReferenceQuantize(double v) {
  constexpr int16_t kMin = std::numeric_limits<int16_t>::min();
  if (std::isnan(v)) return kMin;
  const double q = std::ceil(v * 256.0);
  if (q <= -32768.0) return kMin;
  if (q >= 32767.0) return std::numeric_limits<int16_t>::max();
  int32_t qi = static_cast<int32_t>(q);
  if (static_cast<double>(qi) * FrozenBank::kSignatureQuantStep < v) ++qi;
  return static_cast<int16_t>(qi);
}

// The reference caps of one model at `order`, from its packed rows.
std::vector<int16_t> ReferenceCaps(std::span<const FrozenBank::Entry> rows,
                                   size_t a, size_t order) {
  const size_t ns = rows.size() / a;
  const auto fold = [&](uint32_t v, int16_t* caps) {
    for (size_t s = 0; s < a; ++s) {
      caps[s] = std::max(caps[s], ReferenceQuantize(rows[v * a + s].ratio));
    }
  };
  const auto step = [&](uint32_t u, size_t s) {
    return static_cast<uint32_t>(rows[u * a + s].next / a);
  };
  std::vector<int16_t> caps;
  if (order == 1) {
    caps.assign(a, std::numeric_limits<int16_t>::min());
    for (uint32_t u = 0; u < ns; ++u) fold(u, caps.data());
    return caps;
  }
  // image[c] = {Step(u, c) : every state u}, deduplicated.
  std::vector<std::vector<uint32_t>> image(a);
  std::vector<uint32_t> stamp(ns, 0);
  for (size_t c = 0; c < a; ++c) {
    for (uint32_t u = 0; u < ns; ++u) {
      const uint32_t v = step(u, c);
      if (stamp[v] == c + 1) continue;
      stamp[v] = static_cast<uint32_t>(c + 1);
      image[c].push_back(v);
    }
  }
  if (order == 2) {
    caps.assign(a * a, std::numeric_limits<int16_t>::min());
    for (size_t b = 0; b < a; ++b) {
      for (uint32_t v : image[b]) fold(v, caps.data() + b * a);
    }
    return caps;
  }
  caps.assign(a * a * a, std::numeric_limits<int16_t>::min());
  std::vector<uint32_t> stamp2(ns, 0);
  for (size_t c = 0; c < a; ++c) {
    for (size_t b = 0; b < a; ++b) {
      const uint32_t epoch = static_cast<uint32_t>(c * a + b + 1);
      for (uint32_t v : image[c]) {
        const uint32_t w = step(v, b);
        if (stamp2[w] == epoch) continue;
        stamp2[w] = epoch;
        fold(w, caps.data() + (c * a + b) * a);
      }
    }
  }
  return caps;
}

void ExpectMatchesOracle(const FrozenBank& bank, const std::string& what) {
  const size_t a = bank.alphabet_size();
  for (size_t m = 0; m < bank.num_models(); ++m) {
    const std::span<const FrozenBank::Entry> rows = bank.Rows(m);
    const std::vector<int16_t> want =
        ReferenceCaps(rows, a, bank.signature_order());
    const std::span<const int16_t> got = bank.signature_cap_q(m);
    ASSERT_EQ(got.size(), want.size()) << what << " model " << m;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << what << " model " << m << " code " << i;
    }
    // Per-symbol maxima, bit for bit (the -inf of smoothing-off included).
    std::vector<double> maxsym(a, -std::numeric_limits<double>::infinity());
    for (size_t e = 0; e < rows.size(); ++e) {
      maxsym[e % a] = std::max(maxsym[e % a], rows[e].ratio);
    }
    const std::span<const double> got_max = bank.signature_max_symbol(m);
    for (size_t s = 0; s < a; ++s) {
      ASSERT_EQ(got_max[s], maxsym[s]) << what << " model " << m;
    }
  }
}

size_t BudgetFor(size_t k, size_t alphabet, Tier tier) {
  return static_cast<size_t>(FrozenBank::SignatureTierCostBytes(
      k, alphabet, static_cast<size_t>(tier)));
}

// Every tier on the assembled bank, then the default tier after a .fbank
// round trip, at one and several threads.
void CheckAllTiers(const std::vector<ModelPtr>& models, const char* what) {
  const size_t k = models.size();
  const size_t a = models.front()->alphabet_size();
  for (Tier tier : {Tier::kTrigram, Tier::kBigram, Tier::kUnigram}) {
    for (size_t threads : {1u, 4u}) {
      FrozenBank bank;
      bank.set_signature_budget_bytes(BudgetFor(k, a, tier));
      bank.Assemble(models, threads);
      ASSERT_EQ(bank.signature_tier(), tier);
      ExpectMatchesOracle(bank, std::string(what) + " assembled " +
                                    bank.signature_tier_name());
    }
  }
  FrozenBank bank(models);
  std::string blob;
  ASSERT_TRUE(SaveFrozenBank(bank, &blob).ok());
  for (size_t threads : {1u, 3u}) {
    FrozenBank loaded;
    ASSERT_TRUE(LoadFrozenBank(blob, &loaded, threads).ok());
    EXPECT_EQ(loaded.signature_tier(), bank.signature_tier());
    ExpectMatchesOracle(loaded, std::string(what) + " loaded " +
                                    loaded.signature_tier_name());
  }
}

TEST(FrozenBankSignatureOracleTest, SmallBankEveryTier) {
  Rng rng(606);
  const BackgroundModel background = SkewedBackground(6, &rng);
  CheckAllTiers(Models(9, 6, 4, 250, background, &rng), "small");
}

TEST(FrozenBankSignatureOracleTest, SmoothingOffEveryTier) {
  Rng rng(707);
  const BackgroundModel background = SkewedBackground(5, &rng);
  CheckAllTiers(Models(8, 5, 5, 200, background, &rng,
                       /*smoothing_off=*/true),
                "smoothing off");
}

TEST(FrozenBankSignatureOracleTest, WiderThanOneKernelBlock) {
  Rng rng(808);
  const BackgroundModel background = SkewedBackground(8, &rng);
  CheckAllTiers(Models(70, 8, 5, 150, background, &rng), "k=70");
}

TEST(FrozenBankSignatureOracleTest, LoadedBankAtShallowerTiers) {
  // The loader signs at the default budget, which only wide alphabets push
  // below the trigram tier.
  Rng rng(909);
  {
    const BackgroundModel background = SkewedBackground(56, &rng);
    FrozenBank bank(Models(70, 56, 2, 60, background, &rng));
    ASSERT_EQ(bank.signature_tier(), Tier::kBigram);
    std::string blob;
    ASSERT_TRUE(SaveFrozenBank(bank, &blob).ok());
    FrozenBank loaded;
    ASSERT_TRUE(LoadFrozenBank(blob, &loaded, 2).ok());
    ASSERT_EQ(loaded.signature_tier(), Tier::kBigram);
    ExpectMatchesOracle(loaded, "loaded bigram");
  }
  {
    const BackgroundModel background = SkewedBackground(1024, &rng);
    FrozenBank bank(Models(12, 1024, 1, 40, background, &rng));
    ASSERT_EQ(bank.signature_tier(), Tier::kUnigram);
    std::string blob;
    ASSERT_TRUE(SaveFrozenBank(bank, &blob).ok());
    FrozenBank loaded;
    ASSERT_TRUE(LoadFrozenBank(blob, &loaded, 2).ok());
    ASSERT_EQ(loaded.signature_tier(), Tier::kUnigram);
    ExpectMatchesOracle(loaded, "loaded unigram");
  }
}

TEST(FrozenBankSignatureOracleTest, MovedSlotsKeepTheirSignatures) {
  // Dropping a slot and resizing another moves every later model to a new
  // base and slot index; the moved rows and signatures must still be the
  // ones the oracle derives.
  Rng rng(1010);
  const BackgroundModel background = SkewedBackground(6, &rng);
  std::vector<ModelPtr> models = Models(12, 6, 4, 200, background, &rng);
  for (size_t threads : {1u, 4u}) {
    FrozenBank bank(models, threads);
    std::vector<ModelPtr> next = models;
    next.erase(next.begin() + 2);
    next[5] = Models(1, 6, 6, 400, background, &rng).front();
    next.push_back(Models(1, 6, 3, 100, background, &rng).front());
    const FrozenBank::AssembleStats stats = bank.Assemble(next, threads);
    EXPECT_EQ(stats.models_written, next.size() - 2);
    EXPECT_EQ(stats.models_moved, next.size() - 4);
    EXPECT_EQ(stats.models_reused, 2u);
    ExpectMatchesOracle(bank, "moved");
    // The moved bank is byte-identical to one assembled from scratch.
    const FrozenBank fresh(next, threads);
    for (size_t m = 0; m < next.size(); ++m) {
      ASSERT_EQ(std::memcmp(bank.Rows(m).data(), fresh.Rows(m).data(),
                            fresh.Rows(m).size_bytes()),
                0)
          << "model " << m;
    }
  }
}

}  // namespace
}  // namespace cluseq
