// The prefilter's level-1 Kadane kernels, tested directly: the AVX2 kernel
// behind FrozenBank::SignatureKadaneDense must equal
// internal::KadaneColumnsScalar for every model, on random offset-u8
// columns with long runs of 0 (the floor), 64 (the zero point) and 255
// (the ceiling), at model counts on both sides of the kernel's 8-, 16-,
// 32- and 64-model groupings and at lengths on both sides of the
// int16/int32 switch
// (len·191 ≤ 32767, i.e. len ≤ 171). A trigram bank whose transposed
// tables exceed 4 MiB is then scored through its real signature columns
// with the scalar kernel forced on and off.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pst/frozen_bank.h"
#include "pst/frozen_pst.h"
#include "pst/pst.h"
#include "seq/background_model.h"
#include "util/rng.h"

namespace cluseq {
namespace {

using ModelPtr = std::shared_ptr<const FrozenPst>;

std::vector<SymbolId> RandomText(size_t len, size_t alphabet, Rng* rng) {
  std::vector<SymbolId> text(len);
  for (auto& s : text) s = static_cast<SymbolId>(rng->Uniform(alphabet));
  return text;
}

// `k` small models on `alphabet` symbols trained on `text`-symbol texts.
std::vector<ModelPtr> Models(size_t k, size_t alphabet, size_t depth,
                             size_t text, Rng* rng) {
  const BackgroundModel background =
      BackgroundModel::FromCounts(std::vector<uint64_t>(alphabet, 1));
  std::vector<ModelPtr> models;
  models.reserve(k);
  for (size_t m = 0; m < k; ++m) {
    PstOptions options;
    options.max_depth = depth;
    Pst pst(alphabet, options);
    pst.InsertSequence(RandomText(text, alphabet, rng));
    models.push_back(std::make_shared<const FrozenPst>(pst, background));
  }
  return models;
}

// len columns of n bytes each, column-major as the kernels read them, each
// in its own allocation so a kernel that reads past a column trips the
// sanitizers. Every model walks the positions in runs of one kind: random
// bytes, 0, 64 or 255. Model 0 is 255 everywhere, the largest sum the
// int16 lanes must hold, and model 1 is 0 everywhere, the most negative.
std::vector<std::vector<uint8_t>> RunColumns(size_t len, size_t n, Rng* rng) {
  std::vector<std::vector<uint8_t>> cols(len, std::vector<uint8_t>(n));
  for (size_t m = 0; m < n; ++m) {
    size_t run = 0;
    int kind = 0;
    for (size_t i = 0; i < len; ++i) {
      if (run == 0) {
        run = 1 + rng->Uniform(64);
        kind = static_cast<int>(rng->Uniform(4));
      }
      --run;
      uint8_t v = 0;
      switch (kind) {
        case 0: v = static_cast<uint8_t>(rng->Uniform(256)); break;
        case 1: v = 0; break;
        case 2: v = FrozenBank::kSignatureZeroPoint; break;
        default: v = 255; break;
      }
      if (m == 0) v = 255;
      if (m == 1) v = 0;
      cols[i][m] = v;
    }
  }
  return cols;
}

TEST(FrozenBankKadaneTest, Avx2MatchesScalarOnRunColumns) {
  if (!FrozenBank::SimdAvailable()) GTEST_SKIP() << "no AVX2 kernel here";
  Rng rng(20261020);
  const std::vector<ModelPtr> all = Models(1061, 2, 1, 8, &rng);
  for (size_t n : {1u, 15u, 16u, 31u, 32u, 33u, 63u, 64u, 65u, 1061u}) {
    // SignatureKadaneDense reads only num_models() and force_scalar() from
    // the bank; the columns are ours.
    FrozenBank bank(std::vector<ModelPtr>(all.begin(), all.begin() + n));
    ASSERT_EQ(bank.num_models(), n);
    for (size_t len : {1u, 2u, 171u, 172u, 400u}) {
      const auto cols = RunColumns(len, n, &rng);
      std::vector<const uint8_t*> ptrs;
      for (const auto& c : cols) ptrs.push_back(c.data());

      std::vector<int32_t> want(n, INT32_MIN);
      internal::KadaneColumnsScalar(ptrs.data(), len, 0, n, want.data());
      ASSERT_EQ(want[0], static_cast<int32_t>(
                             len * FrozenBank::kSignaturePosLevels));
      if (n > 1) {
        ASSERT_EQ(want[1], -FrozenBank::kSignatureZeroPoint);
      }

      std::vector<int32_t> simd(n, INT32_MIN);
      bank.set_force_scalar(false);
      bank.SignatureKadaneDense(ptrs.data(), len, simd.data());
      std::vector<int32_t> scalar(n, INT32_MIN);
      bank.set_force_scalar(true);
      bank.SignatureKadaneDense(ptrs.data(), len, scalar.data());
      for (size_t m = 0; m < n; ++m) {
        ASSERT_EQ(simd[m], want[m]) << "n=" << n << " len=" << len
                                    << " model " << m;
        ASSERT_EQ(scalar[m], want[m]) << "n=" << n << " len=" << len
                                      << " model " << m;
      }

      // The first-model argument leaves the models before it untouched.
      const size_t first = n / 2;
      std::vector<int32_t> tail(n, INT32_MIN);
      internal::KadaneColumnsScalar(ptrs.data(), len, first, n, tail.data());
      for (size_t m = 0; m < n; ++m) {
        ASSERT_EQ(tail[m], m < first ? INT32_MIN : want[m]) << m;
      }
    }
  }
}

TEST(FrozenBankKadaneTest, TrigramBankOverFourMiBAgreesAcrossKernels) {
  if (!FrozenBank::SimdAvailable()) GTEST_SKIP() << "no AVX2 kernel here";
  Rng rng(71);
  constexpr size_t kAlphabet = 20;
  // 612 = 9·64 + 2·16 + 4: every int16 grouping and the scalar remainder
  // run.
  FrozenBank bank(Models(612, kAlphabet, 3, 150, &rng));
  ASSERT_EQ(bank.signature_tier(), FrozenBank::SignatureTier::kTrigram);
  ASSERT_GT(bank.signature_code_space() * bank.num_models(), size_t{4} << 20)
      << "the transposed cap table must spill past 4 MiB";

  const size_t k = bank.num_models();
  const size_t order = bank.signature_order();
  const size_t leads = bank.signature_lead_positions();
  for (size_t len : {1u, 2u, 171u, 172u, 400u}) {
    // The prefilter's column walk: per-symbol maxima for the leads, then
    // the packed order-3 code of (s_{i-2}, s_{i-1}, s_i).
    const std::vector<SymbolId> seq = RandomText(len, kAlphabet, &rng);
    std::vector<const uint8_t*> cols(len);
    for (size_t i = 0; i < len; ++i) {
      if (i < leads) {
        cols[i] = bank.signature_pos_max_symbol_q(seq[i]).data();
        continue;
      }
      size_t code = 0;
      for (size_t j = i + 1 - order; j <= i; ++j) {
        code = code * kAlphabet + seq[j];
      }
      cols[i] = bank.signature_pos_cap_q(code).data();
    }
    std::vector<int32_t> want(k);
    internal::KadaneColumnsScalar(cols.data(), len, 0, k, want.data());
    std::vector<int32_t> simd(k), scalar(k);
    bank.set_force_scalar(false);
    bank.SignatureKadaneDense(cols.data(), len, simd.data());
    bank.set_force_scalar(true);
    bank.SignatureKadaneDense(cols.data(), len, scalar.data());
    EXPECT_EQ(simd, want) << "len=" << len;
    EXPECT_EQ(scalar, want) << "len=" << len;
  }
}

}  // namespace
}  // namespace cluseq
