// Golden layout test: pins the exact compiled form of fixed trees — the
// state numbering (through the transition table), the log-ratio bits and
// the per-state depths — so a change to how FrozenPst numbers or fills its
// states fails here even when scoring stays equivalent. The .fbank format
// stores these tables verbatim, so a silent renumbering would change every
// saved bank's bytes.
//
// The constants were captured from the stable_sort-based freeze the flat
// constructor replaced; regenerate them only for an intended change to the
// state numbering or the table contents.

#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "pst/frozen_pst.h"
#include "seq/background_model.h"
#include "util/rng.h"

namespace cluseq {
namespace {

using Symbols = std::vector<SymbolId>;

// FNV-1a over the raw bytes of a table.
template <typename T>
uint64_t HashBytes(std::span<const T> values) {
  uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (size_t i = 0; i < values.size_bytes(); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

struct Golden {
  size_t states;
  uint64_t transitions;
  uint64_t log_ratios;
  uint64_t depths;
};

Golden Fingerprint(const FrozenPst& frozen) {
  std::vector<uint32_t> depths(frozen.num_states());
  for (size_t u = 0; u < depths.size(); ++u) {
    depths[u] = static_cast<uint32_t>(frozen.StateDepth(
        static_cast<FrozenPst::State>(u)));
  }
  return {frozen.num_states(), HashBytes(frozen.transition_table()),
          HashBytes(frozen.log_ratio_table()),
          HashBytes(std::span<const uint32_t>(depths))};
}

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

void ExpectGolden(const Pst& pst, const BackgroundModel& background,
                  const Golden& want, const char* what) {
  const Golden got = Fingerprint(FrozenPst(pst, background));
  EXPECT_EQ(got.states, want.states) << what;
  EXPECT_EQ(got.transitions, want.transitions) << what;
  EXPECT_EQ(got.log_ratios, want.log_ratios) << what;
  EXPECT_EQ(got.depths, want.depths) << what;
}

TEST(FrozenPstGoldenTest, PlainTree) {
  Rng rng(2024);
  PstOptions options;
  options.max_depth = 6;
  options.significance_threshold = 3;
  Pst pst(5, options);
  pst.InsertSequence(RandomText(600, 5, &rng));
  pst.InsertSequence(RandomText(250, 5, &rng));
  const BackgroundModel background = SkewedBackground(5, &rng);
  ExpectGolden(pst, background,
               {2178, 0xbd562b3541985aacull, 0xfd6fea80bc02eed6ull,
                0x153232aa193a6372ull},
               "plain");
}

TEST(FrozenPstGoldenTest, WideAlphabetTree) {
  Rng rng(77);
  PstOptions options;
  options.max_depth = 4;
  options.significance_threshold = 2;
  Pst pst(20, options);
  for (int i = 0; i < 4; ++i) pst.InsertSequence(RandomText(300, 20, &rng));
  const BackgroundModel background = SkewedBackground(20, &rng);
  ExpectGolden(pst, background,
               {2679, 0x0707930e8c425a97ull, 0x89a8775cfb79bea5ull,
                0xb93b1060e84a2f92ull},
               "wide");
}

TEST(FrozenPstGoldenTest, PrunedTreeWithClosureStates) {
  Rng rng(5150);
  PstOptions options;
  options.max_depth = 7;
  options.significance_threshold = 2;
  options.prune_strategy = PruneStrategy::kSmallestCountFirst;
  Pst pst(4, options);
  pst.InsertSequence(RandomText(900, 4, &rng));
  pst.PruneToBudget(pst.ApproxMemoryBytes() / 3);
  const BackgroundModel background = SkewedBackground(4, &rng);
  const FrozenPst frozen(pst, background);
  // Pruning must have broken prefix closure, or this case pins nothing the
  // plain tree does not.
  ASSERT_GT(frozen.num_states(), pst.NumNodes());
  ExpectGolden(pst, background,
               {677, 0xd67458aed416edd0ull, 0x1b6914cf4ed2f598ull,
                0x1a40efd24cb681d0ull},
               "pruned");
}

TEST(FrozenPstGoldenTest, BudgetPrunedDuringInsertion) {
  Rng rng(31337);
  PstOptions options;
  options.max_depth = 8;
  options.significance_threshold = 2;
  options.max_memory_bytes = 24 * 1024;
  options.prune_strategy = PruneStrategy::kExpectedVectorFirst;
  Pst pst(6, options);
  for (int i = 0; i < 3; ++i) pst.InsertSequence(RandomText(500, 6, &rng));
  const BackgroundModel background = SkewedBackground(6, &rng);
  ExpectGolden(pst, background,
               {185, 0xb188d64304843b8aull, 0x1c484f57e9e272a8ull,
                0x1bc084bf4c3860a4ull},
               "budget");
}

TEST(FrozenPstGoldenTest, MergedTree) {
  Rng rng(8080);
  PstOptions options;
  options.max_depth = 5;
  options.significance_threshold = 3;
  Pst a(6, options);
  Pst b(6, options);
  a.InsertSequence(RandomText(500, 6, &rng));
  b.InsertSequence(RandomText(400, 3, &rng));
  b.InsertSequence(RandomText(300, 6, &rng));
  ASSERT_TRUE(a.MergeFrom(b).ok());
  const BackgroundModel background = SkewedBackground(6, &rng);
  ExpectGolden(a, background,
               {1834, 0xf8a174f1d1190b39ull, 0x429629ea4bb69c6full,
                0x5147d96977ff82f1ull},
               "merged");
}

TEST(FrozenPstGoldenTest, SmoothingOff) {
  Rng rng(4242);
  PstOptions options;
  options.max_depth = 5;
  options.significance_threshold = 2;
  options.smoothing_p_min = 0.0;
  Pst pst(6, options);
  // A restricted sub-alphabet leaves zero-probability (-inf) entries.
  pst.InsertSequence(RandomText(500, 3, &rng));
  pst.InsertSequence(RandomText(200, 6, &rng));
  const BackgroundModel background = SkewedBackground(6, &rng);
  ExpectGolden(pst, background,
               {832, 0x1a73c39557eda2daull, 0x016398655e264d94ull,
                0x361e9ff7ca901337ull},
               "smoothing_off");
}

}  // namespace
}  // namespace cluseq
