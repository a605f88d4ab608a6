// ScanPrefilter: admissible candidate pruning in front of FrozenBank.
//
// Every CLUSEQ iteration scores every sequence against every cluster — an
// O(n·k·L) all-vs-all scan even though most sequences can only plausibly
// join a handful of clusters. The prefilter cuts that cost the way
// MMseqs2's k-mer prefilter does, but with a hard guarantee: every skip is
// justified by an *admissible upper bound* on the §4.3 log-similarity, so
// prefiltered runs produce bit-for-bit the outputs of exhaustive ones.
//
// The bound hierarchy (DESIGN.md §14), cheapest first:
//
// Level 1 — signature Kadane bound, no arena row touched. The §4.3 score
// is the maximum window sum of per-position terms X_i =
// log[P(s_i | prefix)/p(s_i)], so any per-position caps ub_i ≥ X_i give
// an admissible bound via the same max-window (Kadane) recurrence run
// over the caps. The bank's tiered signatures supply the caps (order
// chosen per bank by a byte budget, see FrozenBank::SignatureTier):
//   * lead positions (fewer than order−1 preceding symbols, but at least
//     position 0) are capped by the per-symbol maxima maxsym[s_i];
//   * position i with full context is capped by the order-o table
//     cap[s_{i-o+1}··s_i] — admissible because the automaton state before
//     consuming s_i always lies in the (o−1)-step image of the preceding
//     symbols, and the cap maximizes the ratio over exactly that image.
// The dense pass runs one exact integer Kadane per model over the bank's
// code-major signed offset-u8 cap columns (value = (entry − zero point) ·
// shared scale, entries round the true caps up; NaN occupies the top
// code) — all k models advance one position per table byte in a SIMD
// sweep. Because the encoding keeps negative caps, the bound sees windows
// *break*: a model whose good caps never chain into one window is pruned
// here, which a positional sum of positive parts can never do.
//
// Level 1.5 — one fine-grid refiner. A model the dense bound cannot prune
// is refined by the same full-length Kadane over its model-major int16
// caps (the unquantized per-symbol maxima for the leads): a grid ~50×
// finer than the dense pass's, so it is the tightest bound the tier can
// express. It runs on dense-bound survivors only — at the threshold gate
// and inside the residual sweep below — never over all k models.
//
// Survivors run the exact sparse DP (FrozenBank::ScanCandidates, bit-for-bit
// ScanAll on the models it is given). No abandon bound runs inside the DP:
// a lane that survives the windowed cap bound is out of reach of a looser
// remaining-stream bound (DESIGN.md §14 has the measurements).
//
// Exactness is restored where consumers need it:
//   * join decisions: a skipped model's recorded value is its upper
//     bound, which is < the target, so it never joins — same as exact;
//   * the per-sequence best score and the argmax (Classify) share one
//     residual sweep. When nothing is exactly known yet, the
//     highest-bound model is scanned first (it is usually the winner).
//     Then an ascending-index sweep visits every model whose dense bound
//     still beats the best exactly-known score, refines it with the
//     level-1.5 Kadane, and re-scans it exactly only if the refined bound
//     still beats the best. The Kadane bound is tight enough that the
//     sweep almost never fires, so no priority order is needed. The true
//     max can never be skipped (its bound is ≥ its score ≥ the running
//     best). The argmax also keeps bounds that *tie* the running best, so
//     ties resolve to the smallest model index exactly as the exhaustive
//     first-strict-max loop does.
//
// Pruning off (the `prefilter` constructor argument, the caller's
// CluseqOptions::prefilter): both calls run the bank's exhaustive kernel —
// ScanAllWithThreshold is FrozenBank::ScanAll, BestModel is ScanAll plus
// the first-strict-max loop — and none of the bound code runs. That mode
// is the exactness oracle every pruned result is checked against, and it
// lets every consumer score through this one class whatever the setting.
//
// Thread-safe: all mutable state lives in a per-thread workspace (reused
// across calls — no per-sequence allocation on the steady-state path), so
// one ScanPrefilter may be shared by every pool worker.

#ifndef CLUSEQ_CORE_PREFILTER_H_
#define CLUSEQ_CORE_PREFILTER_H_

#include <cstdint>
#include <span>

#include "core/similarity.h"
#include "pst/frozen_bank.h"
#include "seq/alphabet.h"

namespace cluseq {

/// Per-call pruning diagnostics (aggregated by the clusterer into
/// IterationStats and the run report). candidates_skipped is the total
/// count of models never handed to the sparse DP; l15_pruned is the
/// level-1.5 subset of it.
struct PrefilterScanStats {
  size_t models_total = 0;       ///< Models the call covered.
  size_t candidates_skipped = 0; ///< Models pruned before the DP (all levels).
  size_t l15_pruned = 0;         ///< Subset: level-1.5 Kadane drops.
  /// Always 0: the in-DP early-abandon level is gone. Kept only because the
  /// benchmark harness still reads it; it goes at the next benchmark change.
  size_t dp_early_exits = 0;
  size_t residual_rescans = 0;   ///< Exact re-scans restoring the max.
};

/// Snapshot of the calling thread's workspace buffer addresses, for the
/// regression test pinning "no per-sequence reallocation" (the buffers
/// must keep their storage across repeated scans of same-shape input).
struct PrefilterWorkspaceProbe {
  const void* codes = nullptr;
  const void* cols = nullptr;
  const void* acc = nullptr;
  const void* tmp = nullptr;
};

class ScanPrefilter {
 public:
  /// Retired with the truncated-prefix level-1.5 bound: ignored; goes at
  /// the next benchmark change (the benchmark harness still names it).
  static constexpr size_t kDefaultL15Prefix = 96;

  ScanPrefilter() = default;
  /// `prefilter` false turns pruning off: every call is the exhaustive
  /// oracle scan (see the header comment).
  explicit ScanPrefilter(const FrozenBank* bank, bool prefilter = true)
      : prune_(prefilter) {
    Bind(bank);
  }
  /// Retired overload: the size_t (the old level-1.5 prefix length) is
  /// ignored; goes at the next benchmark change.
  ScanPrefilter(const FrozenBank* bank, size_t /*ignored*/,
                bool prefilter = true)
      : ScanPrefilter(bank, prefilter) {}

  /// Points the prefilter at `bank` (not owned; must outlive this object
  /// and stay un-reassembled while scans run). Binding is free — the
  /// signatures live in the bank.
  void Bind(const FrozenBank* bank) { bank_ = bank; }
  bool bound() const { return bank_ != nullptr && !bank_->empty(); }

  /// Threshold-mode scan over all models. Postconditions versus the exact
  /// bank_->ScanAll(symbols, results):
  ///   * results[m].log_sim >= log_t holds for exactly the same models,
  ///     and for those models results[m] is bit-for-bit exact;
  ///   * max_m results[m].log_sim is the exact maximum;
  ///   * other slots hold an admissible upper bound (< log_t) instead of
  ///     the exact score, with zeroed segment bounds.
  /// Any log_t is accepted; a nonpositive one can never prune (every
  /// bound is ≥ 0 by construction), so those calls delegate to the
  /// exhaustive scan and return fully exact results, as do all calls with
  /// pruning off.
  void ScanAllWithThreshold(std::span<const SymbolId> symbols, double log_t,
                            SimilarityResult* results,
                            PrefilterScanStats* stats = nullptr) const;

  /// Argmax-mode scan: returns the smallest model index attaining the exact
  /// maximum log-similarity (the exhaustive first-strict-max loop's answer)
  /// and writes the exact maximum to *best_log_sim. Returns -1 — with
  /// *best_log_sim = -inf — when there are no models or no model scores
  /// above -inf. `exclude_model` removes one model from consideration
  /// entirely (the seeding peer matrix excludes self); pass kNoExclude for
  /// none.
  static constexpr size_t kNoExclude = static_cast<size_t>(-1);
  int32_t BestModel(std::span<const SymbolId> symbols, double* best_log_sim,
                    PrefilterScanStats* stats = nullptr,
                    size_t exclude_model = kNoExclude) const;

  /// Testing hook: addresses of the calling thread's workspace buffers.
  static PrefilterWorkspaceProbe ProbeThreadWorkspaceForTesting();

 private:
  const FrozenBank* bank_ = nullptr;
  bool prune_ = true;
};

}  // namespace cluseq

#endif  // CLUSEQ_CORE_PREFILTER_H_
