#include "pst/frozen_bank.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace cluseq {

namespace {

/// Arenas at least this large are backed by 2 MiB-aligned storage and
/// advised as hugepage (the rounding waste is bounded by one page).
constexpr size_t kHugePageBytes = 2 * 1024 * 1024;

FrozenBank::Entry* AllocateArena(size_t* capacity_entries) {
  static obs::Gauge& hugepage_gauge =
      obs::MetricsRegistry::Get().GetGauge("frozen_bank.hugepage_arena");
  const size_t bytes = *capacity_entries * sizeof(FrozenBank::Entry);
  if (bytes >= kHugePageBytes) {
    const size_t rounded =
        (bytes + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes;
    void* huge = std::aligned_alloc(kHugePageBytes, rounded);
    if (huge != nullptr) {
#if defined(__linux__)
      madvise(huge, rounded, MADV_HUGEPAGE);  // Best-effort; ENOSYS is fine.
#endif
      *capacity_entries = rounded / sizeof(FrozenBank::Entry);
      hugepage_gauge.Set(1.0);
      return static_cast<FrozenBank::Entry*>(huge);
    }
  }
  void* plain = std::malloc(bytes);
  CLUSEQ_CHECK(plain != nullptr || bytes == 0,
               "FrozenBank arena allocation failed");
  hugepage_gauge.Set(0.0);
  return static_cast<FrozenBank::Entry*>(plain);
}

}  // namespace

FrozenBank::EntryArena& FrozenBank::EntryArena::operator=(
    const EntryArena& other) {
  if (this != &other) {
    resize(other.size_);
    if (size_ > 0) std::memcpy(data_, other.data_, size_ * sizeof(Entry));
  }
  return *this;
}

FrozenBank::EntryArena& FrozenBank::EntryArena::operator=(
    EntryArena&& other) noexcept {
  if (this != &other) {
    std::free(data_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
  }
  return *this;
}

FrozenBank::EntryArena::~EntryArena() { std::free(data_); }

void FrozenBank::EntryArena::resize(size_t n) {
  if (n > capacity_) {
    // Geometric growth: a bank that gains a few seeds per iteration would
    // otherwise reallocate and copy the whole arena every time. Capacity
    // past size() is never touched, so it costs address space, not RSS.
    size_t capacity = std::max(n, 2 * capacity_);
    Entry* fresh = AllocateArena(&capacity);
    if (size_ > 0) std::memcpy(fresh, data_, size_ * sizeof(Entry));
    std::free(data_);
    data_ = fresh;
    capacity_ = capacity;
  }
  size_ = n;
}

namespace internal {

void ScanBlockScalar(const FrozenBank::Entry* entries, const uint32_t* bases,
                     size_t num_models, const SymbolId* symbols, size_t len,
                     SimilarityResult* out) {
  // Per-model DP lanes; the inner loops carry no cross-model dependency, so
  // the m-iterations pipeline (independent gather chains) even without SIMD.
  double y[kMaxBlockModels];
  double z[kMaxBlockModels];
  uint32_t row[kMaxBlockModels];
  size_t ybegin[kMaxBlockModels];
  size_t bbegin[kMaxBlockModels];
  size_t bend[kMaxBlockModels];
  const double neg_inf = -std::numeric_limits<double>::infinity();
  for (size_t m = 0; m < num_models; ++m) {
    row[m] = bases[m];  // Root state: model-local row 0.
    z[m] = neg_inf;
    ybegin[m] = 0;
    bbegin[m] = 0;
    bend[m] = 0;
  }

  // i = 0 peeled: the reference recurrence starts Y at X_0 unconditionally
  // (and never evaluates Y_{-1} + X_0, which matters for ±inf ratios).
  {
    const uint32_t s = symbols[0];
    for (size_t m = 0; m < num_models; ++m) {
      const FrozenBank::Entry& e = entries[static_cast<size_t>(row[m]) + s];
      row[m] = bases[m] + e.next;
      y[m] = e.ratio;
      if (y[m] > z[m]) {
        z[m] = y[m];
        bend[m] = 1;  // bbegin stays 0.
      }
    }
  }
  for (size_t i = 1; i < len; ++i) {
    const uint32_t s = symbols[i];
    for (size_t m = 0; m < num_models; ++m) {
      const FrozenBank::Entry& e = entries[static_cast<size_t>(row[m]) + s];
      const double x = e.ratio;  // log X_i, background baked in.
      row[m] = bases[m] + e.next;
      const double extend = y[m] + x;
      if (extend < x) {
        y[m] = x;  // Restart: best segment ending at i is {s_i} alone.
        ybegin[m] = i;
      } else {
        y[m] = extend;
      }
      if (y[m] > z[m]) {
        z[m] = y[m];
        bbegin[m] = ybegin[m];
        bend[m] = i + 1;
      }
    }
  }
  for (size_t m = 0; m < num_models; ++m) {
    out[m].log_sim = z[m];
    out[m].best_begin = bbegin[m];
    out[m].best_end = bend[m];
  }
}

void KadaneColumnsScalar(const uint8_t* const* cols, size_t len,
                         size_t first, size_t n, int32_t* z) {
  for (size_t m = first; m < n; ++m) {
    int32_t x = static_cast<int32_t>(cols[0][m]) -
                FrozenBank::kSignatureZeroPoint;
    int32_t y = x;
    int32_t best = x;
    for (size_t i = 1; i < len; ++i) {
      x = static_cast<int32_t>(cols[i][m]) - FrozenBank::kSignatureZeroPoint;
      const int32_t extend = y + x;
      y = extend < x ? x : extend;
      if (y > best) best = y;
    }
    z[m] = best;
  }
}

}  // namespace internal

void FrozenBank::SignatureKadaneDense(const uint8_t* const* cols, size_t len,
                                      int32_t* z) const {
  const size_t k = num_models();
  if (k == 0 || len == 0) return;
#ifdef CLUSEQ_HAVE_AVX2
  if (UseSimd()) {
    internal::KadaneColumnsAvx2(cols, len, k, z);
    return;
  }
#endif
  internal::KadaneColumnsScalar(cols, len, 0, k, z);
}

bool FrozenBank::SimdAvailable() {
#ifdef CLUSEQ_HAVE_AVX2
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
#else
  return false;
#endif
}

namespace {

/// Moves the reused slots' fixed-stride or variable-length ranges from
/// their old place to their new one inside one buffer. `from[m]` is slot
/// m's old index (kNotReused for slots written afresh), ascending over the
/// reused slots, and `old_at`/`new_at` give a slot's range start. Because
/// reused slots keep their relative order and neither layout overlaps
/// itself, moving the leftward slots front to back and then the rightward
/// ones back to front never overwrites a range that has yet to move.
constexpr size_t kNotReused = std::numeric_limits<size_t>::max();

template <typename T, typename OldAt, typename NewAt, typename Len>
void MoveSlots(T* data, const std::vector<size_t>& from, OldAt old_at,
               NewAt new_at, Len len) {
  const size_t k = from.size();
  for (size_t m = 0; m < k; ++m) {
    if (from[m] == kNotReused) continue;
    const size_t src = old_at(from[m]);
    const size_t dst = new_at(m);
    if (dst < src) std::memmove(data + dst, data + src, len(m) * sizeof(T));
  }
  for (size_t m = k; m-- > 0;) {
    if (from[m] == kNotReused) continue;
    const size_t src = old_at(from[m]);
    const size_t dst = new_at(m);
    if (dst > src) std::memmove(data + dst, data + src, len(m) * sizeof(T));
  }
}

}  // namespace

FrozenBank::AssembleStats FrozenBank::Assemble(
    std::vector<std::shared_ptr<const FrozenPst>> models, size_t num_threads) {
  CLUSEQ_TRACE_SPAN("frozen_bank.assemble");
  AssembleStats stats;
  size_t alphabet = alphabet_size_;
  for (const auto& model : models) {
    CLUSEQ_CHECK(model != nullptr && !model->empty(),
                 "FrozenBank models must be non-empty snapshots");
    if (alphabet == 0) alphabet = model->alphabet_size();
    CLUSEQ_CHECK(model->alphabet_size() == alphabet,
                 "FrozenBank models must share one alphabet_size");
  }

  // New layout: prefix sums of each model's (states × alphabet) extent.
  std::vector<size_t> base(models.size());
  size_t total = 0;
  for (size_t m = 0; m < models.size(); ++m) {
    base[m] = total;
    total += models[m]->num_states() * alphabet;
  }
  // The SIMD transition gather addresses entry g at scaled signed 32-bit
  // index 4·g + 2 (see frozen_bank_avx2.cc), so that — not 2^31 entries —
  // bounds the arena. Still ~8.6 GiB of packed rows, far beyond any real
  // bank.
  CLUSEQ_CHECK(
      total <= static_cast<size_t>(std::numeric_limits<int32_t>::max() / 4),
      "FrozenBank arena exceeds the gather-index range");

  // A slot is reusable when its snapshot object was already packed in the
  // previous layout: rows carry model-local offsets, so its bytes (and its
  // signature slices) are correct wherever they sit. Reuse follows the old
  // slot order — a snapshot that moved before one packed ahead of it in
  // the old layout is written afresh — so the moves below stay in place.
  // A mapped bank has no snapshots, so nothing reuses and the assemble
  // below rebuilds an owned arena.
  std::vector<size_t> from(models.size(), kNotReused);
  if (alphabet == alphabet_size_ && !models_.empty()) {
    std::unordered_map<const FrozenPst*, size_t> old_slot;
    old_slot.reserve(models_.size());
    for (size_t m = 0; m < models_.size(); ++m) {
      old_slot.try_emplace(models_[m].get(), m);
    }
    size_t next_old = 0;  // Reused old slots must ascend.
    for (size_t m = 0; m < models.size(); ++m) {
      const auto it = old_slot.find(models[m].get());
      if (it == old_slot.end() || it->second < next_old) continue;
      from[m] = it->second;
      next_old = it->second + 1;
    }
  }
  for (size_t m = 0; m < models.size(); ++m) {
    if (from[m] == kNotReused) {
      ++stats.models_written;
    } else if (from[m] != m || base[m] != base_[from[m]]) {
      ++stats.models_written;
      ++stats.models_moved;
    } else {
      ++stats.models_reused;
    }
  }
  if (external_entries_ != nullptr) {
    external_entries_ = nullptr;
    external_storage_.reset();
  }

  // Reused rows move to their new offsets before any slot is written.
  const size_t old_k = base_.size();
  entries_.resize(std::max(total, entries_.size()));
  MoveSlots(
      entries_.data(), from, [&](size_t o) { return base_[o]; },
      [&](size_t m) { return base[m]; },
      [&](size_t m) { return models[m]->num_states() * alphabet; });
  entries_.resize(total);

  // Bound signatures follow the same reuse: a reused slot's per-model
  // slices move with it. A tier change reshapes the per-model tables, so
  // it forces a full signature rebuild even where rows were reused.
  const SignatureTier tier = SelectSignatureTier(models.size(), alphabet);
  const bool tier_changed = tier != sig_tier_ || alphabet != alphabet_size_;
  alphabet_size_ = alphabet;
  sig_tier_ = tier;
  const size_t cs = signature_code_space();
  sig_maxsym_.resize(std::max(old_k, models.size()) * alphabet);
  sig_cap_q_.resize(std::max(old_k, models.size()) * cs);
  if (!tier_changed) {
    MoveSlots(
        sig_maxsym_.data(), from, [&](size_t o) { return o * alphabet; },
        [&](size_t m) { return m * alphabet; },
        [&](size_t) { return alphabet; });
    MoveSlots(
        sig_cap_q_.data(), from, [&](size_t o) { return o * cs; },
        [&](size_t m) { return m * cs; }, [&](size_t) { return cs; });
  }
  sig_maxsym_.resize(models.size() * alphabet);
  sig_cap_q_.resize(models.size() * cs);

  // The layout is settled before any slot is written, so the per-slot
  // tasks below only fill their own ranges.
  models_ = std::move(models);
  states_.resize(models_.size());
  for (size_t m = 0; m < models_.size(); ++m) {
    states_[m] = static_cast<uint32_t>(models_[m]->num_states());
  }
  base_ = std::move(base);
  base32_.resize(base_.size());
  for (size_t m = 0; m < base_.size(); ++m) {
    base32_[m] = static_cast<uint32_t>(base_[m]);
  }

  std::vector<size_t> dirty;
  for (size_t m = 0; m < models_.size(); ++m) {
    if (from[m] == kNotReused || tier_changed) dirty.push_back(m);
  }
  // Packing and signature cost both scale with the model's state count.
  ParallelForWeighted(
      dirty.size(), num_threads,
      [&](size_t i) -> uint64_t { return states_[dirty[i]]; },
      [&](size_t i) {
        const size_t m = dirty[i];
        if (from[m] == kNotReused) {
          const FrozenPst& model = *models_[m];
          const std::span<const double> src_ratio = model.log_ratio_table();
          const std::span<const FrozenPst::State> src_next =
              model.transition_table();
          // Transitions are rebased from state ids to model-local row
          // offsets so one entry both scores the symbol and names the next
          // row.
          Entry* dst = entries_.data() + base_[m];
          for (size_t e = 0; e < src_next.size(); ++e) {
            dst[e] = Entry{src_ratio[e],
                           src_next[e] * static_cast<uint32_t>(alphabet), 0};
          }
        }
        CLUSEQ_CHECK(BuildSignature(m),
                     "FrozenPst transitions break symbol ownership");
      });
  BuildTransposedSignatures(num_threads);

  static obs::Counter& assembles =
      obs::MetricsRegistry::Get().GetCounter("frozen_bank.assembles");
  static obs::Counter& written =
      obs::MetricsRegistry::Get().GetCounter("frozen_bank.models_written");
  static obs::Counter& moved =
      obs::MetricsRegistry::Get().GetCounter("frozen_bank.models_moved");
  static obs::Counter& reused =
      obs::MetricsRegistry::Get().GetCounter("frozen_bank.models_reused");
  static obs::Gauge& arena_bytes =
      obs::MetricsRegistry::Get().GetGauge("frozen_bank.arena_bytes");
  assembles.Increment();
  written.Add(stats.models_written);
  moved.Add(stats.models_moved);
  reused.Add(stats.models_reused);
  arena_bytes.Set(static_cast<double>(entries_.size() * sizeof(Entry)));
  return stats;
}

double FrozenBank::SignatureTierCostBytes(size_t k, size_t alphabet,
                                          size_t order) {
  // Computed in doubles so huge alphabets cannot overflow the size
  // arithmetic. Per (model, code) entry: 2 bytes model-major int16 +
  // 1 byte transposed uint8; plus the A-wide per-symbol tables (double
  // model-major + uint8 transpose).
  const double kd = static_cast<double>(k);
  const double a = static_cast<double>(alphabet);
  double cs = 1.0;
  for (size_t o = 0; o < order; ++o) cs *= a;
  return kd * cs * (sizeof(int16_t) + 1) + kd * a * (sizeof(double) + 1);
}

FrozenBank::SignatureTier FrozenBank::SelectSignatureTier(
    size_t k, size_t alphabet) const {
  if (k == 0 || alphabet == 0) return SignatureTier::kUnigram;
  const double budget = static_cast<double>(signature_budget_bytes_);
  if (SignatureTierCostBytes(k, alphabet, 3) <= budget) {
    return SignatureTier::kTrigram;
  }
  if (SignatureTierCostBytes(k, alphabet, 2) <= budget) {
    return SignatureTier::kBigram;
  }
  return SignatureTier::kUnigram;
}

namespace {

// Rounds a log-ratio up onto the kSignatureQuantStep fixed-point grid.
// Round-up keeps the cap admissible; the explicit product check repairs
// the rare case where the scaled ceil still lands a hair below v (the
// multiply itself rounds). NaN maps to the fold identity — a NaN ratio
// never wins the `>` max-folds below, matching the double code it
// replaces — and -inf clamps upward to the grid floor, which only loosens
// the cap. Positive saturation is unreachable (see kSignatureQuantStep).
int16_t QuantizeCap16(double v) {
  constexpr int16_t kMin = std::numeric_limits<int16_t>::min();
  if (std::isnan(v)) return kMin;
  const double q = std::ceil(v * 256.0);
  if (q <= -32768.0) return kMin;
  if (q >= 32767.0) return std::numeric_limits<int16_t>::max();
  int32_t qi = static_cast<int32_t>(q);
  if (static_cast<double>(qi) * FrozenBank::kSignatureQuantStep < v) ++qi;
  return static_cast<int16_t>(qi);
}

}  // namespace

bool FrozenBank::BuildSignature(size_t m) {
  CLUSEQ_TRACE_SPAN("frozen_bank.build_signature");
  const size_t a_size = alphabet_size_;
  const size_t ns = states_[m];
  const Entry* rows = scan_data() + base_[m];
  const double neg_inf = -std::numeric_limits<double>::infinity();
  constexpr int16_t kQMin = std::numeric_limits<int16_t>::min();

  double* maxsym = sig_maxsym_.data() + m * a_size;
  const bool have_maxsym = m < models_.size() && models_[m] != nullptr &&
                           !models_[m]->max_symbol_log_ratio().empty();
  if (have_maxsym) {
    // Assembled bank: the per-symbol maxima were computed at freeze time.
    const std::span<const double> src = models_[m]->max_symbol_log_ratio();
    std::copy(src.begin(), src.end(), maxsym);
  } else {
    std::fill(maxsym, maxsym + a_size, neg_inf);
  }
  const auto fold_maxsym = [&](const Entry* row) {
    for (size_t a = 0; a < a_size; ++a) {
      if (row[a].ratio > maxsym[a]) maxsym[a] = row[a].ratio;
    }
  };

  if (sig_tier_ == SignatureTier::kUnigram) {
    // Unigram tier: the cap table is just the per-symbol maxima quantized,
    // so every consumer reads sig_cap_q_ the same way regardless of tier.
    if (!have_maxsym) {
      for (size_t u = 0; u < ns; ++u) fold_maxsym(rows + u * a_size);
    }
    int16_t* cap1 = sig_cap_q_.data() + m * a_size;
    for (size_t a = 0; a < a_size; ++a) cap1[a] = QuantizeCap16(maxsym[a]);
    return true;
  }

  // Context tiers. cap2[b·A + a] is the max of ratio(v, a) over the image
  // of Step(·, b); cap3[(c·A + b)·A + a] over the two-step image
  // Step(Step(·, c), b). Both are admissible for any position whose
  // preceding symbols are (c,) b, whatever the state before them.
  //
  // The images come from *ownership*: every non-root target of Step(·, b)
  // has a label ending in b, so each non-root state is reached on exactly
  // one symbol, its owner — the image of b is the states b owns, plus the
  // root when some Step(·, b) falls back to it. One sequential pass over
  // the rows quantizes each row once and records every target's owner; the
  // caps are then folded from those per-owner buckets. For the trigram
  // tier the same pass records, per state w, which owners its predecessors
  // have: cap3[c][owner(w)] folds w for each such c. A state at depth ≥ 2
  // has predecessors of one owner only (the second-to-last symbol of its
  // label), so the rare multi-owner states (depth 1) keep a small side set.
  // Quantization is monotone, so folding quantized values gives exactly
  // the quantized max — still an admissible cap.
  constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  const bool trigram = sig_tier_ == SignatureTier::kTrigram;
  std::vector<int16_t> qrows(ns * a_size);
  std::vector<uint32_t> owner(ns, kNone);
  std::vector<uint8_t> root_in_image(a_size, 0);
  // Trigram bookkeeping: pred_owner[w] is the one owner of w's
  // predecessors (< A), or A + r when they have several, flagged in row r
  // of shared_owners (A flags per row); root_pair marks the pairs (c, b)
  // whose two-step image holds the root.
  std::vector<uint32_t> pred_owner(trigram ? ns : 0, kNone);
  std::vector<uint8_t> shared_owners;
  std::vector<uint8_t> root_pair(trigram ? a_size * a_size : 0, 0);
  const auto record_pair = [&](uint32_t c, uint32_t b, uint32_t w) {
    if (w == 0) {
      root_pair[c * a_size + b] = 1;
      return;
    }
    uint32_t& po = pred_owner[w];
    if (po == c) return;
    if (po == kNone) {
      po = c;
      return;
    }
    if (po < a_size) {  // A second owner: move w's owners to a shared row.
      const size_t r = shared_owners.size() / a_size;
      shared_owners.resize(shared_owners.size() + a_size, 0);
      shared_owners[r * a_size + po] = 1;
      po = static_cast<uint32_t>(a_size + r);
    }
    shared_owners[(po - a_size) * a_size + c] = 1;
  };
  // Records the two-step pairs of row u, whose owner is c.
  const auto record_row = [&](uint32_t c, const Entry* row) {
    for (size_t b = 0; b < a_size; ++b) {
      record_pair(c, static_cast<uint32_t>(b),
                  row[b].next / static_cast<uint32_t>(a_size));
    }
  };

  std::vector<uint32_t> deferred;
  for (size_t u = 0; u < ns; ++u) {
    const Entry* row = rows + u * a_size;
    int16_t* q = qrows.data() + u * a_size;
    for (size_t a = 0; a < a_size; ++a) {
      q[a] = QuantizeCap16(row[a].ratio);
      const uint32_t w = row[a].next / static_cast<uint32_t>(a_size);
      if (w == 0) {
        root_in_image[a] = 1;
      } else if (owner[w] == kNone) {
        owner[w] = static_cast<uint32_t>(a);
      } else if (owner[w] != a) {
        return false;
      }
    }
    if (!have_maxsym) fold_maxsym(row);
    if (!trigram || u == 0) continue;
    // Depth-major numbering reaches every state's shortest predecessor
    // first, so its owner is known here; any other order defers the row.
    if (owner[u] == kNone) {
      deferred.push_back(static_cast<uint32_t>(u));
    } else {
      record_row(owner[u], row);
    }
  }

  const auto fold = [a_size](const int16_t* q, int16_t* caps) {
    for (size_t a = 0; a < a_size; ++a) caps[a] = std::max(caps[a], q[a]);
  };
  if (!trigram) {
    int16_t* cap2 = sig_cap_q_.data() + m * a_size * a_size;
    std::fill(cap2, cap2 + a_size * a_size, kQMin);
    for (size_t w = 1; w < ns; ++w) {
      if (owner[w] != kNone) {
        fold(qrows.data() + w * a_size, cap2 + owner[w] * a_size);
      }
    }
    for (size_t b = 0; b < a_size; ++b) {
      if (root_in_image[b]) fold(qrows.data(), cap2 + b * a_size);
    }
    return true;
  }

  // States never reached stay out of every image; the rest of the deferred
  // rows, and the root's row for each symbol whose image holds the root,
  // complete the pairs.
  for (const uint32_t u : deferred) {
    if (owner[u] != kNone) record_row(owner[u], rows + u * a_size);
  }
  for (size_t c = 0; c < a_size; ++c) {
    if (root_in_image[c]) record_row(static_cast<uint32_t>(c), rows);
  }
  int16_t* cap3 = sig_cap_q_.data() + m * a_size * a_size * a_size;
  std::fill(cap3, cap3 + a_size * a_size * a_size, kQMin);
  for (size_t w = 1; w < ns; ++w) {
    const uint32_t po = pred_owner[w];
    if (po == kNone) continue;
    const int16_t* q = qrows.data() + w * a_size;
    const size_t b = owner[w];
    if (po < a_size) {
      fold(q, cap3 + (po * a_size + b) * a_size);
      continue;
    }
    const uint8_t* set = shared_owners.data() + (po - a_size) * a_size;
    for (size_t c = 0; c < a_size; ++c) {
      if (set[c]) fold(q, cap3 + (c * a_size + b) * a_size);
    }
  }
  for (size_t cb = 0; cb < a_size * a_size; ++cb) {
    if (root_pair[cb]) fold(qrows.data(), cap3 + cb * a_size);
  }
  return true;
}

void FrozenBank::BuildAllSignatures(size_t num_threads) {
  const size_t k = base_.size();
  sig_tier_ = SelectSignatureTier(k, alphabet_size_);
  sig_maxsym_.resize(k * alphabet_size_);
  sig_cap_q_.resize(k * signature_code_space());
  ParallelForWeighted(
      k, num_threads, [&](size_t m) -> uint64_t { return states_[m]; },
      [&](size_t m) {
        CLUSEQ_CHECK(BuildSignature(m),
                     "validated rows break symbol ownership");
      });
  BuildTransposedSignatures(num_threads);
}

void FrozenBank::BuildTransposedSignatures(size_t num_threads) {
  const size_t k = base_.size();
  const size_t a_size = alphabet_size_;
  const size_t cs = signature_code_space();

  // Pass 0: pick the bank-global signed 8-bit grid. The positive side
  // (191 levels above the zero point) must cover the largest positive
  // value the transposed tables will ever hold — both the raw per-symbol
  // maxima (doubles) and the already-quantized caps. The (1 + 2^-40)
  // headroom guarantees 191 * scale >= gmax even after the division
  // rounds, so the bump loop below always terminates at 191.
  double gmax = 0.0;
  for (const double v : sig_maxsym_) {
    if (std::isfinite(v) && v > gmax) gmax = v;
  }
  int16_t q16max = 0;
  for (const int16_t q : sig_cap_q_) {
    if (q > q16max) q16max = q;
  }
  if (q16max > 0) {
    gmax = std::max(gmax, static_cast<double>(q16max) * kSignatureQuantStep);
  }
  constexpr int32_t kZp = kSignatureZeroPoint;
  constexpr int32_t kPos = kSignaturePosLevels;
  sig_scale8_ = gmax > 0.0 ? gmax * (1.0 + 0x1p-40) / kPos : 1.0;
  const double scale = sig_scale8_;
  const double inv_scale = 1.0 / scale;
  // Round-up quantization onto the signed offset grid: stored byte =
  // clamp(ceil(v / scale), −64, 191) + 64, so (byte − 64) · scale ≥ v
  // always — the bump loop repairs any downward FP rounding, and the low
  // clamp only raises a value (admissible; a deep negative cap just
  // breaks windows a little less hard). NaN maps to 255: it must
  // dominate any score the scan kernels can produce, because a NaN X
  // freezes their Y lane and the best window then closed before the NaN
  // — a window our Kadane sweep also saw. −inf maps to 0.
  const auto quant_s8 = [scale, inv_scale](double v) -> uint8_t {
    if (std::isnan(v)) return 255;
    if (!(v > static_cast<double>(-kZp) * scale)) return 0;
    const double q = std::ceil(v * inv_scale);
    int32_t u = q >= static_cast<double>(kPos) ? kPos
                                               : static_cast<int32_t>(q);
    if (u < -kZp) u = -kZp;
    while (u < kPos && static_cast<double>(u) * scale < v) ++u;
    return static_cast<uint8_t>(u + kZp);
  };

  // Pass 1: per-symbol maxima, transposed to symbol-major offset-u8 so
  // the dense level-1 pass streams one contiguous k-wide column per lead
  // position.
  sig_maxsymt_q_.resize(k * a_size);
  for (size_t m = 0; m < k; ++m) {
    const double* src = sig_maxsym_.data() + m * a_size;
    for (size_t a = 0; a < a_size; ++a) {
      sig_maxsymt_q_[a * k + m] = quant_s8(src[a]);
    }
  }

  // Pass 2: cap tables, code-major offset-u8. Quantized FROM the int16
  // values — q16 * kSignatureQuantStep is exact in double (both are
  // powers of two away from an integer), so (e − 64) * scale >= q16 *
  // step >= true cap and the dominance chain the refine bounds rely on
  // holds entrywise. Unlike the positive-clamped mirror this replaces,
  // the signed grid keeps the *negative* caps too — that is what lets
  // the dense Kadane sweep see windows break.
  // Each task owns a contiguous code range, i.e. a disjoint slice of the
  // code-major table; ranges are sized so a task quantizes ~64k caps and
  // small banks stay on the calling thread.
  sig_capt_q_.resize(k * cs);
  if (k == 0) return;
  constexpr size_t kCapsPerTask = size_t{1} << 16;
  const size_t codes_per_task = std::max<size_t>(1, kCapsPerTask / k);
  const size_t tasks = (cs + codes_per_task - 1) / codes_per_task;
  ParallelFor(tasks, num_threads, [&](size_t t) {
    const size_t code_begin = t * codes_per_task;
    const size_t code_end = std::min(cs, code_begin + codes_per_task);
    for (size_t m = 0; m < k; ++m) {
      const int16_t* src = sig_cap_q_.data() + m * cs;
      for (size_t code = code_begin; code < code_end; ++code) {
        sig_capt_q_[code * k + m] = quant_s8(
            static_cast<double>(src[code]) * kSignatureQuantStep);
      }
    }
  });
}

size_t FrozenBank::BlockModels() const {
  // Every in-flight model holds one (ratio, next) row pair hot. Budget half
  // of a typical 512 KiB L2 for a handful of recently-touched rows per
  // model; depth-major state numbering keeps those rows adjacent.
  constexpr size_t kCacheBudgetBytes = 256 * 1024;
  constexpr size_t kAssumedHotRowsPerModel = 8;
  const size_t row_bytes = alphabet_size_ * sizeof(Entry);
  const size_t denom = std::max<size_t>(
      1, row_bytes * kAssumedHotRowsPerModel);
  return std::clamp<size_t>(kCacheBudgetBytes / denom, 8,
                            internal::kMaxBlockModels);
}

void FrozenBank::ScanAll(std::span<const SymbolId> symbols,
                         SimilarityResult* results) const {
  // Whole-bank scans count their kernel; candidate scans do not.
  if (!symbols.empty()) {
    static obs::Counter& scans_simd =
        obs::MetricsRegistry::Get().GetCounter("frozen_bank.scans_simd");
    static obs::Counter& scans_scalar =
        obs::MetricsRegistry::Get().GetCounter("frozen_bank.scans_scalar");
    (UseSimd() ? scans_simd : scans_scalar).Increment();
  }
  ScanBases(symbols, base32_.data(), num_models(), results);
}

void FrozenBank::ScanCandidates(std::span<const SymbolId> symbols,
                                std::span<const uint32_t> candidates,
                                SimilarityResult* results) const {
  const size_t k = candidates.size();
  if (k == 0) return;
  // The candidates' bases compacted into the dense array the block kernels
  // expect; thread_local because ScanCandidates runs concurrently on pool
  // workers.
  static thread_local std::vector<uint32_t> bases;
  bases.resize(k);
  for (size_t j = 0; j < k; ++j) bases[j] = base32_[candidates[j]];
  ScanBases(symbols, bases.data(), k, results);
}

void FrozenBank::ScanBases(std::span<const SymbolId> symbols,
                           const uint32_t* bases, size_t n,
                           SimilarityResult* results) const {
  if (symbols.empty()) {
    for (size_t j = 0; j < n; ++j) {
      results[j] = SimilarityResult{};
      results[j].log_sim = -std::numeric_limits<double>::infinity();
    }
    return;
  }
  // One shard-striped fetch_add per call — amortized over len × n scored
  // symbols, so the hot inner loops stay untouched.
  static obs::Counter& scan_symbols =
      obs::MetricsRegistry::Get().GetCounter("frozen_bank.scan_symbols");
  scan_symbols.Add(symbols.size() * n);
  auto* kernel = internal::ScanBlockScalar;
#ifdef CLUSEQ_HAVE_AVX2
  if (UseSimd()) kernel = internal::ScanBlockAvx2;
#endif
  const size_t block = BlockModels();
  for (size_t m0 = 0; m0 < n; m0 += block) {
    kernel(scan_data(), bases + m0, std::min(block, n - m0), symbols.data(),
           symbols.size(), results + m0);
  }
}

void FrozenBank::StepAll(SymbolId symbol, uint32_t* rows, double* y,
                         double* z, uint8_t* started) const {
  const size_t k = num_models();
  const Entry* entries = scan_data();
  for (size_t m = 0; m < k; ++m) {
    const Entry& e = entries[base_[m] + rows[m] + symbol];
    const double x = e.ratio;
    rows[m] = e.next;  // Stays model-local: survives arena re-packs.
    if (!started[m] || y[m] + x < x) {
      y[m] = x;
    } else {
      y[m] += x;
    }
    started[m] = 1;
    z[m] = std::max(z[m], y[m]);
  }
}

}  // namespace cluseq
