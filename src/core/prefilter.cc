#include "core/prefilter.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "obs/metrics.h"

namespace cluseq {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// The dense bound pass runs an exact integer Kadane over offset-u8
// columns whose per-position values reach kSignaturePosLevels, so
// lengths at or past 2^23 (where length · 191 could overflow an int32
// running sum) delegate to the exhaustive scan (exact, just not
// accelerated).
constexpr size_t kMaxBoundedLen = size_t{1} << 23;

// Per-thread scratch, reused across calls: every buffer only ever grows,
// so the steady state allocates nothing per sequence (pinned by the
// workspace-probe regression test).
struct Workspace {
  std::vector<uint32_t> seq_codes;   // per-position signature codes
  std::vector<const uint8_t*> cols;  // per-position dense column pointers
  std::vector<int32_t> acc;          // dense level-1 integer Kadane maxima
  std::vector<uint32_t> candidates;
  std::vector<SimilarityResult> tmp;
  std::vector<SimilarityResult> model_result;  // BestModel's exact scores
  std::vector<uint8_t> model_state;            // ModelState per model
};

Workspace& GetWorkspace() {
  static thread_local Workspace ws;
  return ws;
}

// Where a model stands in the residual sweep: still only bounded, scored
// exactly, or removed from consideration (BestModel's exclude_model).
enum ModelState : uint8_t { kPending = 0, kExact = 1, kExcluded = 2 };

// Geometry of the bank's signature tier, captured once per scan.
struct SigShape {
  size_t k = 0;
  size_t alphabet = 0;
  size_t code_space = 0;  // alphabet^order
  size_t leads = 0;       // positions capped by maxsym (min'd vs length)
};

SigShape ShapeOf(const FrozenBank& bank, size_t len) {
  SigShape s;
  s.k = bank.num_models();
  s.alphabet = bank.alphabet_size();
  s.code_space = bank.signature_code_space();
  s.leads = std::min(bank.signature_lead_positions(), len);
  return s;
}

// Records every position's signature code: position i ≥ leads packs its
// (order − 1) preceding symbols and s_i into one code, most significant
// first (for order 1 the code is just s_i); lead positions record the
// bare symbol, which indexes the maxsym tables.
void EncodePositions(std::span<const SymbolId> symbols, const SigShape& s,
                     Workspace& ws) {
  ws.seq_codes.clear();
  const size_t mod = s.code_space / s.alphabet;  // alphabet^(order − 1)
  size_t code = 0;
  for (size_t i = 0; i < s.leads; ++i) {
    code = code * s.alphabet + symbols[i];
    ws.seq_codes.push_back(symbols[i]);
  }
  for (size_t i = s.leads; i < symbols.size(); ++i) {
    code = (code % mod) * s.alphabet + symbols[i];
    ws.seq_codes.push_back(static_cast<uint32_t>(code));
  }
}

// Factor applied when converting an integer bound accumulator back to a
// score: the tiny relative inflation keeps the final double ≥ the exact
// real product scale · acc (the multiply itself rounds), so quantized
// bounds never undercut the true score by a last-ulp accident.
double BoundScale(const FrozenBank& bank) {
  return bank.signature_quant_scale() * (1.0 + 0x1p-40);
}

// Level 1, dense: one exact integer Kadane per model over the bank's
// code-major signed offset-u8 cap columns. Each position points at its
// column (the per-symbol maxima for the leads, the packed code's caps
// after), and SignatureKadaneDense fills ws.acc[m] with the max window
// sum of (entry − zero point) — a true best-window bound, not a
// positional sum, so a model whose good caps never chain into one
// window dies right here instead of surviving into the residual pass.
// The column walk vectorizes (AVX2 when the CPU has it) at one table
// byte per (position, model) — this is the whole per-scan O(k) front;
// everything after it is output-sized.
void ComputeAllBounds(const FrozenBank& bank, const SigShape& s,
                      Workspace& ws) {
  const size_t len = ws.seq_codes.size();
  ws.cols.resize(len);
  for (size_t i = 0; i < len; ++i) {
    ws.cols[i] =
        i < s.leads ? bank.signature_pos_max_symbol_q(ws.seq_codes[i]).data()
                    : bank.signature_pos_cap_q(ws.seq_codes[i]).data();
  }
  ws.acc.resize(s.k);
  bank.SignatureKadaneDense(ws.cols.data(), len, ws.acc.data());
}

// Converts a dense integer Kadane maximum to an admissible double
// bound. A nonpositive maximum means every window's rounded-up cap sum
// is ≤ 0, which dominates the true Z per position, so 0.0 is already a
// valid bound (the true max window can be negative; the scan kernels'
// reported score never exceeds it). A positive maximum scales onto the
// shared grid — the table entries round the true caps up at build time
// (NaN lands on the top code, which dominates everything), the
// BoundScale multiply rounds up, and the pad absorbs the scan kernels'
// own FP summation order — so no bound can undercut the true score.
inline double UbFromZ(int32_t z, double up) {
  if (z <= 0) return 0.0;
  const double base = static_cast<double>(z) * up;
  return base + 1e-9 * (1.0 + base);
}

// True when a bound still beats the best exactly-known score: strictly
// for the threshold scan, or on ties too for the argmax (a model whose
// bound ties the running best could attain it and win the
// ascending-index tie-break).
inline bool Beats(double bound, double best, bool strict) {
  return strict ? bound > best : bound >= best;
}

// Smallest integer Kadane maximum whose converted bound Beats `value`.
// UbFromZ is monotone nondecreasing in z, so one integer compare against
// this floor replays the double test bit-exactly — the O(k) passes over
// the bounds stay in int32 and never touch the result slots. Values even
// a zero bound beats return INT32_MIN (everything passes); values no
// representable bound reaches return INT32_MAX (a real maximum is capped
// by len · kSignaturePosLevels ≪ 2^31, so nothing passes).
int32_t ZBoundFloor(double value, double up, bool strict) {
  if (Beats(0.0, value, strict)) return std::numeric_limits<int32_t>::min();
  const double approx = value / up;
  if (!(approx < 2147483000.0)) return std::numeric_limits<int32_t>::max();
  // Start safely below the crossover (the pad shifts it by at most a few
  // units even at the int32 extreme) and walk up to the first pass.
  int64_t g = static_cast<int64_t>(approx) - 8;
  if (g < 1) g = 1;
  while (!Beats(UbFromZ(static_cast<int32_t>(g), up), value, strict)) ++g;
  return static_cast<int32_t>(g);
}

// Level 1.5: the full-length Kadane over one model's fine caps — the
// unquantized per-symbol maxima for the leads, the model-major int16 tier
// caps (a grid ~50× finer than the dense pass's u8 scale) after. It is
// the same max-window recurrence the §4.3 DP runs, over values that
// dominate the DP's terms position by position, so it is the tightest
// bound the signature tier can express. The scan kernels make the same
// restart/extend and Z-update decisions (an ordered compare is false on
// NaN, keeping `extend`), so a NaN per-symbol maximum freezes the window
// here exactly where it freezes theirs; a NaN or nonpositive maximum
// clamps to 0, as the dense bound does. q · kSignatureQuantStep is exact
// in double, and the pad absorbs the FP rounding of the lead terms
// against the kernels' own summation; it is a deterministic function of
// the operands, so results stay thread-count invariant.
double FineKadaneBound(const FrozenBank& bank, size_t m, const SigShape& s,
                       const Workspace& ws) {
  const double* maxsym = bank.signature_max_symbol(m).data();
  const int16_t* cap = bank.signature_cap_q(m).data();
  const uint32_t* codes = ws.seq_codes.data();
  const size_t len = ws.seq_codes.size();
  double y = maxsym[codes[0]];  // i = 0 peeled: Ŷ_0 = Ẑ_0 = X̂_0
  double z = y;
  for (size_t i = 1; i < len; ++i) {
    const double x = i < s.leads ? maxsym[codes[i]]
                                 : static_cast<double>(cap[codes[i]]) *
                                       FrozenBank::kSignatureQuantStep;
    const double extend = y + x;
    y = extend < x ? x : extend;
    if (y > z) z = y;
  }
  const double ub = z > 0.0 ? z : 0.0;
  return ub + 1e-9 * (1.0 + ub);
}

// Work done by one residual sweep, for the callers' stats.
struct SweepCounts {
  size_t refined_away = 0;  // dropped by the level-1.5 refine
  size_t rescans = 0;       // exact scans the sweep ran
};

// The residual sweep both scans share: it makes *best the exact maximum
// over every model still kPending in ws.model_state, scanning as few of
// them exactly as the bounds allow. Exact scores land in results[m] (the
// model turns kExact); a model refined away gets its refined bound there,
// which does not beat *best. A pending model the dense floor passes over
// keeps its slot, so a caller whose recorded bounds never exceed the dense
// ones ends with no slot above the exact maximum.
//
// When nothing is exactly known yet (*best = -inf), the single
// highest-bound pending model is scanned first: it is the likeliest true
// max, and the score it establishes retires almost every remaining bound
// before the sweep starts. The argmax runs over the raw integer maxima
// (conversion is monotone, so this is the highest bound too); ties break
// to the lowest index, so the choice is deterministic.
//
// Then an ascending-index sweep visits every pending model whose dense
// bound still Beats the best, refines it with the level-1.5 Kadane, and
// drops it if that no longer Beats the best; survivors batch into
// growing chunks scanned exactly. The dense bound is tight enough that
// almost nothing survives, so a plain index sweep replaces a
// bound-ordered heap: it is deterministic by construction, and *best
// only ever grows, so a model passed over earlier stays correctly passed
// over. The true-max model cannot be dropped (its bound ≥ its score ≥
// *best), so the final max is exact. Chunks grow 4 → 8 → 16 because the
// first chunk is filled against the loosest best and every exact score
// it produces tightens the test for the rest.
SweepCounts ResidualSweep(const FrozenBank& bank,
                          std::span<const SymbolId> symbols,
                          const SigShape& s, double up, bool strict,
                          Workspace& ws, SimilarityResult* results,
                          double* best, size_t* best_m) {
  const size_t k = s.k;
  std::vector<uint8_t>& state = ws.model_state;
  SweepCounts counts;
  const auto take = [&](size_t m, const SimilarityResult& r) {
    results[m] = r;
    state[m] = kExact;
    ++counts.rescans;
    if (r.log_sim > *best) {
      *best = r.log_sim;
      *best_m = m;
    }
  };

  if (*best == kNegInf) {
    size_t m0 = static_cast<size_t>(-1);
    int32_t z0 = std::numeric_limits<int32_t>::min();
    for (size_t m = 0; m < k; ++m) {
      if (state[m] == kPending && ws.acc[m] > z0) {
        z0 = ws.acc[m];
        m0 = m;
      }
    }
    if (m0 != static_cast<size_t>(-1)) {
      const uint32_t c0 = static_cast<uint32_t>(m0);
      SimilarityResult r0;
      bank.ScanCandidates(symbols, {&c0, 1}, &r0);
      take(m0, r0);
    }
  }

  size_t chunk_cap = 4;
  size_t sweep = 0;
  // A pending model's bound is at most UbFromZ(acc[m]), so the "bound
  // still beats the best" test collapses to one int32 compare against a
  // floor recomputed whenever the best grows.
  int32_t z_floor = ZBoundFloor(*best, up, strict);
  while (sweep < k) {
    ws.candidates.clear();
    for (; sweep < k && ws.candidates.size() < chunk_cap; ++sweep) {
      const size_t m = sweep;
      if (state[m] != kPending || ws.acc[m] < z_floor) continue;
      const double ub = FineKadaneBound(bank, m, s, ws);
      if (!Beats(ub, *best, strict)) {
        results[m] = SimilarityResult{ub, 0, 0};
        ++counts.refined_away;
        continue;
      }
      ws.candidates.push_back(static_cast<uint32_t>(m));
    }
    if (ws.candidates.empty()) continue;  // everything refined away
    ws.tmp.resize(ws.candidates.size());
    bank.ScanCandidates(symbols, ws.candidates, ws.tmp.data());
    for (size_t j = 0; j < ws.candidates.size(); ++j) {
      take(ws.candidates[j], ws.tmp[j]);
    }
    z_floor = ZBoundFloor(*best, up, strict);
    chunk_cap = std::min<size_t>(chunk_cap * 2, 16);
  }
  return counts;
}

void RecordMetrics(const PrefilterScanStats& stats) {
  static obs::Counter& skipped = obs::MetricsRegistry::Get().GetCounter(
      "prefilter.candidates_skipped");
  static obs::Counter& l15 = obs::MetricsRegistry::Get().GetCounter(
      "prefilter.l15_pruned");
  if (stats.candidates_skipped > 0) skipped.Add(stats.candidates_skipped);
  if (stats.l15_pruned > 0) l15.Add(stats.l15_pruned);
}

// Slack of the level-1 bound on the best-scoring model, observed once per
// scan — cheap, and enough to judge how tight the caps are in practice.
void RecordSlack(double bound, double exact_value) {
  if (!std::isfinite(bound) || !std::isfinite(exact_value)) return;
  static constexpr double kSlackBounds[] = {0.5, 1.0, 2.0, 4.0,
                                            8.0, 16.0, 32.0, 64.0};
  static obs::Histogram& slack = obs::MetricsRegistry::Get().GetHistogram(
      "prefilter.bound_slack", kSlackBounds);
  slack.Observe(bound - exact_value);
}

}  // namespace

void ScanPrefilter::ScanAllWithThreshold(std::span<const SymbolId> symbols,
                                         double log_t,
                                         SimilarityResult* results,
                                         PrefilterScanStats* stats) const {
  const size_t k = bank_->num_models();
  PrefilterScanStats local;
  local.models_total = k;
  if (k == 0) {
    if (stats) *stats = local;
    return;
  }
  if (!prune_ || symbols.empty() || !(log_t > 0.0) ||
      symbols.size() >= kMaxBoundedLen) {
    // The oracle mode, empty sequences (they score -inf everywhere), a
    // nonpositive threshold (it can never beat a bound — all bounds are
    // ≥ 0), and pathological lengths (they could overflow the int32
    // Kadane sums): exhaustive is exact and the right call in all four.
    bank_->ScanAll(symbols, results);
    if (stats) *stats = local;
    return;
  }

  Workspace& ws = GetWorkspace();
  const SigShape s = ShapeOf(*bank_, symbols.size());
  EncodePositions(symbols, s, ws);
  ComputeAllBounds(*bank_, s, ws);

  // Levels 1 + 1.5: drop models whose bound cannot reach the threshold,
  // recording the tightest bound known — strictly below log_t, so
  // downstream join tests behave exactly as with the true (smaller)
  // scores. Coarse-bound survivors are refined by the level-1.5 Kadane;
  // the pruned majority costs one conversion, one double compare, and one
  // slot write each.
  const double up = BoundScale(*bank_);
  ws.candidates.clear();
  for (size_t m = 0; m < k; ++m) {
    double ub = UbFromZ(ws.acc[m], up);
    if (ub >= log_t) {
      ub = FineKadaneBound(*bank_, m, s, ws);
      if (ub >= log_t) {
        ws.candidates.push_back(static_cast<uint32_t>(m));
        continue;
      }
      ++local.l15_pruned;
    }
    results[m] = SimilarityResult{ub, 0, 0};
  }
  local.candidates_skipped = k - ws.candidates.size();

  // The survivors run the exact sparse DP.
  double best = kNegInf;
  size_t best_m = static_cast<size_t>(-1);
  std::vector<uint8_t>& state = ws.model_state;
  state.assign(k, kPending);
  if (!ws.candidates.empty()) {
    ws.tmp.resize(ws.candidates.size());
    bank_->ScanCandidates(symbols, ws.candidates, ws.tmp.data());
    for (size_t j = 0; j < ws.candidates.size(); ++j) {
      const size_t m = ws.candidates[j];
      results[m] = ws.tmp[j];
      state[m] = kExact;
      if (ws.tmp[j].log_sim > best) {
        best = ws.tmp[j].log_sim;
        best_m = m;
      }
    }
  }

  // The per-sequence maximum must be exact even when it falls below the
  // threshold (best_log_sim is a reported output). A model the sweep
  // re-scans scores ≤ its bound < log t, so no join decision changes;
  // one it refines away records a bound ≤ the best (so < log t when
  // nothing joined, and < log t by the gate otherwise), and one it passes
  // over keeps its gate bound, which is ≤ its dense bound ≤ the best.
  // Sequences that joined
  // something rarely get past the dense floor at all: the best is ≥ log t
  // then, and every pruned bound is < log t.
  local.residual_rescans =
      ResidualSweep(*bank_, symbols, s, up, /*strict=*/true, ws, results,
                    &best, &best_m)
          .rescans;

  if (best_m != static_cast<size_t>(-1)) {
    RecordSlack(UbFromZ(ws.acc[best_m], up), best);
  }
  RecordMetrics(local);
  if (stats) *stats = local;
}

int32_t ScanPrefilter::BestModel(std::span<const SymbolId> symbols,
                                 double* best_log_sim,
                                 PrefilterScanStats* stats,
                                 size_t exclude_model) const {
  const size_t k = bank_->num_models();
  PrefilterScanStats local;
  local.models_total = k;
  double best = kNegInf;
  int32_t best_pos = -1;
  if (k == 0 || symbols.empty() || (k == 1 && exclude_model == 0)) {
    // Empty sequences score -inf everywhere; the exhaustive first-strict-max
    // loop never fires on -inf, so the answer is "no model" either way.
    if (best_log_sim) *best_log_sim = best;
    if (stats) *stats = local;
    return best_pos;
  }
  if (!prune_ || symbols.size() >= kMaxBoundedLen) {
    // The oracle mode, and pathological lengths (they could overflow the
    // int32 Kadane sums): the exhaustive scan plus the first-strict-max
    // argmax loop.
    Workspace& ws = GetWorkspace();
    ws.tmp.resize(k);
    bank_->ScanAll(symbols, ws.tmp.data());
    for (size_t m = 0; m < k; ++m) {
      if (m == exclude_model) continue;
      if (ws.tmp[m].log_sim > best) {
        best = ws.tmp[m].log_sim;
        best_pos = static_cast<int32_t>(m);
      }
    }
    if (best_log_sim) *best_log_sim = best;
    if (stats) *stats = local;
    return best_pos;
  }

  Workspace& ws = GetWorkspace();
  const SigShape s = ShapeOf(*bank_, symbols.size());
  EncodePositions(symbols, s, ws);
  ComputeAllBounds(*bank_, s, ws);
  const double up = BoundScale(*bank_);

  // Every model starts pending, so the sweep scans the highest-bound one
  // first (usually the argmax) and then visits the rest against its
  // score. Ties with the running best must still be scanned — they could
  // win the ascending-index tie-break — hence the non-strict rule.
  std::vector<uint8_t>& state = ws.model_state;
  state.assign(k, kPending);
  if (exclude_model < k) state[exclude_model] = kExcluded;
  ws.model_result.resize(k);
  size_t best_m = static_cast<size_t>(-1);
  local.l15_pruned =
      ResidualSweep(*bank_, symbols, s, up, /*strict=*/false, ws,
                    ws.model_result.data(), &best, &best_m)
          .refined_away;
  const size_t eligible = exclude_model < k ? k - 1 : k;
  local.candidates_skipped =
      eligible -
      static_cast<size_t>(std::count(state.begin(), state.end(), kExact));

  // First model (ascending index) whose exact score equals the exact max —
  // identical to the exhaustive first-strict-max loop, which also leaves
  // best_pos at -1 when every score is -inf (or NaN).
  if (best_m != static_cast<size_t>(-1)) {
    for (size_t m = 0; m < k; ++m) {
      if (state[m] == kExact && ws.model_result[m].log_sim == best) {
        best_pos = static_cast<int32_t>(m);
        break;
      }
    }
    RecordSlack(UbFromZ(ws.acc[best_m], up), best);
  }
  RecordMetrics(local);
  if (best_log_sim) *best_log_sim = best;
  if (stats) *stats = local;
  return best_pos;
}

PrefilterWorkspaceProbe ScanPrefilter::ProbeThreadWorkspaceForTesting() {
  Workspace& ws = GetWorkspace();
  PrefilterWorkspaceProbe p;
  p.codes = ws.seq_codes.data();
  p.cols = ws.cols.data();
  p.acc = ws.acc.data();
  p.tmp = ws.tmp.data();
  return p;
}

}  // namespace cluseq
