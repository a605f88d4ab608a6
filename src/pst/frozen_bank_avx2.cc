// AVX2 kernels: the §4.3 block scan (4 models per vector register group,
// several groups advanced in lockstep per symbol) and the prefilter's
// dense level-1 Kadane (at the end of the file).
//
// This TU is compiled with -mavx2 and only referenced behind the runtime
// __builtin_cpu_supports("avx2") dispatch in FrozenBank, so the rest of
// the library keeps the portable baseline ISA.
//
// The per-quad DP is a dependent chain — the gathered transition names the
// next row, so each symbol costs a full gather latency before the next one
// can issue. One quad alone is therefore latency-bound. Interleaving
// kQuads independent quads inside the same symbol loop overlaps their
// chains: while quad 0 waits on its transition gather, quads 1..3 issue
// theirs, turning the scan throughput-bound instead. The per-symbol
// broadcasts (symbol, i, i + 1) are hoisted and shared across quads.
//
// Bit-for-bit equivalence with the scalar DP is a hard contract here, so
// the vector code mirrors the scalar control flow rather than using maxpd:
//   * i = 0 is peeled, exactly like the scalar kernel, because the
//     reference recurrence never evaluates Y_{-1} + X_0 (which matters when
//     X_0 is ±inf and the sum would be NaN).
//   * Restart/extend and Z-update decisions use ordered-quiet compares
//     (_CMP_LT_OQ / _CMP_GT_OQ) + blends. An ordered compare is false on
//     NaN, which reproduces the scalar `if (extend < x)` / `if (y > z)`
//     branches' NaN behaviour; _mm256_max_pd would not (it returns the
//     second operand on NaN).
//   * The begin/end bookkeeping lives in int64 lanes blended through the
//     same double masks (castpd <-> castsi256 is a bitwise reinterpret).
// The per-symbol arithmetic is a single add — no FMA contraction is
// possible, so the vector sums are the same IEEE operations in the same
// order as the scalar ones. Model lanes never interact, so the group width
// cannot change results either.

#include "pst/frozen_bank.h"

#ifdef CLUSEQ_HAVE_AVX2

#include <immintrin.h>

#include <cstdint>
#include <limits>

namespace cluseq {
namespace internal {

namespace {

/// Gathers addressing the interleaved 16-byte Entry arena: entry g keeps
/// its ratio double at byte offset 16g (scaled index 2g · 8) and its next
/// word at 16g + 8 (scaled index (4g + 2) · 4); Assemble bounds g so the
/// scaled signed 32-bit indices cannot overflow. Both use a zeroed merge
/// source with an all-ones mask: identical lanes to the plain gather
/// intrinsics, but without GCC's uninitialized-__Y warning for the
/// undefined-source forms.
inline __m256d GatherRatio(const FrozenBank::Entry* entries, __m128i ventry) {
  return _mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), reinterpret_cast<const double*>(entries),
      _mm_slli_epi32(ventry, 1),
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
}

inline __m128i GatherNext(const FrozenBank::Entry* entries, __m128i ventry) {
  const __m128i vindex =
      _mm_add_epi32(_mm_slli_epi32(ventry, 2), _mm_set1_epi32(2));
  return _mm_mask_i32gather_epi32(_mm_setzero_si128(),
                                  reinterpret_cast<const int*>(entries),
                                  vindex, _mm_set1_epi32(-1), 4);
}

/// kQuads groups of 4 models advanced in lockstep over the whole stream.
template <int kQuads>
void ScanGroupAvx2(const FrozenBank::Entry* entries, const uint32_t* bases,
                   const SymbolId* symbols, size_t len,
                   SimilarityResult* out) {
  const __m256d vneg_inf =
      _mm256_set1_pd(-std::numeric_limits<double>::infinity());

  __m128i vbase[kQuads];
  __m128i vrow[kQuads];
  __m256d vy[kQuads];
  __m256d vz[kQuads];
  __m256i vybegin[kQuads];
  __m256i vbbegin[kQuads];
  __m256i vbend[kQuads];
  for (int q = 0; q < kQuads; ++q) {
    vbase[q] =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bases + 4 * q));
    vrow[q] = vbase[q];  // Root state: model-local row 0.
    vz[q] = vneg_inf;
    vybegin[q] = _mm256_setzero_si256();
    vbbegin[q] = _mm256_setzero_si256();
    vbend[q] = _mm256_setzero_si256();
  }

  // i = 0 peeled: Y_0 = X_0 unconditionally.
  {
    const __m128i vs = _mm_set1_epi32(symbols[0]);
    const __m256i vone = _mm256_set1_epi64x(1);
    for (int q = 0; q < kQuads; ++q) {
      const __m128i vg = _mm_add_epi32(vrow[q], vs);
      const __m256d vx = GatherRatio(entries, vg);
      const __m128i vnext = GatherNext(entries, vg);
      vrow[q] = _mm_add_epi32(vbase[q], vnext);
      vy[q] = vx;
      const __m256d gt = _mm256_cmp_pd(vy[q], vz[q], _CMP_GT_OQ);
      vz[q] = _mm256_blendv_pd(vz[q], vy[q], gt);
      vbend[q] = _mm256_castpd_si256(_mm256_blendv_pd(
          _mm256_castsi256_pd(vbend[q]), _mm256_castsi256_pd(vone), gt));
      // vbbegin stays 0: the segment starting the stream begins at 0.
    }
  }

  for (size_t i = 1; i < len; ++i) {
    const __m128i vs = _mm_set1_epi32(symbols[i]);
    const __m256i vi = _mm256_set1_epi64x(static_cast<long long>(i));
    const __m256i vend = _mm256_set1_epi64x(static_cast<long long>(i + 1));
    for (int q = 0; q < kQuads; ++q) {
      const __m128i vg = _mm_add_epi32(vrow[q], vs);
      const __m256d vx = GatherRatio(entries, vg);
      const __m128i vnext = GatherNext(entries, vg);
      vrow[q] = _mm_add_epi32(vbase[q], vnext);

      const __m256d vextend = _mm256_add_pd(vy[q], vx);
      const __m256d restart = _mm256_cmp_pd(vextend, vx, _CMP_LT_OQ);
      vy[q] = _mm256_blendv_pd(vextend, vx, restart);
      vybegin[q] = _mm256_castpd_si256(_mm256_blendv_pd(
          _mm256_castsi256_pd(vybegin[q]), _mm256_castsi256_pd(vi), restart));

      const __m256d gt = _mm256_cmp_pd(vy[q], vz[q], _CMP_GT_OQ);
      vz[q] = _mm256_blendv_pd(vz[q], vy[q], gt);
      vbbegin[q] = _mm256_castpd_si256(
          _mm256_blendv_pd(_mm256_castsi256_pd(vbbegin[q]),
                           _mm256_castsi256_pd(vybegin[q]), gt));
      vbend[q] = _mm256_castpd_si256(_mm256_blendv_pd(
          _mm256_castsi256_pd(vbend[q]), _mm256_castsi256_pd(vend), gt));
    }
  }

  alignas(32) double z_out[4];
  alignas(32) int64_t begin_out[4];
  alignas(32) int64_t end_out[4];
  for (int q = 0; q < kQuads; ++q) {
    _mm256_store_pd(z_out, vz[q]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(begin_out), vbbegin[q]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(end_out), vbend[q]);
    for (size_t m = 0; m < 4; ++m) {
      out[4 * q + m].log_sim = z_out[m];
      out[4 * q + m].best_begin = static_cast<size_t>(begin_out[m]);
      out[4 * q + m].best_end = static_cast<size_t>(end_out[m]);
    }
  }
}

}  // namespace

void ScanBlockAvx2(const FrozenBank::Entry* entries, const uint32_t* bases,
                   size_t num_models, const SymbolId* symbols, size_t len,
                   SimilarityResult* out) {
  // 16 models per group is the measured sweet spot on big banks: fewer
  // leaves the gather chains latency-bound (8-model groups run ~40% slower
  // at k = 64), more lets the group's recurrent row set outgrow L2 so hot
  // rows get evicted between touches (64-model groups lose ~15%).
  size_t m = 0;
  for (; m + 16 <= num_models; m += 16) {
    ScanGroupAvx2<4>(entries, bases + m, symbols, len, out + m);
  }
  for (; m + 8 <= num_models; m += 8) {
    ScanGroupAvx2<2>(entries, bases + m, symbols, len, out + m);
  }
  for (; m + 4 <= num_models; m += 4) {
    ScanGroupAvx2<1>(entries, bases + m, symbols, len, out + m);
  }
  if (m < num_models) {
    ScanBlockScalar(entries, bases + m, num_models - m, symbols, len,
                    out + m);
  }
}

namespace {

/// Offset-u8 cap bytes at p widened to signed Kadane terms: 16 int16
/// lanes, or 8 int32 lanes.
template <bool kI16>
inline __m256i KadaneTerms(const uint8_t* p) {
  if constexpr (kI16) {
    return _mm256_sub_epi16(
        _mm256_cvtepu8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))),
        _mm256_set1_epi16(FrozenBank::kSignatureZeroPoint));
  } else {
    return _mm256_sub_epi32(
        _mm256_cvtepu8_epi32(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))),
        _mm256_set1_epi32(FrozenBank::kSignatureZeroPoint));
  }
}

/// kStripes adjacent stripes of kLanes models, m onward, walk every
/// position with their Kadane state (y = best suffix sum, b = best window
/// sum) held in registers.
template <int kStripes, bool kI16>
void KadaneStripes(const uint8_t* const* cols, size_t len, size_t m,
                   int32_t* z) {
  constexpr int kLanes = kI16 ? 16 : 8;
  __m256i y[kStripes];
  __m256i b[kStripes];
  for (int s = 0; s < kStripes; ++s) {
    y[s] = KadaneTerms<kI16>(cols[0] + m + s * kLanes);
    b[s] = y[s];
  }
  for (size_t i = 1; i < len; ++i) {
    const uint8_t* col = cols[i] + m;
    for (int s = 0; s < kStripes; ++s) {
      const __m256i x = KadaneTerms<kI16>(col + s * kLanes);
      if constexpr (kI16) {
        y[s] = _mm256_max_epi16(_mm256_add_epi16(y[s], x), x);
        b[s] = _mm256_max_epi16(b[s], y[s]);
      } else {
        y[s] = _mm256_max_epi32(_mm256_add_epi32(y[s], x), x);
        b[s] = _mm256_max_epi32(b[s], y[s]);
      }
    }
  }
  for (int s = 0; s < kStripes; ++s) {
    int32_t* out = z + m + s * kLanes;
    if constexpr (kI16) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                          _mm256_cvtepi16_epi32(_mm256_castsi256_si128(b[s])));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + 8),
          _mm256_cvtepi16_epi32(_mm256_extracti128_si256(b[s], 1)));
    } else {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), b[s]);
    }
  }
}

}  // namespace

void KadaneColumnsAvx2(const uint8_t* const* cols, size_t len, size_t n,
                       int32_t* z) {
  // Stripe-outer: a group of model stripes walks every position with its
  // state pinned in registers — zero state traffic, so the cost per
  // position is the y-recurrence dependency chain (add + max), overlapped
  // across the group's independent stripes. A 64-model int16 group reads
  // one whole cache line of each column per pass. This shape serves every
  // table size (DESIGN.md §14 records the ablation against a
  // position-outer loop).
  //
  // int16 lanes are exact while the largest possible running sum
  // len · kSignaturePosLevels stays under 2^15 (the negative side cannot
  // underflow: the recurrence keeps y ≥ x ≥ −64). Longer sequences run
  // the int32 lanes — same recurrence, same results.
  constexpr size_t kI16MaxLen =
      32767 / static_cast<size_t>(FrozenBank::kSignaturePosLevels);  // 171
  size_t m = 0;
  if (len <= kI16MaxLen) {
    for (; m + 64 <= n; m += 64) KadaneStripes<4, true>(cols, len, m, z);
    for (; m + 16 <= n; m += 16) KadaneStripes<1, true>(cols, len, m, z);
  } else {
    for (; m + 32 <= n; m += 32) KadaneStripes<4, false>(cols, len, m, z);
    for (; m + 8 <= n; m += 8) KadaneStripes<1, false>(cols, len, m, z);
  }
  KadaneColumnsScalar(cols, len, m, n, z);
}

}  // namespace internal
}  // namespace cluseq

#endif  // CLUSEQ_HAVE_AVX2
