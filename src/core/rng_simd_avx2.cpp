// AVX2 tier: the CounterRng double-round mix over 4 counter lanes per
// step. Compiled with -mavx2 -ffp-contract=off (this TU only — see
// CMakeLists.txt); everywhere else this file is a nullptr stub, and the
// dispatcher additionally checks cpuid before handing these kernels out.
//
// Bit-identity notes (vs the scalar kernels in rng_simd.cpp):
//  - the hash is integer arithmetic mod 2^64, identical per lane; AVX2
//    lacks a 64-bit low multiply, so one is synthesized from 32-bit
//    partial products (exact mod 2^64);
//  - `draw >> 11 < thr` compares run signed (_mm256_cmpgt_epi64): both
//    sides are < 2^63, so signed == unsigned;
//  - u64 -> double uses the 2^52/2^84 magic-constant trick, exact for
//    values < 2^53 (ours are 53-bit draws), matching the scalar
//    static_cast exactly;
//  - the jittered band math is explicit mul/sub/add intrinsics — never
//    contracted — matching the scalar kernel's -ffp-contract=off ops.
#include "core/rng_simd.hpp"

#if defined(__AVX2__) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <algorithm>

namespace lowsense::simd::detail {
namespace {

inline __m256i set1_u64(std::uint64_t x) noexcept {
  return _mm256_set1_epi64x(static_cast<long long>(x));
}

/// 64-bit low multiply from 32-bit partial products (exact mod 2^64):
/// a*b = lo(a)*lo(b) + ((hi(a)*lo(b) + lo(a)*hi(b)) << 32).
inline __m256i mul64(__m256i a, __m256i b) noexcept {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                                         _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

/// SplitMix64 finalizer (CounterRng::mix) on 4 lanes.
inline __m256i mix4(__m256i z) noexcept {
  z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)), set1_u64(kMixMul1));
  z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)), set1_u64(kMixMul2));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

/// Exact u64 -> double for inputs < 2^53 (Mysticial's blend trick): build
/// (2^52 + lo32) and (2^84 + hi32*2^32) exactly, then cancel the bias.
inline __m256d u64_to_pd(__m256i x) noexcept {
  const __m256i hi = _mm256_or_si256(_mm256_srli_epi64(x, 32),
                                     _mm256_castpd_si256(_mm256_set1_pd(0x1.0p84)));
  const __m256i lo =
      _mm256_blend_epi32(x, _mm256_castpd_si256(_mm256_set1_pd(0x1.0p52)), 0xaa);
  const __m256d f =
      _mm256_sub_pd(_mm256_castsi256_pd(hi), _mm256_set1_pd(0x1.0p84 + 0x1.0p52));
  return _mm256_add_pd(f, _mm256_castsi256_pd(lo));
}

// Counter-stage offsets: lane i of a step holds key + kCounterGamma *
// (c + i + 1) = base + i*kCounterGamma with base advanced by
// 4*kCounterGamma per step (wrapping uint64, same as scalar mod 2^64).
inline __m256i counter_stage(std::uint64_t base) noexcept {
  return _mm256_add_epi64(set1_u64(base),
                          _mm256_setr_epi64x(0, static_cast<long long>(kCounterGamma),
                                             static_cast<long long>(2 * kCounterGamma),
                                             static_cast<long long>(3 * kCounterGamma)));
}

inline std::uint64_t hsum4(__m256i v) noexcept {
  const __m128i s =
      _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(s)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(s, 1));
}

// Cap checks are amortized per 64-step (256-coin) chunk instead of per
// step: counting is monotone, so min(total, cap) is granularity-
// independent. Inside a chunk, successes accumulate as negated compare
// masks (each hit lane is -1), summed horizontally once per chunk — no
// movemask/popcount/scalar add on the hot path.
constexpr std::uint64_t kChunkSteps = 64;

std::uint64_t count_span_avx2(std::uint64_t key, std::uint64_t lo, std::uint64_t hi,
                              std::uint64_t thr, std::uint64_t lane,
                              std::uint64_t cap) noexcept {
  const std::uint64_t len = hi - lo + 1;
  if (len == 0) return scalar_kernels().count_span(key, lo, hi, thr, lane, cap);
  const __m256i lane_stage = set1_u64(kLaneGamma * (lane + 1));
  const __m256i thr_v = set1_u64(thr);
  const __m256i ctr_step = set1_u64(4 * kCounterGamma);
  __m256i ctr = counter_stage(key + kCounterGamma * (lo + 1));
  std::uint64_t n = 0;
  std::uint64_t i = 0;
  while (n < cap && len - i >= 4) {
    const std::uint64_t steps = std::min<std::uint64_t>((len - i) / 4, kChunkSteps);
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    std::uint64_t s = 0;
    // 2-wide unroll: two independent mix chains per iteration keep the
    // multiply ports busy across the mul64 latency chain.
    for (; s + 2 <= steps; s += 2) {
      const __m256i ctr1 = _mm256_add_epi64(ctr, ctr_step);
      const __m256i d0 = mix4(_mm256_add_epi64(mix4(ctr), lane_stage));
      const __m256i d1 = mix4(_mm256_add_epi64(mix4(ctr1), lane_stage));
      acc0 = _mm256_sub_epi64(acc0, _mm256_cmpgt_epi64(thr_v, _mm256_srli_epi64(d0, 11)));
      acc1 = _mm256_sub_epi64(acc1, _mm256_cmpgt_epi64(thr_v, _mm256_srli_epi64(d1, 11)));
      ctr = _mm256_add_epi64(ctr1, ctr_step);
    }
    for (; s < steps; ++s) {
      const __m256i draws = mix4(_mm256_add_epi64(mix4(ctr), lane_stage));
      acc0 = _mm256_sub_epi64(acc0, _mm256_cmpgt_epi64(thr_v, _mm256_srli_epi64(draws, 11)));
      ctr = _mm256_add_epi64(ctr, ctr_step);
    }
    n += hsum4(_mm256_add_epi64(acc0, acc1));
    i += steps * 4;
  }
  if (n < cap && i < len) {
    n += scalar_kernels().count_span(key, lo + i, hi, thr, lane, cap - n);
  }
  return n < cap ? n : cap;
}

std::uint64_t jittered_band_span_avx2(std::uint64_t key, std::uint64_t lo, std::uint64_t hi,
                                      double contention, double band_lo, double band_hi,
                                      double jitter, std::uint64_t thr,
                                      std::uint64_t cap) noexcept {
  const std::uint64_t len = hi - lo + 1;
  if (len == 0) {
    return scalar_kernels().jittered_band_span(key, lo, hi, contention, band_lo, band_hi,
                                               jitter, thr, cap);
  }
  const __m256i lane_coin = set1_u64(kLaneGamma);       // lane 0
  const __m256i lane_lo = set1_u64(2 * kLaneGamma);     // lane 1
  const __m256i lane_hi_j = set1_u64(3 * kLaneGamma);   // lane 2
  const __m256i thr_v = set1_u64(thr);
  const __m256d scale = _mm256_set1_pd(0x1.0p-53);
  const __m256d jitter_v = _mm256_set1_pd(jitter);
  const __m256d band_lo_v = _mm256_set1_pd(band_lo);
  const __m256d band_hi_v = _mm256_set1_pd(band_hi);
  const __m256d cont_v = _mm256_set1_pd(contention);
  const __m256i ctr_step = set1_u64(4 * kCounterGamma);
  __m256i ctr = counter_stage(key + kCounterGamma * (lo + 1));
  std::uint64_t n = 0;
  std::uint64_t i = 0;
  while (n < cap && len - i >= 4) {
    const std::uint64_t steps = std::min<std::uint64_t>((len - i) / 4, kChunkSteps);
    __m256i acc = _mm256_setzero_si256();
    for (std::uint64_t s = 0; s < steps; ++s) {
      // The counter-stage mix h is shared by all three lanes of a slot:
      // 4 mixes per slot-quad instead of 6.
      const __m256i h = mix4(ctr);
      const __m256d u_lo =
          _mm256_mul_pd(u64_to_pd(_mm256_srli_epi64(mix4(_mm256_add_epi64(h, lane_lo)), 11)),
                        scale);
      const __m256d u_hi =
          _mm256_mul_pd(u64_to_pd(_mm256_srli_epi64(mix4(_mm256_add_epi64(h, lane_hi_j)), 11)),
                        scale);
      const __m256d lo_t = _mm256_sub_pd(band_lo_v, _mm256_mul_pd(jitter_v, u_lo));
      const __m256d hi_t = _mm256_add_pd(band_hi_v, _mm256_mul_pd(jitter_v, u_hi));
      // out-of-band := contention < lo_t || contention > hi_t (ordered
      // compares, same predicate shape as the scalar kernel).
      const __m256d outside = _mm256_or_pd(_mm256_cmp_pd(cont_v, lo_t, _CMP_LT_OQ),
                                           _mm256_cmp_pd(cont_v, hi_t, _CMP_GT_OQ));
      const __m256i hit = _mm256_cmpgt_epi64(
          thr_v, _mm256_srli_epi64(mix4(_mm256_add_epi64(h, lane_coin)), 11));
      acc = _mm256_sub_epi64(acc, _mm256_andnot_si256(_mm256_castpd_si256(outside), hit));
      ctr = _mm256_add_epi64(ctr, ctr_step);
    }
    n += hsum4(acc);
    i += steps * 4;
  }
  if (n < cap && i < len) {
    n += scalar_kernels().jittered_band_span(key, lo + i, hi, contention, band_lo, band_hi,
                                             jitter, thr, cap - n);
  }
  return n < cap ? n : cap;
}

constexpr CoinKernels kAvx2Table{&count_span_avx2, &jittered_band_span_avx2};

}  // namespace

const CoinKernels* avx2_kernels() noexcept { return &kAvx2Table; }

}  // namespace lowsense::simd::detail

#else  // !(__AVX2__ && x86)

namespace lowsense::simd::detail {

const CoinKernels* avx2_kernels() noexcept { return nullptr; }

}  // namespace lowsense::simd::detail

#endif
