// AVX-512 tier: the CounterRng double-round mix over 8 counter lanes per
// step. Requires AVX512F + AVX512DQ (native 64-bit low multiply and
// u64 -> double conversion). Compiled with -mavx512f -mavx512dq
// -ffp-contract=off (this TU only); a nullptr stub elsewhere, with the
// dispatcher checking cpuid before handing these kernels out.
//
// Bit-identity is simpler than AVX2: _mm512_mullo_epi64 is exact mod
// 2^64, _mm512_cvtepu64_pd is exact for values < 2^53 (our 53-bit
// draws), unsigned 64-bit compares are native, and the jittered band
// math is explicit (never-contracted) mul/sub/add intrinsics.
#include "core/rng_simd.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && \
    (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

// GCC's unmasked AVX-512 intrinsics (e.g. _mm512_srli_epi64) expand to the
// masked builtin with _mm512_undefined_epi32() as the pass-through operand,
// which -Wmaybe-uninitialized flags at every inlined use site (GCC bug
// 105593). Nothing here reads uninitialized state; silence it for this TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace lowsense::simd::detail {
namespace {

inline __m512i set1_u64(std::uint64_t x) noexcept {
  return _mm512_set1_epi64(static_cast<long long>(x));
}

/// SplitMix64 finalizer (CounterRng::mix) on 8 lanes.
inline __m512i mix8(__m512i z) noexcept {
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 30)), set1_u64(kMixMul1));
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 27)), set1_u64(kMixMul2));
  return _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
}

/// Mask of lanes with (draw >> 11) < thr.
inline __mmask8 coin_mask8(__m512i draws, __m512i thr) noexcept {
  return _mm512_cmplt_epu64_mask(_mm512_srli_epi64(draws, 11), thr);
}

// Lane i of a step holds key + kCounterGamma * (c + i + 1) = base +
// i*kCounterGamma, base advanced by 8*kCounterGamma per step (wrapping
// uint64, same as scalar mod 2^64).
inline __m512i counter_stage(std::uint64_t base) noexcept {
  return _mm512_add_epi64(
      set1_u64(base),
      _mm512_setr_epi64(0, static_cast<long long>(kCounterGamma),
                        static_cast<long long>(2 * kCounterGamma),
                        static_cast<long long>(3 * kCounterGamma),
                        static_cast<long long>(4 * kCounterGamma),
                        static_cast<long long>(5 * kCounterGamma),
                        static_cast<long long>(6 * kCounterGamma),
                        static_cast<long long>(7 * kCounterGamma)));
}

std::uint64_t count_span_avx512(std::uint64_t key, std::uint64_t lo, std::uint64_t hi,
                                std::uint64_t thr, std::uint64_t lane,
                                std::uint64_t cap) noexcept {
  const std::uint64_t len = hi - lo + 1;
  if (len == 0) return scalar_kernels().count_span(key, lo, hi, thr, lane, cap);
  const __m512i lane_stage = set1_u64(kLaneGamma * (lane + 1));
  const __m512i thr_v = set1_u64(thr);
  std::uint64_t base = key + kCounterGamma * (lo + 1);
  std::uint64_t n = 0;
  std::uint64_t i = 0;
  // Cap check per 8-wide step: counting is monotone, so min(total, cap)
  // is granularity-independent.
  for (; n < cap && len - i >= 8; i += 8) {
    const __m512i h = mix8(counter_stage(base));
    const __m512i draws = mix8(_mm512_add_epi64(h, lane_stage));
    n += static_cast<std::uint64_t>(
        __builtin_popcount(static_cast<unsigned>(coin_mask8(draws, thr_v))));
    base += 8 * kCounterGamma;
  }
  if (n < cap && i < len) {
    n += scalar_kernels().count_span(key, lo + i, hi, thr, lane, cap - n);
  }
  return n < cap ? n : cap;
}

std::uint64_t jittered_band_span_avx512(std::uint64_t key, std::uint64_t lo, std::uint64_t hi,
                                        double contention, double band_lo, double band_hi,
                                        double jitter, std::uint64_t thr,
                                        std::uint64_t cap) noexcept {
  const std::uint64_t len = hi - lo + 1;
  if (len == 0) {
    return scalar_kernels().jittered_band_span(key, lo, hi, contention, band_lo, band_hi,
                                               jitter, thr, cap);
  }
  const __m512i lane_coin = set1_u64(kLaneGamma);      // lane 0
  const __m512i lane_lo = set1_u64(2 * kLaneGamma);    // lane 1
  const __m512i lane_hi_j = set1_u64(3 * kLaneGamma);  // lane 2
  const __m512i thr_v = set1_u64(thr);
  const __m512d scale = _mm512_set1_pd(0x1.0p-53);
  const __m512d jitter_v = _mm512_set1_pd(jitter);
  const __m512d band_lo_v = _mm512_set1_pd(band_lo);
  const __m512d band_hi_v = _mm512_set1_pd(band_hi);
  const __m512d cont_v = _mm512_set1_pd(contention);
  std::uint64_t base = key + kCounterGamma * (lo + 1);
  std::uint64_t n = 0;
  std::uint64_t i = 0;
  for (; n < cap && len - i >= 8; i += 8) {
    // The counter-stage mix h is shared by all three lanes of a slot:
    // 4 mixes per slot-octet instead of 6.
    const __m512i h = mix8(counter_stage(base));
    const __m512d u_lo = _mm512_mul_pd(
        _mm512_cvtepu64_pd(_mm512_srli_epi64(mix8(_mm512_add_epi64(h, lane_lo)), 11)), scale);
    const __m512d u_hi = _mm512_mul_pd(
        _mm512_cvtepu64_pd(_mm512_srli_epi64(mix8(_mm512_add_epi64(h, lane_hi_j)), 11)),
        scale);
    const __m512d lo_t = _mm512_sub_pd(band_lo_v, _mm512_mul_pd(jitter_v, u_lo));
    const __m512d hi_t = _mm512_add_pd(band_hi_v, _mm512_mul_pd(jitter_v, u_hi));
    // out-of-band := contention < lo_t || contention > hi_t (ordered
    // compares, same predicate shape as the scalar kernel).
    const __mmask8 outside =
        static_cast<__mmask8>(_mm512_cmp_pd_mask(cont_v, lo_t, _CMP_LT_OQ) |
                              _mm512_cmp_pd_mask(cont_v, hi_t, _CMP_GT_OQ));
    const __mmask8 coins = coin_mask8(mix8(_mm512_add_epi64(h, lane_coin)), thr_v);
    n += static_cast<std::uint64_t>(__builtin_popcount(
        static_cast<unsigned>(coins & static_cast<__mmask8>(~outside))));
    base += 8 * kCounterGamma;
  }
  if (n < cap && i < len) {
    n += scalar_kernels().jittered_band_span(key, lo + i, hi, contention, band_lo, band_hi,
                                             jitter, thr, cap - n);
  }
  return n < cap ? n : cap;
}

constexpr CoinKernels kAvx512Table{&count_span_avx512, &jittered_band_span_avx512};

}  // namespace

const CoinKernels* avx512_kernels() noexcept { return &kAvx512Table; }

}  // namespace lowsense::simd::detail

#else  // !(__AVX512F__ && __AVX512DQ__ && x86)

namespace lowsense::simd::detail {

const CoinKernels* avx512_kernels() noexcept { return nullptr; }

}  // namespace lowsense::simd::detail

#endif
