// NEON tier: the CounterRng double-round mix over 2 counter lanes per
// step. Advanced SIMD (including the float64x2 ops used here) is baseline
// on aarch64, so no extra ISA flag is needed — only -ffp-contract=off
// (see CMakeLists.txt), which matters most on this target: GCC contracts
// FP by default on aarch64, and the jittered band math must stay
// individually rounded to match the scalar kernel bit-for-bit.
//
// Bit-identity notes: the 64-bit low multiply is synthesized from
// 32-bit partial products (exact mod 2^64); vcvtq_f64_u64 is exact for
// values < 2^53 (our 53-bit draws); 64-bit compares are native on
// aarch64.
#include "core/rng_simd.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace lowsense::simd::detail {
namespace {

/// 64-bit low multiply from 32-bit partial products (exact mod 2^64):
/// a*b = lo(a)*lo(b) + ((hi(a)*lo(b) + lo(a)*hi(b)) << 32).
inline uint64x2_t mul64(uint64x2_t a, uint64x2_t b) noexcept {
  const uint32x2_t a_lo = vmovn_u64(a);
  const uint32x2_t b_lo = vmovn_u64(b);
  const uint32x2_t a_hi = vshrn_n_u64(a, 32);
  const uint32x2_t b_hi = vshrn_n_u64(b, 32);
  const uint64x2_t cross = vaddq_u64(vmull_u32(a_hi, b_lo), vmull_u32(a_lo, b_hi));
  return vaddq_u64(vmull_u32(a_lo, b_lo), vshlq_n_u64(cross, 32));
}

/// SplitMix64 finalizer (CounterRng::mix) on 2 lanes.
inline uint64x2_t mix2(uint64x2_t z) noexcept {
  z = mul64(veorq_u64(z, vshrq_n_u64(z, 30)), vdupq_n_u64(kMixMul1));
  z = mul64(veorq_u64(z, vshrq_n_u64(z, 27)), vdupq_n_u64(kMixMul2));
  return veorq_u64(z, vshrq_n_u64(z, 31));
}

/// All-ones/all-zeros per-lane mask of (draw >> 11) < thr.
inline uint64x2_t coin_mask2(uint64x2_t draws, uint64x2_t thr) noexcept {
  return vcltq_u64(vshrq_n_u64(draws, 11), thr);
}

/// Number of all-ones lanes in a compare mask (each lane is 0 or ~0).
inline std::uint64_t mask_count2(uint64x2_t mask) noexcept {
  return (vgetq_lane_u64(mask, 0) & 1U) + (vgetq_lane_u64(mask, 1) & 1U);
}

// Lane i of a step holds key + kCounterGamma * (c + i + 1) = base +
// i*kCounterGamma, base advanced by 2*kCounterGamma per step (wrapping
// uint64, same as scalar mod 2^64).
inline uint64x2_t counter_stage(std::uint64_t base) noexcept {
  const uint64x2_t offsets = {0, kCounterGamma};
  return vaddq_u64(vdupq_n_u64(base), offsets);
}

std::uint64_t count_span_neon(std::uint64_t key, std::uint64_t lo, std::uint64_t hi,
                              std::uint64_t thr, std::uint64_t lane,
                              std::uint64_t cap) noexcept {
  const std::uint64_t len = hi - lo + 1;
  if (len == 0) return scalar_kernels().count_span(key, lo, hi, thr, lane, cap);
  const uint64x2_t lane_stage = vdupq_n_u64(kLaneGamma * (lane + 1));
  const uint64x2_t thr_v = vdupq_n_u64(thr);
  std::uint64_t base = key + kCounterGamma * (lo + 1);
  std::uint64_t n = 0;
  std::uint64_t i = 0;
  // Cap check per 2-wide step: counting is monotone, so min(total, cap)
  // is granularity-independent.
  for (; n < cap && len - i >= 2; i += 2) {
    const uint64x2_t h = mix2(counter_stage(base));
    const uint64x2_t draws = mix2(vaddq_u64(h, lane_stage));
    n += mask_count2(coin_mask2(draws, thr_v));
    base += 2 * kCounterGamma;
  }
  if (n < cap && i < len) {
    n += scalar_kernels().count_span(key, lo + i, hi, thr, lane, cap - n);
  }
  return n < cap ? n : cap;
}

std::uint64_t jittered_band_span_neon(std::uint64_t key, std::uint64_t lo, std::uint64_t hi,
                                      double contention, double band_lo, double band_hi,
                                      double jitter, std::uint64_t thr,
                                      std::uint64_t cap) noexcept {
  const std::uint64_t len = hi - lo + 1;
  if (len == 0) {
    return scalar_kernels().jittered_band_span(key, lo, hi, contention, band_lo, band_hi,
                                               jitter, thr, cap);
  }
  const uint64x2_t lane_coin = vdupq_n_u64(kLaneGamma);      // lane 0
  const uint64x2_t lane_lo = vdupq_n_u64(2 * kLaneGamma);    // lane 1
  const uint64x2_t lane_hi_j = vdupq_n_u64(3 * kLaneGamma);  // lane 2
  const uint64x2_t thr_v = vdupq_n_u64(thr);
  const float64x2_t scale = vdupq_n_f64(0x1.0p-53);
  const float64x2_t jitter_v = vdupq_n_f64(jitter);
  const float64x2_t band_lo_v = vdupq_n_f64(band_lo);
  const float64x2_t band_hi_v = vdupq_n_f64(band_hi);
  const float64x2_t cont_v = vdupq_n_f64(contention);
  std::uint64_t base = key + kCounterGamma * (lo + 1);
  std::uint64_t n = 0;
  std::uint64_t i = 0;
  for (; n < cap && len - i >= 2; i += 2) {
    // The counter-stage mix h is shared by all three lanes of a slot:
    // 4 mixes per slot-pair instead of 6.
    const uint64x2_t h = mix2(counter_stage(base));
    const float64x2_t u_lo = vmulq_f64(
        vcvtq_f64_u64(vshrq_n_u64(mix2(vaddq_u64(h, lane_lo)), 11)), scale);
    const float64x2_t u_hi = vmulq_f64(
        vcvtq_f64_u64(vshrq_n_u64(mix2(vaddq_u64(h, lane_hi_j)), 11)), scale);
    // Explicit mul-then-sub (never vfma): must match the scalar kernel's
    // individually rounded ops.
    const float64x2_t lo_t = vsubq_f64(band_lo_v, vmulq_f64(jitter_v, u_lo));
    const float64x2_t hi_t = vaddq_f64(band_hi_v, vmulq_f64(jitter_v, u_hi));
    // out-of-band := contention < lo_t || contention > hi_t.
    const uint64x2_t outside =
        vorrq_u64(vcltq_f64(cont_v, lo_t), vcgtq_f64(cont_v, hi_t));
    const uint64x2_t coins = coin_mask2(mix2(vaddq_u64(h, lane_coin)), thr_v);
    n += mask_count2(vbicq_u64(coins, outside));
    base += 2 * kCounterGamma;
  }
  if (n < cap && i < len) {
    n += scalar_kernels().jittered_band_span(key, lo + i, hi, contention, band_lo, band_hi,
                                             jitter, thr, cap - n);
  }
  return n < cap ? n : cap;
}

constexpr CoinKernels kNeonTable{&count_span_neon, &jittered_band_span_neon};

}  // namespace

const CoinKernels* neon_kernels() noexcept { return &kNeonTable; }

}  // namespace lowsense::simd::detail

#else  // !__aarch64__

namespace lowsense::simd::detail {

const CoinKernels* neon_kernels() noexcept { return nullptr; }

}  // namespace lowsense::simd::detail

#endif
