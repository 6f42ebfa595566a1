// Scalar reference kernels + one-time runtime dispatch for the SIMD coin
// pipeline. See rng_simd.hpp for the tier contract (every tier is
// bit-identical to the scalar kernels defined here).
//
// This TU is compiled with -ffp-contract=off (see CMakeLists.txt) so the
// jittered-band double math below — the authoritative semantics for every
// vector tier — can never be fused into FMAs on targets where contraction
// is the compiler default (e.g. aarch64).
#include "core/rng_simd.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/rng.hpp"

namespace lowsense::simd {

namespace detail {
namespace {

// --------------------------------------------------------- scalar kernels
//
// These are the pre-SIMD CounterRng loop bodies, moved here verbatim so
// the scalar tier *is* the historical behavior (goldens pinned in
// tests/core_rng_test.cpp predate this file). The vector tiers also call
// them for <W tails and for the wrapped full-range-span quirk (lo = 0,
// hi = 2^64 - 1 makes the length wrap to 0; the block loop returns 0).

std::uint64_t count_span_scalar(std::uint64_t key, std::uint64_t lo, std::uint64_t hi,
                                std::uint64_t thr, std::uint64_t lane,
                                std::uint64_t cap) noexcept {
  std::uint64_t n = 0;
  std::uint64_t c = lo;
  // 64-coin blocks: build a success mask, popcount it. Counting is
  // monotone, so min(total, cap) equals the loop-until-cap replay and
  // the cap check only needs to run per block.
  while (c <= hi && n < cap) {
    const std::uint64_t block = std::min<std::uint64_t>(64, hi - c + 1);
    std::uint64_t mask = 0;
    for (std::uint64_t i = 0; i < block; ++i) {
      mask |= static_cast<std::uint64_t>((CounterRng::draw_with_key(key, c + i, lane) >> 11) < thr)
              << i;
    }
    n += static_cast<std::uint64_t>(__builtin_popcountll(mask));
    if (c + block - 1 == hi) break;  // avoid overflow when hi is huge
    c += block;
  }
  return n < cap ? n : cap;
}

std::uint64_t jittered_band_span_scalar(std::uint64_t key, std::uint64_t lo, std::uint64_t hi,
                                        double contention, double band_lo, double band_hi,
                                        double jitter, std::uint64_t thr,
                                        std::uint64_t cap) noexcept {
  // Per slot: lanes 1/2 jitter each band edge outward by an independent
  // uniform amount in [0, jitter); lane 0 is the jam coin. This is the
  // RandomContentionJammer::hit() replay, with the coin as an integer
  // threshold compare (exact — see CounterRng::bernoulli_threshold).
  std::uint64_t n = 0;
  for (std::uint64_t t = lo; t <= hi && n < cap; ++t) {
    const double u_lo =
        static_cast<double>(CounterRng::draw_with_key(key, t, 1) >> 11) * 0x1.0p-53;
    const double u_hi =
        static_cast<double>(CounterRng::draw_with_key(key, t, 2) >> 11) * 0x1.0p-53;
    const double lo_t = band_lo - jitter * u_lo;
    const double hi_t = band_hi + jitter * u_hi;
    if (contention < lo_t || contention > hi_t) continue;
    n += static_cast<std::uint64_t>((CounterRng::draw_with_key(key, t, 0) >> 11) < thr);
  }
  return n < cap ? n : cap;
}

constexpr CoinKernels kScalarTable{&count_span_scalar, &jittered_band_span_scalar};

}  // namespace

const CoinKernels& scalar_kernels() noexcept { return kScalarTable; }

bool parse_tier(const char* text, Tier* out) noexcept {
  if (text == nullptr || out == nullptr) return false;
  if (std::strcmp(text, "scalar") == 0) {
    *out = Tier::kScalar;
  } else if (std::strcmp(text, "avx2") == 0) {
    *out = Tier::kAvx2;
  } else if (std::strcmp(text, "avx512") == 0) {
    *out = Tier::kAvx512;
  } else if (std::strcmp(text, "neon") == 0) {
    *out = Tier::kNeon;
  } else {
    return false;
  }
  return true;
}

}  // namespace detail

// --------------------------------------------------------------- dispatch

const char* tier_name(Tier tier) noexcept {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kAvx512:
      return "avx512";
    case Tier::kNeon:
      return "neon";
  }
  return "scalar";
}

const CoinKernels* kernels_for(Tier tier) noexcept {
  switch (tier) {
    case Tier::kScalar:
      return &detail::scalar_kernels();
    case Tier::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      if (__builtin_cpu_supports("avx2")) return detail::avx2_kernels();
#endif
      return nullptr;
    case Tier::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")) {
        return detail::avx512_kernels();
      }
#endif
      return nullptr;
    case Tier::kNeon:
      // Advanced SIMD is baseline on aarch64; the variant TU compiles to a
      // nullptr stub everywhere else.
      return detail::neon_kernels();
  }
  return nullptr;
}

namespace {

struct Dispatch {
  Tier tier;
  const CoinKernels* table;
};

Tier widest_supported_tier() noexcept {
  if (kernels_for(Tier::kAvx512) != nullptr) return Tier::kAvx512;
  if (kernels_for(Tier::kAvx2) != nullptr) return Tier::kAvx2;
  if (kernels_for(Tier::kNeon) != nullptr) return Tier::kNeon;
  return Tier::kScalar;
}

const Dispatch& resolve() noexcept {
  // Probed once per process; the magic static makes first-use from any
  // thread safe and every later call a load. Tier choice can never change
  // results (bit-identity contract), only throughput.
  static const Dispatch dispatch = [] {
    Tier tier = widest_supported_tier();
    // NOLINTNEXTLINE(concurrency-mt-unsafe): one-time read under the
    // enclosing magic-static guard; nothing in the library calls setenv.
    const char* env = std::getenv("LOWSENSE_SIMD");
    if (env != nullptr && env[0] != '\0') {
      Tier forced = Tier::kScalar;
      if (!detail::parse_tier(env, &forced)) {
        std::fprintf(stderr,
                     "lowsense: ignoring unknown LOWSENSE_SIMD=%s "
                     "(expected scalar|avx2|avx512|neon)\n",
                     env);
      } else if (kernels_for(forced) == nullptr) {
        std::fprintf(stderr,
                     "lowsense: LOWSENSE_SIMD=%s not available on this build/host; "
                     "falling back to scalar\n",
                     env);
        tier = Tier::kScalar;
      } else {
        tier = forced;
      }
    }
    return Dispatch{tier, kernels_for(tier)};
  }();
  return dispatch;
}

}  // namespace

const CoinKernels& kernels() noexcept { return *resolve().table; }

Tier active_tier() noexcept { return resolve().tier; }

const char* active_tier_name() noexcept { return tier_name(active_tier()); }

}  // namespace lowsense::simd
