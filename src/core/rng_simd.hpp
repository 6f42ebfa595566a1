// SIMD coin kernels: the CounterRng double-round SplitMix64 mix evaluated
// over several counter lanes per instruction, behind one-time runtime
// dispatch.
//
// The simulator's span coin evaluations — `count_bernoulli_span` (the
// random jammers' quiet-span replay) and the jittered randband three-lane
// replay — funnel through the kernel table returned by `kernels()`. They
// are the only callers: a slot's send coins are drawn inline, one scalar
// `CounterRng` hash per accessor (sim/channel.cpp), because a slot
// usually has one or two accessors, too few to fill a vector. The table
// is chosen once per process: probe the CPU (cpuid on x86; NEON is
// baseline on aarch64), pick the widest tier the build and the host both
// support, then honor a `LOWSENSE_SIMD=scalar|avx2|avx512|neon`
// environment override for testing. Selection is an execution knob, never a result knob:
//
//   EVERY TIER IS BIT-IDENTICAL TO SCALAR for all inputs.
//
// The hash is pure integer arithmetic mod 2^64 (trivially lane-exact) and
// the jittered-band double math uses only individually rounded IEEE
// mul/sub/add ops in every tier (the rng_simd TUs compile with
// -ffp-contract=off so no target can fuse them), so the contract holds
// exactly, not approximately. It is enforced by golden-value tests,
// exhaustive scalar-vs-tier cross-checks (tests/core_rng_simd_test.cpp),
// and byte-diffed pack manifests / bench stdout in the CI simd-identity
// lane.
//
// This header is intrinsic-free on purpose: all vector code lives in the
// rng_simd*.cpp TUs (the only files where the determinism lint permits
// intrinsics), each compiled with just its own ISA flags so the rest of
// the library stays baseline.
#pragma once

#include <cstdint>

namespace lowsense::simd {

enum class Tier : std::uint8_t { kScalar = 0, kAvx2, kAvx512, kNeon };

/// The two span coin kernels, one implementation per tier. All
/// preconditions are established by the CounterRng wrappers (rng.cpp):
/// hi >= lo, cap > 0, and 0 < thr <= 2^53 (thresholds come from
/// CounterRng::bernoulli_threshold).
struct CoinKernels {
  /// Successes among the Bernoulli coins with integer threshold `thr` at
  /// counters [lo, hi] on `lane`, capped at `cap` (monotone counting:
  /// equals the loop-until-cap replay).
  std::uint64_t (*count_span)(std::uint64_t key, std::uint64_t lo, std::uint64_t hi,
                              std::uint64_t thr, std::uint64_t lane, std::uint64_t cap) noexcept;

  /// The jittered randband replay: per slot t in [lo, hi], lanes 1/2 push
  /// the band edges outward by jitter * U[0,1) and lane 0 draws the jam
  /// coin; counts slots where contention stays inside the jittered band
  /// AND the coin hits, capped at `cap`.
  std::uint64_t (*jittered_band_span)(std::uint64_t key, std::uint64_t lo, std::uint64_t hi,
                                      double contention, double band_lo, double band_hi,
                                      double jitter, std::uint64_t thr,
                                      std::uint64_t cap) noexcept;
};

/// The dispatched kernel table (probed once, override applied once).
const CoinKernels& kernels() noexcept;

/// The tier `kernels()` resolved to.
Tier active_tier() noexcept;

/// Kernels for a specific tier, or nullptr when this build or this host
/// cannot run it (lets tests force every available tier directly).
/// kScalar always resolves.
const CoinKernels* kernels_for(Tier tier) noexcept;

/// "scalar" | "avx2" | "avx512" | "neon".
const char* tier_name(Tier tier) noexcept;

/// tier_name(active_tier()) — recorded as `options.simd` in bench output.
const char* active_tier_name() noexcept;

namespace detail {

// Hash constants, mirrored from CounterRng::draw_with_key / mix so the
// vector TUs can evaluate the identical pipeline without widening
// CounterRng's private surface. Any divergence is caught immediately by
// the golden and cross-check tests.
inline constexpr std::uint64_t kCounterGamma = 0x9e3779b97f4a7c15ULL;  // counter stride
inline constexpr std::uint64_t kLaneGamma = 0xd1b54a32d192ed03ULL;     // lane stride
inline constexpr std::uint64_t kMixMul1 = 0xbf58476d1ce4e5b9ULL;       // finalizer round 1
inline constexpr std::uint64_t kMixMul2 = 0x94d049bb133111ebULL;       // finalizer round 2

/// Parses a LOWSENSE_SIMD value ("scalar"|"avx2"|"avx512"|"neon").
/// Returns false (out untouched) for anything else.
bool parse_tier(const char* text, Tier* out) noexcept;

/// The scalar reference kernels (also the tail path of every vector tier).
const CoinKernels& scalar_kernels() noexcept;

// Per-ISA kernel tables. Every variant TU always defines its accessor;
// it returns nullptr when the TU was compiled without that ISA (flag not
// supported, or wrong architecture). Host capability is checked
// separately by kernels_for().
const CoinKernels* avx2_kernels() noexcept;
const CoinKernels* avx512_kernels() noexcept;
const CoinKernels* neon_kernels() noexcept;

}  // namespace detail

}  // namespace lowsense::simd
