// CounterRngSimd: the SIMD coin kernels' bit-identity contract.
//
// Every tier (scalar / AVX2 / AVX-512 / NEON) must produce EXACTLY the
// same outputs for all inputs — the dispatched tier is an execution knob,
// never a result knob. This suite enforces that two ways: pinned golden
// values per tier (catches a cross-host drift even if all local tiers
// drift together) and randomized scalar-vs-tier cross-checks over a
// million coin draws.
// Tiers the host cannot run are skipped with a note (the CI matrix covers
// them on capable runners).
#include "core/rng_simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.hpp"

namespace lowsense {
namespace {

using simd::CoinKernels;
using simd::Tier;

// CounterRng(9001).key() — pins the key derivation the goldens below
// depend on (already pinned independently in core_rng_test.cpp).
constexpr std::uint64_t kKey9001 = 0x88cfe1f72ba5ca9fULL;

const CoinKernels* tier_or_skip_note(Tier tier, std::string* note) {
  const CoinKernels* k = simd::kernels_for(tier);
  if (k == nullptr) {
    *note = std::string("tier '") + simd::tier_name(tier) +
            "' not available on this build/host; identity covered by the CI matrix";
  }
  return k;
}

// Golden expectations produced by the scalar kernels (and verified
// identical under AVX2/AVX-512 at generation time). Any tier must
// reproduce every one of them bit-for-bit.
void expect_goldens(const CoinKernels& k) {
  const auto thr = [](double p) { return CounterRng::bernoulli_threshold(p); };
  EXPECT_EQ(k.count_span(kKey9001, 0, 999, thr(0.25), 0, ~0ULL), 253u);
  EXPECT_EQ(k.count_span(kKey9001, 123, 70000, thr(0.01), 3, ~0ULL), 687u);
  EXPECT_EQ(k.count_span(kKey9001, 5, 5000, thr(0.999), 1, 1234), 1234u);
  EXPECT_EQ(k.count_span(kKey9001, 1000000, 1131071, thr(0.5), 0, ~0ULL), 65768u);

  EXPECT_EQ(k.jittered_band_span(kKey9001, 0, 9999, 1.25, 1.0, 3.0, 0.75, thr(0.5), ~0ULL),
            4951u);
  EXPECT_EQ(k.jittered_band_span(kKey9001, 42, 31000, 0.9, 1.0, 3.0, 0.25, thr(0.9), ~0ULL),
            16743u);
  EXPECT_EQ(k.jittered_band_span(kKey9001, 7, 20006, 3.1, 1.0, 3.0, 0.5, thr(0.3), 500), 500u);
}

TEST(CounterRngSimd, TierNameRoundTrip) {
  Tier t = Tier::kScalar;
  EXPECT_TRUE(simd::detail::parse_tier("scalar", &t));
  EXPECT_EQ(t, Tier::kScalar);
  EXPECT_TRUE(simd::detail::parse_tier("avx2", &t));
  EXPECT_EQ(t, Tier::kAvx2);
  EXPECT_TRUE(simd::detail::parse_tier("avx512", &t));
  EXPECT_EQ(t, Tier::kAvx512);
  EXPECT_TRUE(simd::detail::parse_tier("neon", &t));
  EXPECT_EQ(t, Tier::kNeon);
  EXPECT_FALSE(simd::detail::parse_tier("AVX2", &t));  // case-sensitive
  EXPECT_FALSE(simd::detail::parse_tier("", &t));
  EXPECT_FALSE(simd::detail::parse_tier("sse42", &t));
  EXPECT_FALSE(simd::detail::parse_tier(nullptr, &t));
  for (Tier tier : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512, Tier::kNeon}) {
    Tier parsed = Tier::kScalar;
    ASSERT_TRUE(simd::detail::parse_tier(simd::tier_name(tier), &parsed));
    EXPECT_EQ(parsed, tier);
  }
}

TEST(CounterRngSimd, DispatchIsConsistent) {
  // The scalar tier always resolves; the dispatched table is exactly the
  // table of the reported active tier.
  ASSERT_NE(simd::kernels_for(Tier::kScalar), nullptr);
  const CoinKernels* active = simd::kernels_for(simd::active_tier());
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(active, &simd::kernels());
  EXPECT_STREQ(simd::active_tier_name(), simd::tier_name(simd::active_tier()));
}

TEST(CounterRngSimd, GoldensScalar) { expect_goldens(simd::detail::scalar_kernels()); }

TEST(CounterRngSimd, GoldensAvx2) {
  std::string note;
  const CoinKernels* k = tier_or_skip_note(Tier::kAvx2, &note);
  if (k == nullptr) GTEST_SKIP() << note;
  expect_goldens(*k);
}

TEST(CounterRngSimd, GoldensAvx512) {
  std::string note;
  const CoinKernels* k = tier_or_skip_note(Tier::kAvx512, &note);
  if (k == nullptr) GTEST_SKIP() << note;
  expect_goldens(*k);
}

TEST(CounterRngSimd, GoldensNeon) {
  std::string note;
  const CoinKernels* k = tier_or_skip_note(Tier::kNeon, &note);
  if (k == nullptr) GTEST_SKIP() << note;
  expect_goldens(*k);
}

// All tiers the host can run, scalar first (index 0 is the reference).
std::vector<const CoinKernels*> available_tiers() {
  std::vector<const CoinKernels*> tiers{&simd::detail::scalar_kernels()};
  for (Tier t : {Tier::kAvx2, Tier::kAvx512, Tier::kNeon}) {
    if (const CoinKernels* k = simd::kernels_for(t)) tiers.push_back(k);
  }
  return tiers;
}

TEST(CounterRngSimd, RandomizedSpanIdentityMillionCoins) {
  // ~2000 random spans x ~500 coins: a million randomized (key, counter,
  // lane) triples through count_span, every available tier against
  // scalar. Caps land mid-span about half the time.
  const auto tiers = available_tiers();
  Rng rng(0x51D0C01Eu);
  std::uint64_t coins = 0;
  while (coins < 1000000) {
    const std::uint64_t key = rng.next_u64();
    const std::uint64_t lo = rng.next_u64() >> 4;  // keep lo + len far from 2^64
    const std::uint64_t len = 1 + rng.next_below(1000);
    const std::uint64_t lane = rng.next_below(5);
    const double p = rng.next_double();
    const std::uint64_t thr = CounterRng::bernoulli_threshold(p);
    const std::uint64_t cap = rng.bernoulli(0.5) ? 1 + rng.next_below(len) : ~0ULL;
    const std::uint64_t want = tiers[0]->count_span(key, lo, lo + len - 1, thr, lane, cap);
    for (std::size_t t = 1; t < tiers.size(); ++t) {
      ASSERT_EQ(tiers[t]->count_span(key, lo, lo + len - 1, thr, lane, cap), want)
          << "tier " << t << " key=" << key << " lo=" << lo << " len=" << len
          << " p=" << p << " lane=" << lane << " cap=" << cap;
    }
    coins += len;
  }
}

TEST(CounterRngSimd, RandomizedJitteredBandIdentity) {
  const auto tiers = available_tiers();
  Rng rng(0x1A77E12u);
  for (int round = 0; round < 600; ++round) {
    const std::uint64_t key = rng.next_u64();
    const std::uint64_t lo = rng.next_u64() >> 4;
    const std::uint64_t len = 1 + rng.next_below(2000);
    const double band_lo = rng.next_double() * 4.0;
    const double band_hi = band_lo + rng.next_double() * 4.0;
    const double jitter = rng.bernoulli(0.2) ? 0.0 : rng.next_double();
    // Contention lands inside, near an edge, or out of reach.
    const double contention =
        band_lo - 2.0 * jitter + rng.next_double() * (band_hi - band_lo + 4.0 * jitter + 0.25);
    const std::uint64_t thr = CounterRng::bernoulli_threshold(rng.next_double());
    const std::uint64_t cap = rng.bernoulli(0.5) ? 1 + rng.next_below(len) : ~0ULL;
    const std::uint64_t want = tiers[0]->jittered_band_span(key, lo, lo + len - 1, contention,
                                                            band_lo, band_hi, jitter, thr, cap);
    for (std::size_t t = 1; t < tiers.size(); ++t) {
      ASSERT_EQ(tiers[t]->jittered_band_span(key, lo, lo + len - 1, contention, band_lo,
                                             band_hi, jitter, thr, cap),
                want)
          << "tier " << t << " key=" << key << " lo=" << lo << " len=" << len
          << " band=[" << band_lo << "," << band_hi << "] j=" << jitter
          << " c=" << contention << " cap=" << cap;
    }
  }
}

TEST(CounterRngSimd, WrapperRoutesMatchPerSlotReplay) {
  // The CounterRng entry points (what the jammers call) must equal the
  // naive per-slot loops they replaced — through whatever tier is
  // dispatched right now.
  CounterRng rng(9001, 7);
  const double rate = 0.37;
  std::uint64_t naive = 0;
  for (std::uint64_t t = 2000; t <= 4500; ++t) {
    naive += static_cast<std::uint64_t>(rng.bernoulli(t, rate, 2));
  }
  EXPECT_EQ(rng.count_bernoulli_span(2000, 4500, rate, ~0ULL, 2), naive);

  // Jittered: per-slot kernel calls (cap=1, the jam() path) must sum to
  // the span call (the count_quiet_range path) — the property that keeps
  // the slot engine and the event engine trace-equivalent.
  const double band_lo = 1.0;
  const double band_hi = 3.0;
  const double jitter = 0.6;
  const double contention = 0.8;
  std::uint64_t per_slot = 0;
  for (std::uint64_t t = 100; t <= 3100; ++t) {
    per_slot += rng.count_jittered_band_span(t, t, contention, band_lo, band_hi, jitter, rate, 1);
  }
  EXPECT_EQ(rng.count_jittered_band_span(100, 3100, contention, band_lo, band_hi, jitter, rate),
            per_slot);
}

TEST(CounterRngSimd, FullRangeSpanQuirkIsPreservedOnEveryTier) {
  // lo=0, hi=2^64-1 wraps the span length to 0. The historical kernels
  // disagree about what that means — count_span's block loop computes
  // `hi - c + 1`, sees 0, and returns 0; the jittered loop never forms a
  // length, so it walks slots until the cap stops it. Both behaviors are
  // pinned: every tier must reproduce its scalar reference exactly, not
  // "fix" the wrap.
  const std::uint64_t thr = CounterRng::bernoulli_threshold(0.5);
  const std::uint64_t jittered_ref = simd::detail::scalar_kernels().jittered_band_span(
      kKey9001, 0, ~0ULL, 1.5, 1.0, 2.0, 0.5, thr, 10);
  EXPECT_EQ(jittered_ref, 10u);  // cap reached: contention sits inside the band
  for (const CoinKernels* k : available_tiers()) {
    EXPECT_EQ(k->count_span(kKey9001, 0, ~0ULL, thr, 0, 10), 0u);
    EXPECT_EQ(k->jittered_band_span(kKey9001, 0, ~0ULL, 1.5, 1.0, 2.0, 0.5, thr, 10), jittered_ref);
  }
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LOWSENSE_SIMD_PERF_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LOWSENSE_SIMD_PERF_SANITIZED 1
#endif
#endif

TEST(CounterRngSimd, VectorCountSpanBeatsScalarWhenDispatched) {
#ifdef LOWSENSE_SIMD_PERF_SANITIZED
  GTEST_SKIP() << "sanitizer instrumentation distorts kernel timing";
#else
  const Tier tier = simd::active_tier();
  if (tier != Tier::kAvx2 && tier != Tier::kAvx512) {
    GTEST_SKIP() << "dispatched tier is '" << simd::active_tier_name()
                 << "'; the coins/sec floor only applies on AVX2+ hosts";
  }
  const CoinKernels& scalar = simd::detail::scalar_kernels();
  const CoinKernels& vec = simd::kernels();
  const std::uint64_t thr = CounterRng::bernoulli_threshold(0.5);
  constexpr std::uint64_t kSpan = 1 << 22;
  const auto time_coins = [&](const CoinKernels& k) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t n = k.count_span(kKey9001, 0, kSpan - 1, thr, 0, ~0ULL);
    const auto t1 = std::chrono::steady_clock::now();
    EXPECT_GT(n, 0u);
    return std::chrono::duration<double>(t1 - t0).count();
  };
  // Best of 5 on both sides: robust against scheduler noise on shared
  // 1-core CI boxes. Per-tier floors: AVX-512 has a native 64-bit low
  // multiply and reliably clears 2x (~3x measured). AVX2 must synthesize
  // each 64-bit multiply from three 32-bit partial products, which caps
  // it near 1.8-1.9x against scalar's 1/cycle imul on Intel cores — so
  // its floor asserts "clearly faster than scalar", not the 2x the
  // native-multiply tiers owe.
  const double floor = tier == Tier::kAvx512 ? 2.0 : 1.3;
  double best_ratio = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const double scalar_sec = time_coins(scalar);
    const double vec_sec = time_coins(vec);
    if (vec_sec > 0.0) best_ratio = std::max(best_ratio, scalar_sec / vec_sec);
  }
  EXPECT_GE(best_ratio, floor) << "vector count_span is not >= " << floor
                               << "x scalar coins/sec (tier " << simd::active_tier_name() << ")";
#endif
}

}  // namespace
}  // namespace lowsense
