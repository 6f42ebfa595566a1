// Unit tests for the RNG layer: determinism, stream independence, the
// distributional correctness of the geometric-gap sampler (the primitive
// both engines rely on for trace equivalence), and the slot-keyed
// CounterRng discipline randomized adversaries draw from (equidistribution,
// order independence, key/lane decorrelation). The Rng::stream regression
// pins exact outputs: any change to stream derivation silently shifts
// every engine trace, so it must fail loudly here instead.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include "core/rng.hpp"
#include "core/types.hpp"

namespace lowsense {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next() == b.next();
  EXPECT_EQ(equal, 0);
}

TEST(Rng, SameSeedSameSequence) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ReseedResetsSequence) {
  Rng a(5);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(a.next_u64());
  a.reseed(5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), first[static_cast<std::size_t>(i)]);
}

TEST(Rng, StreamsAreIndependentPerId) {
  Rng a = Rng::stream(99, 0);
  Rng b = Rng::stream(99, 1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_EQ(equal, 0);
}

TEST(Rng, StreamsAreDeterministic) {
  Rng a = Rng::stream(7, 31337);
  Rng b = Rng::stream(7, 31337);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DoublesInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Rng, PositiveDoublesNeverZero) {
  Rng rng(12);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double_pos();
    ASSERT_GT(d, 0.0);
    ASSERT_LE(d, 1.0);
  }
}

TEST(Rng, DoubleMeanIsHalf) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(14);
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_TRUE(rng.bernoulli(2.0));
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_FALSE(rng.bernoulli(-1.0));
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(15);
  const double p = 0.3;
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(p);
  EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.01);
}

TEST(Rng, NextBelowBounds) {
  Rng rng(16);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowUniformity) {
  Rng rng(17);
  const std::uint64_t k = 8;
  std::vector<int> counts(k, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_below(k)];
  for (std::uint64_t j = 0; j < k; ++j) {
    EXPECT_NEAR(static_cast<double>(counts[j]) / n, 1.0 / static_cast<double>(k), 0.01);
  }
}

TEST(GeometricGap, EdgeProbabilities) {
  Rng rng(18);
  EXPECT_EQ(rng.geometric_gap(1.0), 1u);
  EXPECT_EQ(rng.geometric_gap(1.5), 1u);
  EXPECT_EQ(rng.geometric_gap(0.0), kNoSlot);
  EXPECT_EQ(rng.geometric_gap(-0.5), kNoSlot);
}

TEST(GeometricGap, SupportStartsAtOne) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) ASSERT_GE(rng.geometric_gap(0.9), 1u);
}

TEST(GeometricGap, MeanMatchesInverseP) {
  // E[Geometric(p)] = 1/p.
  Rng rng(20);
  for (double p : {0.5, 0.1, 0.01}) {
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.geometric_gap(p));
    EXPECT_NEAR(sum / n, 1.0 / p, 3.0 / p * 0.05) << "p=" << p;
  }
}

TEST(GeometricGap, TailMatchesClosedForm) {
  // P(G > k) = (1-p)^k.
  Rng rng(21);
  const double p = 0.2;
  const int k = 10;
  int over = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) over += rng.geometric_gap(p) > static_cast<std::uint64_t>(k);
  const double expected = std::pow(1.0 - p, k);
  EXPECT_NEAR(static_cast<double>(over) / n, expected, 0.005);
}

TEST(GeometricGap, TinyProbabilityDoesNotOverflow) {
  Rng rng(22);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t g = rng.geometric_gap(1e-12);
    ASSERT_GE(g, 1u);
  }
}

TEST(GeometricGap, CachedLogOverloadIsBitIdentical) {
  // geometric_gap(p, log1p(-p)) is the one-argument draw with the log
  // hoisted out; same seed, same draws, same gaps — including the edge
  // probabilities that short-circuit before the log.
  const double ps[] = {0.0,
                       std::numeric_limits<double>::denorm_min(),
                       1e-12,
                       0.5,
                       1.0 - std::numeric_limits<double>::epsilon(),
                       1.0};
  for (const double p : ps) {
    Rng a(31);
    Rng b(31);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(a.geometric_gap(p, std::log1p(-p)), b.geometric_gap(p)) << "p=" << p;
    }
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "p=" << p;  // same draws consumed
  }
}

TEST(Poisson, MeanAndZeroRate) {
  Rng rng(23);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
  for (double mean : {0.5, 4.0, 100.0}) {
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(mean));
    EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.02) << "mean=" << mean;
  }
}

TEST(Poisson, CachedExpOverloadIsBitIdentical) {
  // poisson(mean, exp(-mean)) must replay poisson(mean) draw for draw, on
  // both sides of the product-method / normal-approximation switch at 32.
  for (const double mean : {1e-3, 0.05, 1.0, 31.9, 32.0, 100.0}) {
    Rng a(41);
    Rng b(41);
    const double e = std::exp(-mean);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(a.poisson(mean, e), b.poisson(mean)) << "mean=" << mean << " i=" << i;
    }
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "mean=" << mean;  // same draws consumed
  }
}

// ------------------------------------------------------------ CounterRng

TEST(CounterRng, DrawIsDeterministicPerKey) {
  const CounterRng a(123);
  const CounterRng b(123);
  for (std::uint64_t c = 0; c < 1000; ++c) ASSERT_EQ(a.draw(c), b.draw(c));
  ASSERT_EQ(a.key(), b.key());
}

TEST(CounterRng, DrawIsOrderIndependent) {
  // The defining property: draw(c) is a pure function of (key, c, lane),
  // so evaluating the counters in any shuffled order — or repeatedly —
  // yields the same values as an in-order pass.
  const CounterRng rng(314159);
  const std::uint64_t n = 4096;
  std::vector<std::uint64_t> in_order;
  for (std::uint64_t c = 0; c < n; ++c) in_order.push_back(rng.draw(c));

  std::vector<std::uint64_t> counters(n);
  std::iota(counters.begin(), counters.end(), 0);
  std::mt19937_64 shuffler(7);
  std::shuffle(counters.begin(), counters.end(), shuffler);
  for (const std::uint64_t c : counters) {
    ASSERT_EQ(rng.draw(c), in_order[c]) << "counter " << c;
    ASSERT_EQ(rng.draw(c), in_order[c]) << "repeat at counter " << c;
  }
}

/// Chi-square statistic of `draws` bucketed into 256 equiprobable bins.
/// df = 255: mean 255, sd ~22.6; 400 is ~6.4 sigma — a deterministic
/// seeded test either passes forever or the generator is genuinely broken.
double chi_square_256(const std::vector<std::uint64_t>& draws) {
  std::vector<double> counts(256, 0.0);
  for (const std::uint64_t d : draws) counts[d >> 56] += 1.0;  // top byte
  const double expected = static_cast<double>(draws.size()) / 256.0;
  double chi2 = 0.0;
  for (const double c : counts) chi2 += (c - expected) * (c - expected) / expected;
  return chi2;
}

TEST(CounterRng, EquidistributionChiSquare) {
  const CounterRng rng(20260728);
  std::vector<std::uint64_t> draws;
  const std::uint64_t n = 256 * 1000;
  draws.reserve(n);
  for (std::uint64_t c = 0; c < n; ++c) draws.push_back(rng.draw(c));
  EXPECT_LT(chi_square_256(draws), 400.0);

  // Sequential counters with a fixed lane — the exact access pattern a
  // jammer uses over a quiet span — must also equidistribute.
  draws.clear();
  for (std::uint64_t c = 0; c < n; ++c) draws.push_back(rng.draw(c, 2));
  EXPECT_LT(chi_square_256(draws), 400.0);
}

TEST(CounterRng, KeysAreDecorrelated) {
  // Adjacent keys (and the seed/stream constructor) must behave like
  // independent generators: no identical outputs, and the XOR of the two
  // streams itself looks uniform.
  const CounterRng a(500);
  const CounterRng b(501);
  std::vector<std::uint64_t> xored;
  for (std::uint64_t c = 0; c < 256 * 200; ++c) {
    const std::uint64_t da = a.draw(c);
    const std::uint64_t db = b.draw(c);
    ASSERT_NE(da, db) << "counter " << c;
    xored.push_back(da ^ db);
  }
  EXPECT_LT(chi_square_256(xored), 400.0);
}

TEST(CounterRng, LanesAreDecorrelated) {
  const CounterRng rng(99);
  std::vector<std::uint64_t> xored;
  for (std::uint64_t c = 0; c < 256 * 200; ++c) {
    const std::uint64_t l0 = rng.draw(c, 0);
    const std::uint64_t l1 = rng.draw(c, 1);
    ASSERT_NE(l0, l1) << "counter " << c;
    xored.push_back(l0 ^ l1);
  }
  EXPECT_LT(chi_square_256(xored), 400.0);
}

TEST(CounterRng, StreamConstructorMatchesRngStreamSemantics) {
  // (seed, stream) derivation: distinct streams of one seed disagree, and
  // the same pair is reproducible.
  const CounterRng a(77, 1);
  const CounterRng b(77, 2);
  const CounterRng a2(77, 1);
  int equal = 0;
  for (std::uint64_t c = 0; c < 64; ++c) {
    equal += a.draw(c) == b.draw(c);
    ASSERT_EQ(a.draw(c), a2.draw(c));
  }
  EXPECT_EQ(equal, 0);
}

TEST(CounterRng, DoubleHelpersMatchDrawSemantics) {
  const CounterRng rng(4242);
  double sum = 0.0;
  const int n = 100000;
  for (int c = 0; c < n; ++c) {
    const double d = rng.draw_double(static_cast<std::uint64_t>(c));
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    const double p = rng.draw_double_pos(static_cast<std::uint64_t>(c));
    ASSERT_GT(p, 0.0);
    ASSERT_LE(p, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(CounterRng, BernoulliEdgeCasesAndFrequency) {
  const CounterRng rng(31);
  EXPECT_TRUE(rng.bernoulli(0, 1.0));
  EXPECT_TRUE(rng.bernoulli(0, 2.0));
  EXPECT_FALSE(rng.bernoulli(0, 0.0));
  EXPECT_FALSE(rng.bernoulli(0, -1.0));
  int hits = 0;
  const int n = 100000;
  for (int c = 0; c < n; ++c) hits += rng.bernoulli(static_cast<std::uint64_t>(c), 0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(CounterRng, DrawBelowBoundsAndUniformity) {
  const CounterRng rng(55);
  EXPECT_EQ(rng.draw_below(0, 0), 0u);
  EXPECT_EQ(rng.draw_below(0, 1), 0u);
  const std::uint64_t k = 8;
  std::vector<int> counts(k, 0);
  const int n = 80000;
  for (int c = 0; c < n; ++c) {
    const std::uint64_t x = rng.draw_below(static_cast<std::uint64_t>(c), k);
    ASSERT_LT(x, k);
    ++counts[x];
  }
  for (std::uint64_t j = 0; j < k; ++j) {
    EXPECT_NEAR(static_cast<double>(counts[j]) / n, 1.0 / static_cast<double>(k), 0.01);
  }
}

// ----------------------------------------------------- stream regression

// Pins the exact first outputs of Rng::stream for a spread of (seed, id)
// pairs. Per-packet streams are the substrate of engine trace-equivalence:
// if stream derivation or xoshiro iteration changes in ANY way, every
// simulation trace silently shifts and cross-version comparisons become
// meaningless. This test makes that a loud, named failure instead.
TEST(RngStreamRegression, PinnedOutputsNeverShift) {
  struct Pin {
    std::uint64_t seed, id;
    std::uint64_t expect[4];
  };
  const Pin pins[] = {
      {1, 0, {0xd1f560e4b01c9a2dULL, 0x4b340ef0172153e8ULL, 0x807f41f2c621823cULL,
              0xcf440bfc104bcc93ULL}},
      {1, 1, {0x018ebee24194a974ULL, 0xc760803e4dc481b1ULL, 0x8e198c3a9392d8dcULL,
              0xc803ea7de61a96ffULL}},
      {42, 7, {0x592cde9ae4b5922fULL, 0x28adea2e01c11488ULL, 0xb9534573fc671a5eULL,
               0x225f6837c875fb2bULL}},
      {0x6c0ffee5eedULL, 12345, {0x2907709e3e546a0fULL, 0xcf957d3bca5b36bcULL,
                                 0x0a5b8bded539681eULL, 0xce648e315375e88aULL}},
  };
  for (const Pin& pin : pins) {
    Rng rng = Rng::stream(pin.seed, pin.id);
    for (const std::uint64_t want : pin.expect) {
      EXPECT_EQ(rng.next_u64(), want) << "stream(" << pin.seed << ", " << pin.id << ")";
    }
  }
}

// Same discipline for CounterRng: jammer traces key off these exact values.
TEST(RngStreamRegression, CounterRngPinnedOutputsNeverShift) {
  const CounterRng rng(9001);
  EXPECT_EQ(rng.draw(0), 0xa28aee2d4a23f7acULL);
  EXPECT_EQ(rng.draw(1, 2), 0x249e0455a37c56b1ULL);
}

// --------------------------------------------------------- batched coins

// The batched span evaluator must agree coin-for-coin with the scalar
// bernoulli loop it replaces in the jammers' quiet-span replay — across
// block boundaries, probability edges, and cap truncation.
TEST(CounterRngBatch, CountSpanMatchesScalarLoop) {
  Rng meta(77);
  for (int trial = 0; trial < 200; ++trial) {
    const CounterRng rng(meta.next_u64(), meta.next_below(16));
    const double p = meta.next_double();
    const std::uint64_t lo = meta.next_below(100000);
    const std::uint64_t hi = lo + meta.next_below(300);  // straddles 64-blocks
    const std::uint64_t lane = meta.next_below(3);
    std::uint64_t want = 0;
    for (std::uint64_t c = lo; c <= hi; ++c) want += rng.bernoulli(c, p, lane);
    EXPECT_EQ(rng.count_bernoulli_span(lo, hi, p, ~0ULL, lane), want)
        << "p=" << p << " lo=" << lo << " hi=" << hi << " lane=" << lane;
  }
}

TEST(CounterRngBatch, CountSpanHonorsTheCapLikeTheReplayLoop) {
  const CounterRng rng(4242);
  const double p = 0.35;
  for (std::uint64_t cap : {0ULL, 1ULL, 7ULL, 64ULL, 1000ULL}) {
    std::uint64_t want = 0;
    for (std::uint64_t c = 10; c <= 900 && want < cap; ++c) want += rng.bernoulli(c, p);
    EXPECT_EQ(rng.count_bernoulli_span(10, 900, p, cap), want) << "cap=" << cap;
  }
}

TEST(CounterRngBatch, ShortSpansMatchTheReplayLoopAcrossTheInlineCutoff) {
  // Spans up to kInlineSpan coins are counted inline, longer ones in
  // popcount blocks: both sides of the cutoff must equal the capped replay loop,
  // degenerate probabilities included.
  const CounterRng rng(31337, 4);
  const std::uint64_t cutoff = CounterRng::kInlineSpan;
  for (std::uint64_t len = 1; len <= cutoff + 2; ++len) {
    for (const double p : {-1.0, 0.0, 0.3, 0.999, 1.0, 2.0}) {
      for (const std::uint64_t cap : {1ULL, 2ULL, 5ULL, ~0ULL}) {
        for (const std::uint64_t lo : {0ULL, 777ULL, ~0ULL - len}) {
          const std::uint64_t hi = lo + len - 1;
          std::uint64_t want = 0;
          for (std::uint64_t i = 0; i < len && want < cap; ++i) {
            want += rng.bernoulli(lo + i, p, 1);
          }
          EXPECT_EQ(rng.count_bernoulli_span(lo, hi, p, cap, 1), want)
              << "len=" << len << " p=" << p << " cap=" << cap << " lo=" << lo;
        }
      }
    }
  }
}

TEST(CounterRngBatch, CountSpanEdgeProbabilities) {
  const CounterRng rng(5);
  EXPECT_EQ(rng.count_bernoulli_span(0, 999, 0.0), 0u);
  EXPECT_EQ(rng.count_bernoulli_span(0, 999, -1.0), 0u);
  EXPECT_EQ(rng.count_bernoulli_span(0, 999, 1.0), 1000u);
  EXPECT_EQ(rng.count_bernoulli_span(0, 999, 2.0, 300), 300u);  // cap on always-jam
  EXPECT_EQ(rng.count_bernoulli_span(10, 9, 0.5), 0u);          // empty span
  EXPECT_EQ(rng.count_bernoulli_span(42, 42, 0.5), rng.bernoulli(42, 0.5) ? 1u : 0u);
}

TEST(CounterRngBatch, BernoulliThresholdReproducesTheDoubleCompare) {
  Rng meta(123);
  for (int trial = 0; trial < 500; ++trial) {
    const double p = trial < 10 ? static_cast<double>(trial) / 10.0 : meta.next_double();
    const std::uint64_t thr = CounterRng::bernoulli_threshold(p);
    for (int probe = 0; probe < 20; ++probe) {
      const std::uint64_t x = meta.next_u64() >> 11;
      EXPECT_EQ(x < thr, static_cast<double>(x) * 0x1.0p-53 < p)
          << "p=" << p << " x=" << x;
    }
  }
}

// CounterRng(9001).key(): the key the span goldens below depend on.
constexpr std::uint64_t kKey9001 = 0x88cfe1f72ba5ca9fULL;

// The per-slot loop count_jittered_band_span documents, with each product
// in its own statement so no compiler can fuse it into the subtraction
// or addition (the library builds its replay with -ffp-contract=off).
std::uint64_t jittered_band_reference(const CounterRng& rng, std::uint64_t lo, std::uint64_t hi,
                                      double contention, double band_lo, double band_hi,
                                      double jitter, double rate, std::uint64_t cap) {
  std::uint64_t n = 0;
  for (std::uint64_t t = lo; t <= hi && n < cap; ++t) {
    const double push_lo = jitter * rng.draw_double(t, 1);
    const double push_hi = jitter * rng.draw_double(t, 2);
    const double lo_t = band_lo - push_lo;
    const double hi_t = band_hi + push_hi;
    if (!(contention < lo_t || contention > hi_t)) n += rng.bernoulli(t, rate, 0);
  }
  return n;
}

TEST(CounterRngBatch, SpanGoldens) {
  const CounterRng rng(9001);
  ASSERT_EQ(rng.key(), kKey9001);
  EXPECT_EQ(rng.count_bernoulli_span(0, 999, 0.25, ~0ULL, 0), 253u);
  EXPECT_EQ(rng.count_bernoulli_span(123, 70000, 0.01, ~0ULL, 3), 687u);
  EXPECT_EQ(rng.count_bernoulli_span(5, 5000, 0.999, 1234, 1), 1234u);
  EXPECT_EQ(rng.count_bernoulli_span(1000000, 1131071, 0.5, ~0ULL, 0), 65768u);

  EXPECT_EQ(rng.count_jittered_band_span(0, 9999, 1.25, 1.0, 3.0, 0.75, 0.5), 4951u);
  EXPECT_EQ(rng.count_jittered_band_span(42, 31000, 0.9, 1.0, 3.0, 0.25, 0.9), 16743u);
  EXPECT_EQ(rng.count_jittered_band_span(7, 20006, 3.1, 1.0, 3.0, 0.5, 0.3, 500), 500u);
}

TEST(CounterRngBatch, RandomizedSpanMatchesPerSlotLoopMillionCoins) {
  // ~2000 random spans x ~500 coins: a million randomized (key, counter,
  // lane) triples, on both sides of the inline cutoff. Caps land
  // mid-span about half the time.
  Rng meta(0x51D0C01Eu);
  std::uint64_t coins = 0;
  while (coins < 1000000) {
    const CounterRng rng(meta.next_u64());
    const std::uint64_t lo = meta.next_u64() >> 4;  // keep lo + len far from 2^64
    const std::uint64_t len = 1 + meta.next_below(1000);
    const std::uint64_t hi = lo + len - 1;
    const std::uint64_t lane = meta.next_below(5);
    const double p = meta.next_double();
    const std::uint64_t cap = meta.bernoulli(0.5) ? 1 + meta.next_below(len) : ~0ULL;
    std::uint64_t want = 0;
    for (std::uint64_t c = lo; c <= hi && want < cap; ++c) want += rng.bernoulli(c, p, lane);
    ASSERT_EQ(rng.count_bernoulli_span(lo, hi, p, cap, lane), want)
        << "key=" << rng.key() << " lo=" << lo << " len=" << len << " p=" << p
        << " lane=" << lane << " cap=" << cap;
    coins += len;
  }
}

TEST(CounterRngBatch, RandomizedJitteredBandMatchesPerSlotLoop) {
  Rng meta(0x1A77E12u);
  for (int round = 0; round < 600; ++round) {
    const CounterRng rng(meta.next_u64());
    const std::uint64_t lo = meta.next_u64() >> 4;
    const std::uint64_t len = 1 + meta.next_below(2000);
    const std::uint64_t hi = lo + len - 1;
    const double band_lo = meta.next_double() * 4.0;
    const double band_hi = band_lo + meta.next_double() * 4.0;
    const double jitter = meta.bernoulli(0.2) ? 0.0 : meta.next_double();
    // Contention lands inside, near an edge, or out of reach.
    const double contention =
        band_lo - 2.0 * jitter + meta.next_double() * (band_hi - band_lo + 4.0 * jitter + 0.25);
    const double rate = meta.next_double();
    const std::uint64_t cap = meta.bernoulli(0.5) ? 1 + meta.next_below(len) : ~0ULL;
    ASSERT_EQ(rng.count_jittered_band_span(lo, hi, contention, band_lo, band_hi, jitter, rate,
                                           cap),
              jittered_band_reference(rng, lo, hi, contention, band_lo, band_hi, jitter, rate,
                                      cap))
        << "key=" << rng.key() << " lo=" << lo << " len=" << len << " band=[" << band_lo << ","
        << band_hi << "] j=" << jitter << " c=" << contention << " cap=" << cap;
  }
}

TEST(CounterRngBatch, SpanWrappersMatchPerSlotReplay) {
  // The CounterRng entry points (what the jammers call) must equal the
  // naive per-slot loops they replaced.
  const CounterRng rng(9001, 7);
  const double rate = 0.37;
  std::uint64_t naive = 0;
  for (std::uint64_t t = 2000; t <= 4500; ++t) {
    naive += static_cast<std::uint64_t>(rng.bernoulli(t, rate, 2));
  }
  EXPECT_EQ(rng.count_bernoulli_span(2000, 4500, rate, ~0ULL, 2), naive);

  // Jittered: per-slot calls (cap=1, the jam() path) must sum to the span
  // call (the count_quiet_range path) — the property that keeps the slot
  // engine and the event engine trace-equivalent.
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

TEST(CounterRngBatch, FullRangeSpanQuirkIsPinned) {
  // lo=0, hi=2^64-1 wraps the span length to 0. The two spans disagree
  // about what that means — count_bernoulli_span's block loop computes
  // `hi - c + 1`, sees 0, and returns 0; the jittered loop never forms a
  // length, so it walks slots until the cap stops it. Both behaviours are
  // pinned, not "fixed".
  const CounterRng rng(9001);
  EXPECT_EQ(rng.count_bernoulli_span(0, ~0ULL, 0.5, 10, 0), 0u);
  // Cap reached: contention sits inside the band.
  EXPECT_EQ(rng.count_jittered_band_span(0, ~0ULL, 1.5, 1.0, 2.0, 0.5, 0.5, 10), 10u);
}

TEST(CounterRngBatch, SpanEndingAtTheCounterTopStopsThere) {
  // hi = 2^64-1: the block loop's `c + block - 1 == hi` exit must stop the
  // walk before `c += block` wraps, for lengths on both sides of the
  // inline cutoff and of the 64-coin block edges.
  const CounterRng rng(9001, 2);
  for (const std::uint64_t len : {1ULL, 8ULL, 9ULL, 63ULL, 64ULL, 65ULL, 128ULL, 130ULL, 1000ULL}) {
    const std::uint64_t lo = ~0ULL - len + 1;
    for (const double p : {0.2, 0.5, 0.95}) {
      std::uint64_t want = 0;
      for (std::uint64_t i = 0; i < len; ++i) want += rng.bernoulli(lo + i, p, 1);
      EXPECT_EQ(rng.count_bernoulli_span(lo, ~0ULL, p, ~0ULL, 1), want)
          << "len=" << len << " p=" << p;
    }
  }
}

TEST(CounterRngBatch, SpansAreAdditiveOverSplitPoints) {
  // The popcount blocks start at lo, not at a multiple of 64: splitting a
  // span anywhere (on or off a block edge) must not change the total.
  Rng meta(0x5B117u);
  for (int trial = 0; trial < 300; ++trial) {
    const CounterRng rng(meta.next_u64());
    const std::uint64_t lo = meta.next_u64() >> 8;
    const std::uint64_t len = 2 + meta.next_below(600);
    const std::uint64_t hi = lo + len - 1;
    const std::uint64_t mid =
        trial % 3 == 0 ? lo + std::min<std::uint64_t>(63, len - 2) : lo + meta.next_below(len - 1);
    const double p = meta.next_double();
    const std::uint64_t lane = meta.next_below(4);
    EXPECT_EQ(rng.count_bernoulli_span(lo, hi, p, ~0ULL, lane),
              rng.count_bernoulli_span(lo, mid, p, ~0ULL, lane) +
                  rng.count_bernoulli_span(mid + 1, hi, p, ~0ULL, lane))
        << "trial=" << trial << " len=" << len << " split=" << mid - lo;
    const double jitter = meta.next_double();
    const double contention = 1.0 - jitter * meta.next_double();
    EXPECT_EQ(rng.count_jittered_band_span(lo, hi, contention, 1.0, 2.0, jitter, p),
              rng.count_jittered_band_span(lo, mid, contention, 1.0, 2.0, jitter, p) +
                  rng.count_jittered_band_span(mid + 1, hi, contention, 1.0, 2.0, jitter, p))
        << "trial=" << trial << " len=" << len << " split=" << mid - lo;
  }
}

TEST(CounterRngBatch, CappedSpanIsTheMinOfTotalAndCap) {
  // Counting is monotone, so stopping at the cap equals min(total, cap)
  // for every cap — the property both spans use to check the cap once
  // per block (or once at the end) instead of once per coin.
  const CounterRng rng(606);
  const std::uint64_t total = rng.count_bernoulli_span(100, 1099, 0.07, ~0ULL, 0);
  const std::uint64_t band_total =
      rng.count_jittered_band_span(100, 1099, 0.9, 1.0, 2.0, 0.3, 0.4, ~0ULL);
  ASSERT_GT(total, 0u);
  ASSERT_GT(band_total, 0u);
  for (std::uint64_t cap = 0; cap <= total + 2; ++cap) {
    EXPECT_EQ(rng.count_bernoulli_span(100, 1099, 0.07, cap, 0), std::min(total, cap))
        << "cap=" << cap;
  }
  for (std::uint64_t cap = 0; cap <= band_total + 2; ++cap) {
    EXPECT_EQ(rng.count_jittered_band_span(100, 1099, 0.9, 1.0, 2.0, 0.3, 0.4, cap),
              std::min(band_total, cap))
        << "cap=" << cap;
  }
}

TEST(CounterRngBatch, JitteredBandEdgeCases) {
  const CounterRng rng(5);
  EXPECT_EQ(rng.count_jittered_band_span(10, 9, 1.5, 1.0, 2.0, 0.5, 0.5), 0u);  // empty span
  EXPECT_EQ(rng.count_jittered_band_span(0, 999, 1.5, 1.0, 2.0, 0.5, 0.5, 0), 0u);
  EXPECT_EQ(rng.count_jittered_band_span(0, 999, 1.5, 1.0, 2.0, 0.5, 0.0), 0u);
  EXPECT_EQ(rng.count_jittered_band_span(0, 999, 1.5, 1.0, 2.0, 0.5, -1.0), 0u);
  // Rate 1 inside the unjittered band jams every slot, up to the cap.
  EXPECT_EQ(rng.count_jittered_band_span(0, 999, 1.5, 1.0, 2.0, 0.5, 1.0), 1000u);
  EXPECT_EQ(rng.count_jittered_band_span(0, 999, 1.5, 1.0, 2.0, 0.5, 1.0, 300), 300u);
  EXPECT_EQ(rng.count_jittered_band_span(42, 42, 1.5, 1.0, 2.0, 0.5, 0.5),
            rng.bernoulli(42, 0.5, 0) ? 1u : 0u);
}

TEST(CounterRngBatch, JitteredBandWithoutJitterIsTheLaneZeroCoin) {
  // jitter = 0 fixes the band, so the replay reduces to the lane-0 rate
  // coin inside [band_lo, band_hi] (edges inclusive) and nothing outside:
  // the identity RandomContentionJammer's jitter-free path relies on.
  const CounterRng rng(4242, 3);
  for (const double contention : {1.0, 1.25, 2.0}) {
    for (const std::uint64_t cap : {1ULL, 17ULL, ~0ULL}) {
      EXPECT_EQ(rng.count_jittered_band_span(50, 2049, contention, 1.0, 2.0, 0.0, 0.3, cap),
                rng.count_bernoulli_span(50, 2049, 0.3, cap, 0))
          << "contention=" << contention << " cap=" << cap;
    }
  }
  for (const double contention : {0.0, std::nextafter(1.0, 0.0), std::nextafter(2.0, 3.0), 9.0}) {
    EXPECT_EQ(rng.count_jittered_band_span(50, 2049, contention, 1.0, 2.0, 0.0, 0.3), 0u)
        << "contention=" << contention;
  }
}

TEST(CounterRngBatch, JitteredBandReachEndsAtTheFullJitter) {
  // Each edge moves outward by jitter * u with u in [0, 1), so contention
  // at or beyond band_lo - jitter / band_hi + jitter is never jammed (the
  // reach check in count_quiet_range skips those spans), while contention
  // just inside the reach is jammed at some slots.
  const CounterRng rng(777);
  const double jitter = 0.5;
  for (const double contention : {0.5, 0.25, 2.5, 3.0}) {
    EXPECT_EQ(rng.count_jittered_band_span(0, 19999, contention, 1.0, 2.0, jitter, 1.0), 0u)
        << "contention=" << contention;
  }
  for (const double contention : {0.55, 2.45}) {
    EXPECT_GT(rng.count_jittered_band_span(0, 19999, contention, 1.0, 2.0, jitter, 1.0), 0u)
        << "contention=" << contention;
  }
}

TEST(CounterRngBatch, SpanMeansMatchTheirRates) {
  // The integer threshold must not bias the coin: a long span counts
  // p * len successes within five standard deviations. For the jittered
  // band, contention at band_lo - jitter / 2 is inside the band exactly
  // when the lane-1 draw is >= 1/2, so the jam rate halves.
  const CounterRng rng(2024, 1);
  const std::uint64_t len = 400000;
  const auto within_five_sigma = [len](std::uint64_t count, double p) {
    const double mean = p * static_cast<double>(len);
    const double sd = std::sqrt(mean * (1.0 - p));
    return std::fabs(static_cast<double>(count) - mean) <= 5.0 * sd;
  };
  for (const double p : {0.01, 0.3, 0.77}) {
    const std::uint64_t n = rng.count_bernoulli_span(1000, 1000 + len - 1, p, ~0ULL, 2);
    EXPECT_TRUE(within_five_sigma(n, p)) << "p=" << p << " count=" << n;
  }
  const std::uint64_t inside = rng.count_jittered_band_span(0, len - 1, 1.5, 1.0, 2.0, 0.4, 0.6);
  EXPECT_TRUE(within_five_sigma(inside, 0.6)) << "count=" << inside;
  const std::uint64_t half = rng.count_jittered_band_span(0, len - 1, 0.8, 1.0, 2.0, 0.4, 0.6);
  EXPECT_TRUE(within_five_sigma(half, 0.3)) << "count=" << half;
}

TEST(CounterRng, BernoulliWithKeyMatchesBernoulli) {
  // The keyless branch-free coin (phase 1's send draw) must agree with the
  // member bernoulli, early outs included: p <= 0, p >= 1, NaN, and the
  // bit-exact neighbours of a threshold.
  Rng meta(88);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int trial = 0; trial < 257; ++trial) {
    const CounterRng rng(meta.next_u64(), static_cast<std::uint64_t>(trial));
    const std::uint64_t counter = meta.next_u64() >> (trial % 64);
    const double u = rng.draw_double(counter);
    for (const double p : {0.0, -0.5, 1.0, 1.5, nan, meta.next_double(), u,
                           std::nextafter(u, 2.0), std::nextafter(u, -1.0)}) {
      for (const std::uint64_t lane : {0ULL, 3ULL}) {
        EXPECT_EQ(CounterRng::bernoulli_with_key(rng.key(), counter, p, lane),
                  rng.bernoulli(counter, p, lane))
            << "trial=" << trial << " p=" << p << " lane=" << lane;
      }
    }
  }
}

TEST(Poisson, VarianceMatchesMean) {
  Rng rng(24);
  const double mean = 8.0;
  const int n = 100000;
  double s = 0.0, s2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = static_cast<double>(rng.poisson(mean));
    s += x;
    s2 += x * x;
  }
  const double m = s / n;
  const double var = s2 / n - m * m;
  EXPECT_NEAR(var, mean, mean * 0.1);
}

}  // namespace
}  // namespace lowsense
