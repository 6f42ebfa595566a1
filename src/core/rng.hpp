// Deterministic, splittable pseudo-random number generation.
//
// Every stochastic component of the library draws from an explicitly seeded
// `Rng` so that whole experiments replay bit-identically from a single master
// seed. Packets get independent streams derived from (master seed, packet id),
// which is what makes the slot engine and the event engine trace-equivalent:
// both consume the same per-packet draws in the same order.
#pragma once

#include <cstdint>
#include <cmath>
#include <limits>

namespace lowsense {

/// SplitMix64: used for seeding and for cheap stream derivation.
/// Passes BigCrush when used as a generator; here it mainly whitens seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256++ — fast, high-quality 64-bit generator (Blackman & Vigna).
/// Not cryptographic; more than adequate for Monte-Carlo simulation.
class Rng {
 public:
  /// Seeds the four state words via SplitMix64 so that any 64-bit seed,
  /// including 0, yields a well-mixed state.
  explicit Rng(std::uint64_t seed = 0x6c0ffee5eedULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.next();
  }

  /// Derives an independent stream for substream `id` of this seed.
  /// Mixing both words through SplitMix64 keeps streams decorrelated even
  /// for adjacent ids.
  static Rng stream(std::uint64_t seed, std::uint64_t id) noexcept {
    SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ULL * (id + 1)));
    (void)sm.next();
    return Rng(sm.next());
  }

  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1). 53 bits of mantissa entropy.
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1]; safe as an argument to log().
  double next_double_pos() noexcept {
    return (static_cast<double>(next_u64() >> 11) + 1.0) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability `p` (clamped to [0,1]).
  bool bernoulli(double p) noexcept {
    if (p >= 1.0) return true;
    if (p <= 0.0) return false;
    return next_double() < p;
  }

  /// Uniform integer in [0, n). Unbiased via rejection (Lemire-style fast
  /// path would be overkill here; modulo bias is avoided by widening).
  std::uint64_t next_below(std::uint64_t n) noexcept;

  /// Geometric "gap" sample: the 1-based index of the first success in a
  /// Bernoulli(p) sequence. Support {1, 2, ...}. p >= 1 returns 1.
  ///
  /// This is the single primitive both simulation engines share: a packet
  /// whose per-slot access probability is constant between accesses draws
  /// its next access offset with one call.
  ///
  /// A draw runs up to three stages, and consumes exactly one uniform
  /// U = next_double_pos() unless the first stage decides:
  ///
  ///   g = geometric_gap_without_draw(p);             // p >= 1, p <= 0
  ///   if (g == 0) { u = next_double_pos();
  ///     g = geometric_gap_by_threshold(p, u);        // p in [1/2, 1), short gaps
  ///     if (g == 0) g = geometric_gap_from_log(std::log(u), std::log1p(-p)); }
  ///
  /// The gap is a pure function of (p, U): the middle stage decides only
  /// where its answer equals the last stage's, so every gap is the log
  /// formula's bit for bit and the stream advances identically.
  std::uint64_t geometric_gap(double p) noexcept;

  /// The same draw with ln(1 - p) supplied by the caller, who must pass
  /// exactly std::log1p(-p): a protocol whose p changes only on feedback
  /// caches the log instead of recomputing it for every gap. Bit-identical
  /// to geometric_gap(p) under that precondition. The one-argument form
  /// takes the log only on a draw the threshold stage leaves undecided,
  /// so for p >= 1/2 it is the cheaper of the two.
  std::uint64_t geometric_gap(double p, double log1m_p) noexcept;

  // The three stages are public for batched callers that run them as
  // separate passes over many packets — with each packet's own stream,
  // bit-identical to one call per packet.

  /// The gap when p needs no uniform — 1 for p >= 1, never (kNoSlot) for
  /// p <= 0 — and 0 otherwise, NaN included.
  static std::uint64_t geometric_gap_without_draw(double p) noexcept {
    if (p >= 1.0) return 1;
    if (p <= 0.0) return std::numeric_limits<std::uint64_t>::max();
    return 0;
  }

  /// Relative half-width of the band around each threshold (1-p)^n inside
  /// which geometric_gap_by_threshold declines to decide.
  static constexpr double kGapGuard = 0x1.0p-30;

  /// The gap for p in [1/2, 1) and a uniform u in (0, 1], without a log:
  /// exactly geometric_gap_from_log(std::log(u), std::log1p(-p)) when it
  /// returns nonzero. It returns 0 ("undecided") when p is outside
  /// [1/2, 1) (NaN included), when the gap exceeds 4, and when u lies in a
  /// band [tn (1 - kGapGuard), tn (1 + kGapGuard)] around a threshold
  /// tn = (1-p)^n, n = 1..4; otherwise the gap is 1 + #{n : u <= tn (1 + kGapGuard)}.
  ///
  /// Why this is the log formula's answer. In real arithmetic the gap is
  /// ceil(r) with r = ln u / ln q, q = 1 - p, and r > n <=> u < q^n. The
  /// formula computes r(1 + d) with |d| <= e_log + e_log1p + 2^-53 (the two
  /// libm relative errors and the division's rounding); the thresholds are
  /// products of exact q (Sterbenz: 1 - p is exact for p in [1/2, 1)) with
  /// at most 4 roundings, far inside the guard. Outside every band, r is
  /// at least ln(1 + kGapGuard) / |ln q| >= 2^-31 / (53 ln 2) from each
  /// integer n <= 4 (q >= 2^-53 since p < 1), and a decided r is below 4,
  /// so the rounded r lands on the same side of every integer as long as
  /// 4 |d| < 2^-31 / 36.8, i.e. |d| < 2^-38.2. That holds whenever libm's
  /// log and log1p are within 2^-40 relative error; glibc's are within
  /// 2 ulp = 2^-51.
  ///
  /// With u uniform, at most q^4 <= 1/16 of the draws (plus ~2^-29 inside
  /// the bands) fall through to the log formula.
  static std::uint64_t geometric_gap_by_threshold(double p, double u) noexcept {
    if (!(p >= 0.5 && p < 1.0)) return 0;
    constexpr double kHi = 1.0 + kGapGuard;
    constexpr double kLo = 1.0 - kGapGuard;
    const double t1 = 1.0 - p;
    const double t2 = t1 * t1;
    const double t3 = t2 * t1;
    const double t4 = t3 * t1;
    // Branch-free: `below` counts thresholds u is surely under, `upto`
    // those it may be under; they differ exactly when u is in a band.
    const int upto = (u <= t1 * kHi) + (u <= t2 * kHi) + (u <= t3 * kHi) + (u <= t4 * kHi);
    const int below = (u < t1 * kLo) + (u < t2 * kLo) + (u < t3 * kLo) + (u < t4 * kLo);
    if (upto != below || upto == 4) return 0;
    return static_cast<std::uint64_t>(1 + upto);
  }

  /// The gap for a uniform U in (0, 1] given as log_u = ln U.
  static std::uint64_t geometric_gap_from_log(double log_u, double log1m_p) noexcept {
    // Inverse transform: gap = ceil(ln U / ln(1-p)).
    const double g = std::ceil(log_u / log1m_p);
    if (g >= 9.0e18) return std::numeric_limits<std::uint64_t>::max();
    return g < 1.0 ? 1 : static_cast<std::uint64_t>(g);
  }

  /// Poisson sample (Knuth for small mean, normal approximation for large;
  /// a sample at or above 2^64 saturates to UINT64_MAX).
  std::uint64_t poisson(double mean) noexcept;

  /// The same draw with e^-mean supplied by the caller, who must pass
  /// exactly std::exp(-mean) (it is read only when 0 < mean < 32): a
  /// process that draws many counts at one fixed mean caches the exp.
  /// Bit-identical to poisson(mean) under that precondition.
  std::uint64_t poisson(double mean, double exp_neg_mean) noexcept;

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4]{};
};

/// Counter-mode generator: a stateless hash over `(key, counter, lane)`
/// built from two SplitMix64 finalization rounds. Where `Rng` is a stream
/// (each draw advances hidden state, so the VALUE of a draw depends on how
/// many came before it), `CounterRng::draw(c)` depends only on the key and
/// the counter — call order, interleaving, and repetition are irrelevant.
///
/// This is the RNG discipline for randomized adversaries: keying every
/// jam decision on the slot number makes the decision a pure function of
/// `(key, slot)`, so the slot-by-slot engine (which asks about each slot
/// individually) and the event engine (which evaluates whole quiet spans
/// at once) reconstruct the exact same coin flips and stay
/// trace-equivalent. The `lane` axis supplies extra independent draws for
/// the same counter (e.g. a jam coin and a boundary jitter in one slot).
class CounterRng {
 public:
  explicit CounterRng(std::uint64_t key = 0) noexcept : key_(mix(key ^ kKeyTweak)) {}

  /// Derives a decorrelated key from `(seed, stream)` — the counter-mode
  /// analogue of `Rng::stream(seed, id)`.
  CounterRng(std::uint64_t seed, std::uint64_t stream) noexcept
      : key_(mix(mix(seed ^ kKeyTweak) + 0x9e3779b97f4a7c15ULL * (stream + 1))) {}

  std::uint64_t key() const noexcept { return key_; }

  /// The core draw: a 64-bit value fully determined by (key, counter, lane).
  std::uint64_t draw(std::uint64_t counter, std::uint64_t lane = 0) const noexcept {
    return draw_with_key(key_, counter, lane);
  }

  /// Keyless form of `draw`: `key` is a raw key() value (already mixed),
  /// not a seed.
  static std::uint64_t draw_with_key(std::uint64_t key, std::uint64_t counter,
                                     std::uint64_t lane = 0) noexcept {
    std::uint64_t z = key + 0x9e3779b97f4a7c15ULL * (counter + 1);
    z = mix(z) + 0xd1b54a32d192ed03ULL * (lane + 1);
    return mix(z);
  }

  /// Uniform double in [0, 1) at (counter, lane). 53 bits of entropy.
  double draw_double(std::uint64_t counter, std::uint64_t lane = 0) const noexcept {
    return static_cast<double>(draw(counter, lane) >> 11) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1]; safe as an argument to log().
  double draw_double_pos(std::uint64_t counter, std::uint64_t lane = 0) const noexcept {
    return (static_cast<double>(draw(counter, lane) >> 11) + 1.0) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability `p` (clamped to [0,1]).
  bool bernoulli(std::uint64_t counter, double p, std::uint64_t lane = 0) const noexcept {
    if (p >= 1.0) return true;
    if (p <= 0.0) return false;
    return draw_double(counter, lane) < p;
  }

  /// Keyless, branch-free form of `bernoulli` for a raw key() value: equal
  /// to `bernoulli(counter, p, lane)` of that key for every p: the uniform
  /// lies in [0, 1), so p >= 1 always succeeds and p <= 0 never does, as
  /// bernoulli's early outs decide (a NaN p fails in both). Phase 1 of
  /// the engines draws each accessor's send coin with it, inline.
  static bool bernoulli_with_key(std::uint64_t key, std::uint64_t counter, double p,
                                 std::uint64_t lane = 0) noexcept {
    return static_cast<double>(draw_with_key(key, counter, lane) >> 11) * 0x1.0p-53 < p;
  }

  /// Uniform integer in [0, n) at (counter, lane). Uses the widening
  /// multiply reduction (bias < n / 2^64 — negligible for simulation, and
  /// unlike rejection it stays a single order-independent draw).
  std::uint64_t draw_below(std::uint64_t counter, std::uint64_t n,
                           std::uint64_t lane = 0) const noexcept;

  // ---------------------------------------------------------- span coins
  //
  // Counter-mode draws are pure, so a SPAN of Bernoulli coins can be
  // evaluated in one call with no visible state: the span forms below
  // produce bit-for-bit the same decisions as the equivalent loop of
  // `bernoulli` calls, but branch-free (integer threshold compare — see
  // bernoulli_threshold). They are the hot path of the randomized
  // jammers' quiet-span replay. Most quiet spans are a few slots long, so
  // the replay is plain scalar code: a popcount per 64-coin block, and an
  // inline loop for short spans.

  /// The integer threshold T with `draw_double(c,l) < p  <=>  draw(c,l)
  /// >> 11 < T`. Exact: x * 2^-53 and p * 2^53 are both power-of-two
  /// scalings, so the real-number comparison carries over to integers
  /// with T = ceil(p * 2^53). p <= 0 and NaN yield 0 (never, as in
  /// bernoulli), p >= 1 yields 2^53 (always, since draws >> 11 < 2^53).
  static std::uint64_t bernoulli_threshold(double p) noexcept;

  /// Number of successes among the Bernoulli(p) coins at counters
  /// [lo, hi] (inclusive), capped at `cap`: exactly the value of
  ///   n = 0; for (c = lo; c <= hi && n < cap; ++c) n += bernoulli(c, p);
  /// but evaluated in popcount blocks with early exit at the cap — the
  /// batched form of the jammers' per-slot quiet-span replay. Spans of at
  /// most kInlineSpan coins skip the blocks and loop inline.
  std::uint64_t count_bernoulli_span(std::uint64_t lo, std::uint64_t hi, double p,
                                     std::uint64_t cap = ~0ULL,
                                     std::uint64_t lane = 0) const noexcept;

  /// Longest span count_bernoulli_span counts with an inline loop.
  static constexpr std::uint64_t kInlineSpan = 8;

  /// The jittered contention-band replay (RandomContentionJammer::hit as
  /// a span): for each counter t in [lo, hi], lanes 1/2 jitter the band
  /// edges outward by jitter * draw_double(t, lane) and lane 0 draws the
  /// jam coin — exactly
  ///   n = 0;
  ///   for (t = lo; t <= hi && n < cap; ++t) {
  ///     lo_t = band_lo - jitter * draw_double(t, 1);
  ///     hi_t = band_hi + jitter * draw_double(t, 2);
  ///     if (!(contention < lo_t || contention > hi_t))
  ///       n += bernoulli(t, rate, 0);
  ///   }
  /// with the coin as an integer threshold compare. The FP band math is
  /// individually rounded (rng.cpp builds with -ffp-contract=off), so
  /// results are bit-identical on every target, and hit()'s length-1
  /// call shares this compiled formula.
  std::uint64_t count_jittered_band_span(std::uint64_t lo, std::uint64_t hi, double contention,
                                         double band_lo, double band_hi, double jitter,
                                         double rate, std::uint64_t cap = ~0ULL) const noexcept;

 private:
  /// SplitMix64 finalizer: full-avalanche 64-bit mix.
  static std::uint64_t mix(std::uint64_t z) noexcept {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Domain-separates CounterRng(k) from Rng streams seeded with k.
  static constexpr std::uint64_t kKeyTweak = 0xc0117e12c0117e12ULL;

  std::uint64_t key_;
};

}  // namespace lowsense
