// Built with -ffp-contract=off (see CMakeLists.txt): the jittered-band
// span below must round each mul/sub/add on its own, so no target may
// fuse them into FMAs and the pinned digests hold on every target.
#include "core/rng.hpp"

#include <algorithm>
#include <limits>

namespace lowsense {

std::uint64_t Rng::next_below(std::uint64_t n) noexcept {
  if (n <= 1) return 0;
  // Rejection sampling on the top of the range to remove modulo bias.
  const std::uint64_t limit =
      std::numeric_limits<std::uint64_t>::max() - std::numeric_limits<std::uint64_t>::max() % n;
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return x % n;
}

std::uint64_t Rng::geometric_gap(double p) noexcept {
  // The stages of geometric_gap(p, log1m_p), with the log1p taken only
  // when the threshold stage leaves the draw undecided.
  if (const std::uint64_t g = geometric_gap_without_draw(p)) return g;
  const double u = next_double_pos();
  if (const std::uint64_t g = geometric_gap_by_threshold(p, u)) return g;
  return geometric_gap_from_log(std::log(u), std::log1p(-p));
}

std::uint64_t Rng::geometric_gap(double p, double log1m_p) noexcept {
  if (const std::uint64_t g = geometric_gap_without_draw(p)) return g;
  const double u = next_double_pos();
  if (const std::uint64_t g = geometric_gap_by_threshold(p, u)) return g;
  return geometric_gap_from_log(std::log(u), log1m_p);
}

std::uint64_t Rng::poisson(double mean) noexcept {
  // Same branches as below, so only the product method pays for the exp.
  if (mean <= 0.0 || mean >= 32.0) return poisson(mean, 0.0);
  return poisson(mean, std::exp(-mean));
}

std::uint64_t Rng::poisson(double mean, double exp_neg_mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean < 32.0) {
    // Knuth's product method.
    const double l = exp_neg_mean;
    std::uint64_t k = 0;
    double prod = next_double_pos();
    while (prod > l) {
      ++k;
      prod *= next_double_pos();
    }
    return k;
  }
  // Normal approximation with continuity correction; adequate for the
  // high-rate arrival processes used in long-horizon experiments.
  const double u1 = next_double_pos();
  const double u2 = next_double();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  const double x = mean + std::sqrt(mean) * z + 0.5;
  if (x >= 0x1.0p64) return std::numeric_limits<std::uint64_t>::max();  // the cast would be UB
  return x <= 0.0 ? 0 : static_cast<std::uint64_t>(x);
}

std::uint64_t CounterRng::draw_below(std::uint64_t counter, std::uint64_t n,
                                     std::uint64_t lane) const noexcept {
  if (n <= 1) return 0;
  const auto wide = static_cast<unsigned __int128>(draw(counter, lane));
  return static_cast<std::uint64_t>((wide * n) >> 64);
}

std::uint64_t CounterRng::bernoulli_threshold(double p) noexcept {
  if (!(p > 0.0)) return 0;  // NaN too: bernoulli's `draw < p` never holds
  if (p >= 1.0) return 1ULL << 53;  // every draw >> 11 is below 2^53
  // p * 2^53 is an exact power-of-two scaling; ceil() makes the integer
  // compare equivalent to the real one for both integral and fractional
  // thresholds (x < T_real  <=>  x < ceil(T_real) for integer x).
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

std::uint64_t CounterRng::count_bernoulli_span(std::uint64_t lo, std::uint64_t hi, double p,
                                               std::uint64_t cap,
                                               std::uint64_t lane) const noexcept {
  if (hi < lo || cap == 0) return 0;
  const std::uint64_t len = hi - lo + 1;
  if (len - 1 < kInlineSpan) {
    // A short span (the event engine's typical quiet gap is a slot or
    // two) is cheaper as a plain loop than a threshold plus the block
    // loop. Counting is monotone, so capping the total equals the
    // loop-until-cap replay. len == 0 (the wrapped full range) wraps
    // past the test and keeps the block loop's answer, 0.
    std::uint64_t n = 0;
    for (std::uint64_t i = 0; i < len; ++i) n += bernoulli_with_key(key_, lo + i, p, lane);
    return n < cap ? n : cap;
  }
  const std::uint64_t thr = bernoulli_threshold(p);
  if (thr == 0) return 0;
  if (thr == (1ULL << 53)) return len < cap ? len : cap;
  // 64-coin blocks: build a success mask, popcount it. Counting is
  // monotone, so min(total, cap) equals the loop-until-cap replay and the
  // cap check only needs to run per block.
  std::uint64_t n = 0;
  std::uint64_t c = lo;
  while (c <= hi && n < cap) {
    const std::uint64_t block = std::min<std::uint64_t>(64, hi - c + 1);
    std::uint64_t mask = 0;
    for (std::uint64_t i = 0; i < block; ++i) {
      mask |= static_cast<std::uint64_t>((draw_with_key(key_, c + i, lane) >> 11) < thr) << i;
    }
    n += static_cast<std::uint64_t>(__builtin_popcountll(mask));
    if (c + block - 1 == hi) break;  // avoid overflow when hi is huge
    c += block;
  }
  return n < cap ? n : cap;
}

std::uint64_t CounterRng::count_jittered_band_span(std::uint64_t lo, std::uint64_t hi,
                                                   double contention, double band_lo,
                                                   double band_hi, double jitter, double rate,
                                                   std::uint64_t cap) const noexcept {
  if (hi < lo || cap == 0) return 0;
  const std::uint64_t thr = bernoulli_threshold(rate);
  if (thr == 0) return 0;  // the lane-0 coin never hits, band or no band
  // Per slot: lanes 1/2 jitter each band edge outward by an independent
  // uniform amount in [0, jitter); lane 0 is the jam coin, as an integer
  // threshold compare (exact — see bernoulli_threshold).
  std::uint64_t n = 0;
  for (std::uint64_t t = lo; t <= hi && n < cap; ++t) {
    const double lo_t = band_lo - jitter * draw_double(t, 1);
    const double hi_t = band_hi + jitter * draw_double(t, 2);
    if (contention < lo_t || contention > hi_t) continue;
    n += static_cast<std::uint64_t>((draw_with_key(key_, t, 0) >> 11) < thr);
  }
  return n < cap ? n : cap;
}

}  // namespace lowsense
