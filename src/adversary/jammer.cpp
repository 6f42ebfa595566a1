#include "adversary/jammer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lowsense {

// ---------------------------------------------------------------- schedule

ScheduleJammer::ScheduleJammer(std::vector<Slot> slots) : slots_(std::move(slots)) {
  std::sort(slots_.begin(), slots_.end());
  slots_.erase(std::unique(slots_.begin(), slots_.end()), slots_.end());
}

bool ScheduleJammer::jam(Slot slot, const SystemView&, std::span<const PacketId>) {
  const bool hit = std::binary_search(slots_.begin(), slots_.end(), slot);
  if (hit) ++used_;
  return hit;
}

std::uint64_t ScheduleJammer::count_quiet_range(Slot lo, Slot hi, const SystemView&) {
  if (hi < lo) return 0;
  const auto first = std::lower_bound(slots_.begin(), slots_.end(), lo);
  const auto last = std::upper_bound(slots_.begin(), slots_.end(), hi);
  const auto n = static_cast<std::uint64_t>(last - first);
  used_ += n;
  return n;
}

// ------------------------------------------------------------------ random

RandomJammer::RandomJammer(double rate, std::uint64_t budget, CounterRng rng)
    : rate_(rate), budget_(budget), rng_(rng) {
  if (rate < 0.0 || rate > 1.0) throw std::invalid_argument("RandomJammer: rate in [0,1]");
}

std::uint64_t RandomJammer::remaining_budget() const noexcept {
  if (budget_ == 0) return ~0ULL;  // unlimited
  return budget_ > used_ ? budget_ - used_ : 0;
}

bool RandomJammer::jam(Slot slot, const SystemView&, std::span<const PacketId>) {
  if (remaining_budget() == 0) return false;
  const bool hit = rng_.bernoulli(slot, rate_);
  if (hit) ++used_;
  return hit;
}

std::uint64_t RandomJammer::count_quiet_range(Slot lo, Slot hi, const SystemView&) {
  if (hi < lo || rate_ <= 0.0) return 0;
  // Replay the exact per-slot coins the reference engine would draw, as
  // one batched span evaluation (64-coin popcount blocks instead of a
  // coin-per-slot loop — this is the event engine's O(active slots) cost
  // under random jamming, tracked by BM_EventEngineRandomJammed).
  // Engines consult the jammer over active slots in increasing order, so
  // capping at the remaining budget mid-span lands on the same slot in
  // both: budget exhaustion is part of the trace, not an estimate.
  const std::uint64_t n = rng_.count_bernoulli_span(lo, hi, rate_, remaining_budget());
  used_ += n;
  return n;
}

// ------------------------------------------------------------------- burst

BurstJammer::BurstJammer(Slot period, Slot burst) : period_(period), burst_(burst) {
  if (period_ == 0) throw std::invalid_argument("BurstJammer: period must be positive");
  burst_ = std::min(burst_, period_);
}

bool BurstJammer::jam(Slot slot, const SystemView&, std::span<const PacketId>) {
  const bool hit = in_burst(slot);
  if (hit) ++used_;
  return hit;
}

std::uint64_t BurstJammer::bursts_through(Slot t) const noexcept {
  // Jammed slots in [0, t]: full periods contribute `burst_` each, plus the
  // prefix of the current period.
  const std::uint64_t full = t / period_;
  const Slot rem = t % period_;
  return full * burst_ + std::min(rem + 1, burst_);
}

std::uint64_t BurstJammer::count_quiet_range(Slot lo, Slot hi, const SystemView&) {
  if (hi < lo) return 0;
  const std::uint64_t n = bursts_through(hi) - (lo == 0 ? 0 : bursts_through(lo - 1));
  used_ += n;
  return n;
}

// -------------------------------------------------------- contention band

ContentionBandJammer::ContentionBandJammer(double lo, double hi, std::uint64_t budget)
    : lo_(lo), hi_(hi), budget_(budget) {
  if (!(lo >= 0.0) || hi < lo) throw std::invalid_argument("ContentionBandJammer: bad band");
}

bool ContentionBandJammer::jam(Slot, const SystemView& view, std::span<const PacketId>) {
  if (budget_ != 0 && used_ >= budget_) return false;
  const bool hit = view.n_active > 0 && view.contention >= lo_ && view.contention <= hi_;
  if (hit) ++used_;
  return hit;
}

std::uint64_t ContentionBandJammer::count_quiet_range(Slot lo, Slot hi, const SystemView& view) {
  if (hi < lo) return 0;
  const bool in_band = view.n_active > 0 && view.contention >= lo_ && view.contention <= hi_;
  if (!in_band) return 0;
  std::uint64_t n = hi - lo + 1;
  if (budget_ != 0) n = std::min<std::uint64_t>(n, budget_ > used_ ? budget_ - used_ : 0);
  used_ += n;
  return n;
}

// --------------------------------------------------- random contention band

RandomContentionJammer::RandomContentionJammer(double lo, double hi, double rate,
                                               std::uint64_t budget, CounterRng rng, double jitter)
    : lo_(lo), hi_(hi), rate_(rate), jitter_(jitter), budget_(budget), rng_(rng) {
  if (!(lo >= 0.0) || hi < lo) throw std::invalid_argument("RandomContentionJammer: bad band");
  if (rate < 0.0 || rate > 1.0)
    throw std::invalid_argument("RandomContentionJammer: rate in [0,1]");
  if (!(jitter >= 0.0)) throw std::invalid_argument("RandomContentionJammer: jitter >= 0");
}

bool RandomContentionJammer::hit(Slot slot, const SystemView& view) const noexcept {
  if (view.n_active == 0) return false;
  // Lanes 1/2 jitter each band edge outward by an independent uniform
  // amount in [0, jitter); lane 0 is the jam coin itself. All three are
  // keyed on the slot, so the decision replays identically in any order.
  // The jittered decision is a length-1 call into the band-span replay
  // (core/rng.cpp) — the same compiled FP math (-ffp-contract=off) the
  // span path uses, so per-slot and span evaluation can never diverge.
  // Without jitter the edge draws are multiplied by zero — skip the two
  // hashes (this runs once per active slot on the slot engine).
  if (jitter_ != 0.0) {
    return rng_.count_jittered_band_span(slot, slot, view.contention, lo_, hi_, jitter_, rate_,
                                         1) != 0;
  }
  if (view.contention < lo_ || view.contention > hi_) return false;
  return rng_.bernoulli(slot, rate_, 0);
}

bool RandomContentionJammer::jam(Slot slot, const SystemView& view, std::span<const PacketId>) {
  if (budget_ != 0 && used_ >= budget_) return false;
  const bool h = hit(slot, view);
  if (h) ++used_;
  return h;
}

std::uint64_t RandomContentionJammer::count_quiet_range(Slot lo, Slot hi,
                                                        const SystemView& view) {
  if (hi < lo || rate_ <= 0.0) return 0;
  // Out of the jitter's reach entirely: hit() is false at every slot, so
  // skip the per-slot coin replay (quiet spans can run to millions).
  if (view.n_active == 0 || view.contention < lo_ - jitter_ || view.contention > hi_ + jitter_) {
    return 0;
  }
  const std::uint64_t remaining =
      budget_ == 0 ? ~0ULL : (budget_ > used_ ? budget_ - used_ : 0);
  std::uint64_t n = 0;
  if (jitter_ == 0.0) {
    // Band membership is slot-independent without jitter (and we are in
    // band, or the reach check above would have returned), so the replay
    // collapses to a pure rate coin per slot — batchable. The jitter
    // draws in hit() are multiplied by zero, so skipping them is exact.
    n = rng_.count_bernoulli_span(lo, hi, rate_, remaining);
  } else {
    // Full three-lane replay (jam coin + two edge jitters per slot) in
    // one call. Capping at the remaining budget mid-span is part of the
    // trace, exactly as in the jitter-free path.
    n = rng_.count_jittered_band_span(lo, hi, view.contention, lo_, hi_, jitter_, rate_,
                                      remaining);
  }
  used_ += n;
  return n;
}

// -------------------------------------------------------- reactive victim

ReactiveVictimJammer::ReactiveVictimJammer(PacketId victim, std::uint64_t budget)
    : victim_(victim), budget_(budget) {}

bool ReactiveVictimJammer::jam(Slot, const SystemView&, std::span<const PacketId> senders) {
  if (budget_ != 0 && used_ >= budget_) return false;
  for (PacketId id : senders) {
    if (id == victim_) {
      ++used_;
      return true;
    }
  }
  return false;
}

// ------------------------------------------------------- reactive blanket

ReactiveBlanketJammer::ReactiveBlanketJammer(std::uint64_t budget) : budget_(budget) {}

bool ReactiveBlanketJammer::jam(Slot, const SystemView&, std::span<const PacketId> senders) {
  if (senders.empty()) return false;
  if (budget_ != 0 && used_ >= budget_) return false;
  ++used_;
  return true;
}

}  // namespace lowsense
