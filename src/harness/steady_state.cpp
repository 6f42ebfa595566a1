#include "harness/steady_state.hpp"

#include <cassert>
#include <stdexcept>

namespace lowsense {

SteadyStateObserver::SteadyStateObserver(Slot window) : window_(window) {
  if (window == 0) throw std::invalid_argument("SteadyStateObserver: window must be positive");
}

SteadyWindow& SteadyStateObserver::at_slot(Slot t) {
  if (t > last_slot_) last_slot_ = t;
  // Unsigned wrap sends t < start down the division path too.
  if (!windows_.empty() && t - windows_[cur_].start < window_) return windows_[cur_];
  const std::size_t idx = static_cast<std::size_t>(t / window_);
  cur_ = idx;
  if (idx >= windows_.size()) {
    const std::size_t old = windows_.size();
    windows_.resize(idx + 1);
    for (std::size_t i = old; i < windows_.size(); ++i) {
      windows_[i].start = static_cast<Slot>(i) * window_;
    }
  }
  return windows_[idx];
}

void SteadyStateObserver::on_arrival(Slot slot, PacketId, const Protocol&) {
  ++at_slot(slot).arrivals;
}

void SteadyStateObserver::on_departure(Slot slot, PacketId, Slot arrival_slot,
                                       std::uint64_t /*accesses*/, std::uint64_t /*sends*/,
                                       double) {
  SteadyWindow& w = at_slot(slot);
  ++w.departures;
  w.latency.add(static_cast<double>(slot - arrival_slot));
}

void SteadyStateObserver::on_slot(const SlotInfo& info, const Counters& counters) {
  SteadyWindow& w = at_slot(info.slot);
  ++w.active_slots;
  if (info.jammed) ++w.jams;
  w.accesses += info.accessors;
  w.sends += info.senders;
  w.backlog_slot_sum += counters.backlog;
  if (counters.backlog > w.backlog_peak) w.backlog_peak = counters.backlog;
}

void SteadyStateObserver::on_quiet_span(Slot from, Slot to, std::uint64_t jams,
                                        const Counters& counters) {
  // The whole span is active with constant backlog (no arrivals or
  // departures inside a quiet span); split it exactly at window
  // boundaries. Jams are attributed pro-rata by slot count, remainder to
  // the earliest chunks — the one column the event engine cannot place
  // exactly (see header).
  assert(from <= to);
  const Slot span_slots = to - from + 1;
  std::uint64_t jams_left = jams;
  Slot chunk_start = from;
  while (chunk_start <= to) {
    SteadyWindow& w = at_slot(chunk_start);
    const Slot window_end = w.start + window_ - 1;
    const Slot chunk_end = window_end < to ? window_end : to;
    const Slot chunk_slots = chunk_end - chunk_start + 1;

    // ceil(jams * chunk/span) of the remaining budget, never exceeding it.
    // The product is formed in 128 bits: a multi-billion-slot chunk times
    // a multi-billion jam count overflows uint64 and used to silently
    // drop the whole span's jams (ceil of a wrapped product is ~0).
    // chunk_slots <= span_slots keeps the ceiling <= jams, so the cast
    // back down is exact.
    const unsigned __int128 share =
        (static_cast<unsigned __int128>(jams) * chunk_slots + span_slots - 1) / span_slots;
    std::uint64_t chunk_jams = static_cast<std::uint64_t>(share);
    if (chunk_jams > jams_left) chunk_jams = jams_left;
    jams_left -= chunk_jams;

    w.active_slots += chunk_slots;
    w.jams += chunk_jams;
    w.backlog_slot_sum += counters.backlog * chunk_slots;
    if (counters.backlog > w.backlog_peak) w.backlog_peak = counters.backlog;

    if (chunk_end == to) break;
    chunk_start = chunk_end + 1;
  }
  assert(jams_left == 0);
  if (to > last_slot_) last_slot_ = to;
}

void SteadyStateObserver::on_run_end(const Counters& counters) {
  if (counters.slot > last_slot_) last_slot_ = counters.slot;
}

SteadySummary SteadyStateObserver::summarize(std::size_t warmup_windows) const {
  SteadySummary s;
  std::uint64_t backlog_sum = 0;
  std::uint64_t active_sum = 0;
  for (std::size_t i = warmup_windows; i < windows_.size(); ++i) {
    const SteadyWindow& w = windows_[i];
    ++s.windows;
    s.arrivals += w.arrivals;
    s.departures += w.departures;
    s.accesses += w.accesses;
    if (w.backlog_peak > s.backlog_peak) s.backlog_peak = w.backlog_peak;
    backlog_sum += w.backlog_slot_sum;
    active_sum += w.active_slots;
    // Slots the run actually covered in this window. Only the window
    // holding the run's final slot can be partial; dividing a trailing
    // partial window by the nominal width used to bias its rate low.
    const Slot covered =
        last_slot_ >= w.start + window_ - 1 ? window_ : last_slot_ - w.start + 1;
    s.covered_slots += covered;
    s.window_rate.add(static_cast<double>(w.departures) / static_cast<double>(covered));
    s.latency.merge(w.latency);
  }
  s.mean_backlog =
      active_sum == 0 ? 0.0 : static_cast<double>(backlog_sum) / static_cast<double>(active_sum);
  return s;
}

}  // namespace lowsense
