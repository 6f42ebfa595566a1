// Windowed steady-state instrumentation for open-system runs.
//
// A SteadyStateObserver partitions absolute slots into fixed windows of
// `window` slots and accumulates per-window throughput, backlog, latency,
// and energy — the time-series view a steady-state experiment reads
// after discarding a warmup prefix, where RunResult only carries
// whole-run cumulative numbers.
//
// EXACTNESS ACROSS ENGINES. Arrivals, departures (and hence latency,
// keyed by the departure slot), accesses, and sends are point events
// reported with their exact slot, so those columns are identical under
// the slot and event engines. Backlog only changes at arrivals and
// departures, and the event engine reports every slot containing either,
// so the backlog integral over active slots is exact on both engines
// too. The one engine-visible difference: within an access-free quiet
// span the event engine knows only the span's jam TOTAL, not which slots
// were jammed, so a span straddling a window boundary attributes its
// jams pro-rata by slot count (active-slot counts are still exact — the
// whole span is active). Cumulative totals match the slot engine always;
// per-window jam counts match except for that straddling case.
#pragma once

#include <cstdint>
#include <vector>

#include "core/stats.hpp"
#include "core/types.hpp"
#include "sim/observer.hpp"

namespace lowsense {

/// One window of `window` consecutive absolute slots.
struct SteadyWindow {
  Slot start = 0;  ///< first slot of the window (index * window)
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;  ///< successful deliveries in the window
  std::uint64_t active_slots = 0;
  std::uint64_t jams = 0;      ///< jammed active slots (see pro-rata note)
  std::uint64_t accesses = 0;  ///< channel accesses (the energy column)
  std::uint64_t sends = 0;
  std::uint64_t backlog_peak = 0;  ///< max end-of-slot backlog observed
  /// Σ end-of-slot backlog over the window's active slots; divide by
  /// active_slots for the time-averaged backlog while the system ran.
  std::uint64_t backlog_slot_sum = 0;
  StreamingStats latency;  ///< departure - arrival of this window's departures
};

/// Post-warmup aggregate over a window series.
struct SteadySummary {
  std::size_t windows = 0;  ///< windows summarized (after warmup)
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  std::uint64_t accesses = 0;
  std::uint64_t backlog_peak = 0;
  /// Slots the run actually covered within the summarized windows. Every
  /// window contributes its full width except the last one of a run whose
  /// horizon ends mid-window, which contributes only the slots up to the
  /// final observed slot.
  std::uint64_t covered_slots = 0;
  double mean_backlog = 0.0;      ///< active-slot-weighted across windows
  /// Per-window departures / COVERED slots of that window: a trailing
  /// partial window is scaled by the slots the run actually reached, not
  /// the nominal width (which used to bias the rate low). Note a very
  /// short trailing window is a high-variance sample; shape checks
  /// should prefer the pooled rate().
  StreamingStats window_rate;
  StreamingStats latency;         ///< merged over the windows' departures

  /// Pooled post-warmup departure rate: departures per covered slot.
  /// Robust to a short trailing window, unlike window_rate's mean.
  double rate() const noexcept {
    return covered_slots == 0
               ? 0.0
               : static_cast<double>(departures) / static_cast<double>(covered_slots);
  }
};

class SteadyStateObserver final : public Observer {
 public:
  /// `window` = slots per window (must be positive).
  explicit SteadyStateObserver(Slot window);

  void on_arrival(Slot slot, PacketId id, const Protocol& proto) override;
  void on_departure(Slot slot, PacketId id, Slot arrival_slot, std::uint64_t accesses,
                    std::uint64_t sends, double final_window) override;
  void on_slot(const SlotInfo& info, const Counters& counters) override;
  void on_quiet_span(Slot from, Slot to, std::uint64_t jams, const Counters& counters) override;
  void on_run_end(const Counters& counters) override;

  /// Last absolute slot any callback reported (on_run_end pins it to the
  /// engine's final counters.slot). Defines the covered span of the
  /// trailing window in summarize().
  Slot last_slot_seen() const noexcept { return last_slot_; }

  /// The window series so far. Windows nobody touched (no arrival, no
  /// active slot) are present but all-zero, so index i always covers
  /// slots [i*window, (i+1)*window).
  const std::vector<SteadyWindow>& windows() const noexcept { return windows_; }

  /// Aggregates windows [warmup_windows, size) — the steady-state tail.
  SteadySummary summarize(std::size_t warmup_windows) const;

 private:
  /// The window holding slot t (grown on demand). Callbacks arrive in
  /// slot order, so the last window found is cached and a slot inside it
  /// costs a compare instead of a 64-bit division.
  SteadyWindow& at_slot(Slot t);

  Slot window_;
  Slot last_slot_ = 0;
  std::vector<SteadyWindow> windows_;
  std::size_t cur_ = 0;  ///< index of the cached window (valid once windows_ is non-empty)
};

}  // namespace lowsense
