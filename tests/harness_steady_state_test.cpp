// Regression suite for the SteadyStateObserver accounting edge cases the
// scenario-pack digests lean on:
//
//  * quiet-span jam apportionment must survive multi-billion-slot spans
//    (the pro-rata product used to overflow uint64 and silently drop the
//    span's jams);
//  * summarize() must scale a trailing partial window by the slots the
//    run actually covered, not the nominal window width (which biased
//    window_rate low whenever the horizon was not a multiple of the
//    window).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "adversary/arrivals.hpp"
#include "adversary/jammer.hpp"
#include "harness/experiment.hpp"
#include "harness/steady_state.hpp"
#include "protocols/low_sensing.hpp"
#include "protocols/registry.hpp"

namespace lowsense {
namespace {

Counters counters_with_backlog(std::uint64_t backlog) {
  Counters c;
  c.backlog = backlog;
  return c;
}

// A ~5-billion-slot quiet span carrying ~4 billion jams inside one huge
// window: jams * chunk_slots ~ 2e19 wraps uint64, and the wrapped ceiling
// rounds to ~0, so the pre-fix code dropped essentially every jam.
TEST(SteadyStateQuietSpan, HugeSingleWindowSpanKeepsEveryJam) {
  const Slot window = Slot{1} << 40;
  SteadyStateObserver obs(window);

  const Slot span = 5'000'000'000ULL;
  const std::uint64_t jams = 4'000'000'000ULL;
  obs.on_quiet_span(0, span - 1, jams, counters_with_backlog(7));

  ASSERT_EQ(obs.windows().size(), 1u);
  EXPECT_EQ(obs.windows()[0].jams, jams);
  EXPECT_EQ(obs.windows()[0].active_slots, span);
  EXPECT_EQ(obs.windows()[0].backlog_slot_sum, 7 * span);
}

// The same overflow across window boundaries: chunks of 2^32 slots times
// a multi-billion jam total. Every window must get a near-proportional
// share and the shares must sum exactly to the span total.
TEST(SteadyStateQuietSpan, MultiBillionSlotSpanApportionsAcrossWindows) {
  const Slot window = Slot{1} << 32;
  SteadyStateObserver obs(window);

  const Slot span = 3 * window;  // exactly three windows
  const std::uint64_t jams = span - 5;
  obs.on_quiet_span(0, span - 1, jams, counters_with_backlog(1));

  ASSERT_EQ(obs.windows().size(), 3u);
  std::uint64_t total = 0;
  for (const SteadyWindow& w : obs.windows()) {
    EXPECT_LE(w.jams, w.active_slots);
    EXPECT_EQ(w.active_slots, window);
    total += w.jams;
  }
  EXPECT_EQ(total, jams);
  // Pro-rata with ceil and remainder-to-earliest: every window's share is
  // within windows-1 of the exact fair share jams/3.
  for (const SteadyWindow& w : obs.windows()) {
    EXPECT_NEAR(static_cast<double>(w.jams), static_cast<double>(jams) / 3.0, 2.0);
  }
}

// A span that only PARTIALLY fills its last window still splits exactly
// (the remainder-to-earliest-chunks rule), at overflow-prone sizes.
TEST(SteadyStateQuietSpan, PartialTrailingChunkAtOverflowScale) {
  const Slot window = Slot{1} << 33;
  SteadyStateObserver obs(window);

  const Slot from = window / 2;
  const Slot to = window + window / 4 - 1;  // 3/4 of a window in total
  const Slot span = to - from + 1;
  const std::uint64_t jams = 6'000'000'000ULL;
  obs.on_quiet_span(from, to, jams, counters_with_backlog(0));

  ASSERT_EQ(obs.windows().size(), 2u);
  EXPECT_EQ(obs.windows()[0].jams + obs.windows()[1].jams, jams);
  EXPECT_EQ(obs.windows()[0].active_slots, window - from);
  EXPECT_EQ(obs.windows()[1].active_slots, span - (window - from));
}

// Three windows of departures at identical per-slot rate, but the run
// ends halfway through the third window. The per-window rate must be
// 0.1 everywhere once the partial window is scaled by its coverage; the
// pre-fix code divided the last window by the full width and averaged
// 0.0833.
TEST(SteadyStateSummarize, TrailingPartialWindowScalesByCoverage) {
  const Slot window = 1000;
  SteadyStateObserver obs(window);

  auto departures_in = [&obs](Slot lo, Slot hi, int count) {
    for (int i = 0; i < count; ++i) {
      const Slot slot = lo + static_cast<Slot>(i) * (hi - lo) / static_cast<Slot>(count);
      obs.on_departure(slot, static_cast<PacketId>(slot), lo, 1, 1, 1.0);
    }
  };
  departures_in(0, 999, 100);
  departures_in(1000, 1999, 100);
  departures_in(2000, 2499, 50);  // same 0.1/slot rate, half a window

  Counters end;
  end.slot = 2499;  // horizon ended mid-window
  obs.on_run_end(end);
  EXPECT_EQ(obs.last_slot_seen(), 2499u);

  const SteadySummary s = obs.summarize(0);
  ASSERT_EQ(s.windows, 3u);
  EXPECT_EQ(s.departures, 250u);
  EXPECT_EQ(s.covered_slots, 2500u);
  EXPECT_DOUBLE_EQ(s.window_rate.mean(), 0.1);
  EXPECT_DOUBLE_EQ(s.window_rate.min(), 0.1);
  EXPECT_DOUBLE_EQ(s.window_rate.max(), 0.1);
}

// Horizons that ARE a multiple of the window keep the historical
// semantics: every window contributes its full width.
TEST(SteadyStateSummarize, FullWindowsKeepNominalWidth) {
  const Slot window = 500;
  SteadyStateObserver obs(window);
  for (int w = 0; w < 4; ++w) {
    obs.on_departure(static_cast<Slot>(w) * window + 10, 1, 0, 1, 1, 1.0);
  }
  Counters end;
  end.slot = 4 * window - 1;
  obs.on_run_end(end);

  const SteadySummary s = obs.summarize(0);
  ASSERT_EQ(s.windows, 4u);
  EXPECT_EQ(s.covered_slots, 4 * window);
  EXPECT_DOUBLE_EQ(s.window_rate.mean(), 1.0 / 500.0);
}

// End to end on a real open-system run whose horizon ends mid-window:
// both engines must agree on the coverage-scaled summary exactly, and the
// summary must cover precisely the horizon.
TEST(SteadyStateSummarize, EngineAgreementOnPartialHorizon) {
  const Slot horizon = 12'500;  // 2.5 windows of 5000
  const Slot window = 5000;

  SteadySummary got[2];
  int leg = 0;
  for (const EngineKind engine : {EngineKind::kSlot, EngineKind::kEvent}) {
    Scenario s;
    s.name = "partial-horizon";
    s.protocol = [] { return make_protocol("low-sensing"); };
    s.arrivals = parse_arrivals_spec("poisson:0.05,0");
    s.jammer = parse_jammer_spec("random:0.1", 7);
    s.config.max_slot = horizon;
    s.engine = engine;

    SteadyStateObserver obs(window);
    run_scenario(s, 42, {&obs});
    got[leg++] = obs.summarize(0);
  }

  EXPECT_EQ(got[0].windows, got[1].windows);
  EXPECT_EQ(got[0].departures, got[1].departures);
  EXPECT_EQ(got[0].covered_slots, got[1].covered_slots);
  EXPECT_DOUBLE_EQ(got[0].window_rate.mean(), got[1].window_rate.mean());
  EXPECT_DOUBLE_EQ(got[0].rate(), got[1].rate());
  EXPECT_DOUBLE_EQ(got[0].latency.mean(), got[1].latency.mean());
  // Coverage ends at the last ACTIVE slot — counters.slot does not
  // advance through an empty-system tail, and both engines agree on that
  // endpoint. The run must have reached into the partial third window
  // without exceeding the inclusive horizon.
  EXPECT_GT(got[0].covered_slots, 2 * window);
  EXPECT_LE(got[0].covered_slots, horizon + 1);
}

// The observer caches the last window it found. Callbacks that straddle
// window boundaries (the last slot of one window, the first of the next),
// a quiet span across three windows, and one out-of-order callback must
// land exactly where windows computed by division put them.
TEST(SteadyStateWindows, CachedWindowMatchesDivisionAcrossBoundaries) {
  const Slot window = 100;
  SteadyStateObserver obs(window);
  std::vector<SteadyWindow> want;
  const auto at = [&](Slot t) -> SteadyWindow& {
    const std::size_t idx = static_cast<std::size_t>(t / window);
    while (want.size() <= idx) {
      want.emplace_back();
      want.back().start = static_cast<Slot>(want.size() - 1) * window;
    }
    return want[idx];
  };
  const auto slot = [&](Slot t, std::uint32_t accessors, std::uint32_t senders, bool jammed,
                        std::uint64_t backlog) {
    SlotInfo info;
    info.slot = t;
    info.accessors = accessors;
    info.senders = senders;
    info.jammed = jammed;
    obs.on_slot(info, counters_with_backlog(backlog));
    SteadyWindow& w = at(t);
    ++w.active_slots;
    w.jams += jammed ? 1 : 0;
    w.accesses += accessors;
    w.sends += senders;
    w.backlog_slot_sum += backlog;
    w.backlog_peak = std::max(w.backlog_peak, backlog);
  };
  const auto arrival = [&](Slot t) {
    obs.on_arrival(t, 0, LowSensingBackoff{});
    ++at(t).arrivals;
  };
  const auto departure = [&](Slot t, Slot arrived) {
    obs.on_departure(t, 0, arrived, 1, 1, 1.0);
    ++at(t).departures;
    at(t).latency.add(static_cast<double>(t - arrived));
  };

  arrival(99);
  slot(99, 1, 1, false, 1);
  arrival(100);
  slot(100, 2, 2, true, 2);
  departure(199, 99);
  slot(199, 2, 1, false, 1);
  // Quiet span over windows 2, 3 and 4 (50 + 100 + 100 slots): the 7 jams
  // go pro rata, ceil(7 * 50/250) = 2, then 3, then the 2 left.
  obs.on_quiet_span(250, 499, 7, counters_with_backlog(1));
  const std::uint64_t span_jams[] = {2, 3, 2};
  for (std::size_t i = 0; i < 3; ++i) {
    SteadyWindow& w = at(250 + 100 * i);
    w.active_slots += i == 0 ? 50 : 100;
    w.jams += span_jams[i];
    w.backlog_slot_sum += i == 0 ? 50 : 100;
    w.backlog_peak = std::max<std::uint64_t>(w.backlog_peak, 1);
  }
  departure(500, 100);
  slot(500, 1, 1, false, 0);
  arrival(42);  // out of order: back to window 0, then forward again
  slot(699, 3, 0, false, 1);

  ASSERT_EQ(obs.windows().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const SteadyWindow& got = obs.windows()[i];
    EXPECT_EQ(got.start, want[i].start) << "window " << i;
    EXPECT_EQ(got.arrivals, want[i].arrivals) << "window " << i;
    EXPECT_EQ(got.departures, want[i].departures) << "window " << i;
    EXPECT_EQ(got.active_slots, want[i].active_slots) << "window " << i;
    EXPECT_EQ(got.jams, want[i].jams) << "window " << i;
    EXPECT_EQ(got.accesses, want[i].accesses) << "window " << i;
    EXPECT_EQ(got.sends, want[i].sends) << "window " << i;
    EXPECT_EQ(got.backlog_peak, want[i].backlog_peak) << "window " << i;
    EXPECT_EQ(got.backlog_slot_sum, want[i].backlog_slot_sum) << "window " << i;
    EXPECT_EQ(got.latency.count(), want[i].latency.count()) << "window " << i;
    EXPECT_EQ(got.latency.sum(), want[i].latency.sum()) << "window " << i;
  }
  EXPECT_EQ(obs.windows()[0].arrivals, 2u);  // slots 99 and 42
  EXPECT_EQ(obs.windows()[3].jams, 3u);
  EXPECT_EQ(obs.last_slot_seen(), 699u);
}

}  // namespace
}  // namespace lowsense
