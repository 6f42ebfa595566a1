// Behavioural tests of both engines against hand-checkable scenarios:
// single packets, tiny batches, jamming, budgets, and drain conditions.
#include <gtest/gtest.h>

#include <memory>

#include "adversary/arrivals.hpp"
#include "adversary/jammer.hpp"
#include "protocols/fixed_probability.hpp"
#include "protocols/low_sensing.hpp"
#include "protocols/mw_full_sensing.hpp"
#include "run_identity.hpp"
#include "sim/event_engine.hpp"
#include "sim/slot_engine.hpp"

namespace lowsense {
namespace {

RunConfig config_with_seed(std::uint64_t seed) {
  RunConfig c;
  c.seed = seed;
  return c;
}

template <typename Engine>
RunResult run_batch(std::uint64_t n, std::uint64_t seed, Jammer* jammer = nullptr,
                    RunConfig cfg = {}) {
  LowSensingFactory factory;
  BatchArrivals arrivals(n);
  NoJammer none;
  cfg.seed = seed;
  Engine engine(factory, arrivals, jammer ? *jammer : static_cast<Jammer&>(none), cfg);
  return engine.run();
}

// ------------------------------------------------------- single packet

TEST(EventEngine, SinglePacketSucceedsImmediatelyFirstSend) {
  // Alone on the channel, the first transmission must succeed.
  const RunResult r = run_batch<EventEngine>(1, 3);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.counters.successes, 1u);
  EXPECT_EQ(r.counters.arrivals, 1u);
  EXPECT_EQ(r.send_stats.max(), 1.0);  // exactly one send, the winner
  EXPECT_EQ(r.counters.backlog, 0u);
}

TEST(SlotEngine, SinglePacketSucceedsImmediatelyFirstSend) {
  const RunResult r = run_batch<SlotEngine>(1, 3);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.counters.successes, 1u);
  EXPECT_EQ(r.send_stats.max(), 1.0);
}

TEST(EventEngine, SinglePacketLatencyMatchesGeometricScale) {
  // Access prob at w_min=16 with c=0.5 is ~0.66 and send|access ~0.094,
  // so expected time-to-success is a few dozen slots; across seeds the
  // average should be modest.
  double total = 0.0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const RunResult r = run_batch<EventEngine>(1, seed);
    total += r.latency_stats.mean();
  }
  EXPECT_LT(total / 50.0, 100.0);
  EXPECT_GT(total / 50.0, 1.0);
}

// ----------------------------------------------------------- batch runs

TEST(EventEngine, BatchDrainsAndConservesPackets) {
  const RunResult r = run_batch<EventEngine>(200, 11);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.counters.arrivals, 200u);
  EXPECT_EQ(r.counters.successes, 200u);
  EXPECT_EQ(r.counters.backlog, 0u);
  EXPECT_EQ(r.peak_backlog, 200u);
  EXPECT_EQ(r.access_stats.count(), 200u);
}

TEST(EventEngine, ActiveSlotsAtLeastN) {
  // Each success occupies one slot, so S >= N always.
  const RunResult r = run_batch<EventEngine>(300, 12);
  EXPECT_GE(r.counters.active_slots, 300u);
}

TEST(EventEngine, EverySuccessIsOneSend) {
  // Total sends >= total successes; each packet sends at least once.
  const RunResult r = run_batch<EventEngine>(100, 13);
  EXPECT_GE(r.send_stats.sum(), 100.0);
  EXPECT_GE(r.send_stats.min(), 1.0);
}

TEST(EventEngine, DeterministicAcrossReruns) {
  const auto run = [] {
    LowSensingFactory factory;
    BatchArrivals arrivals(128);
    NoJammer none;
    return record_run(EngineKind::kEvent, factory, arrivals, none, config_with_seed(77));
  };
  expect_same_run(run(), run(), "rerun");
}

TEST(EventEngine, DifferentSeedsDiffer) {
  const RunResult a = run_batch<EventEngine>(128, 1);
  const RunResult b = run_batch<EventEngine>(128, 2);
  EXPECT_NE(a.counters.active_slots, b.counters.active_slots);
}

// --------------------------------------------------------------- budgets

TEST(EventEngine, MaxActiveSlotBudgetStopsRun) {
  RunConfig cfg;
  cfg.max_active_slots = 50;
  const RunResult r = run_batch<EventEngine>(1000, 5, nullptr, cfg);
  EXPECT_FALSE(r.drained);
  EXPECT_LE(r.counters.active_slots, 50u);
  EXPECT_GT(r.counters.backlog, 0u);
}

TEST(SlotEngine, MaxActiveSlotBudgetStopsRun) {
  RunConfig cfg;
  cfg.max_active_slots = 50;
  const RunResult r = run_batch<SlotEngine>(1000, 5, nullptr, cfg);
  EXPECT_FALSE(r.drained);
  EXPECT_LE(r.counters.active_slots, 50u);
}

TEST(EventEngine, MaxSlotBudgetStopsRun) {
  RunConfig cfg;
  cfg.max_slot = 100;
  const RunResult r = run_batch<EventEngine>(1000, 5, nullptr, cfg);
  EXPECT_FALSE(r.drained);
  EXPECT_LE(r.counters.slot, 100u);
}

// -------------------------------------------------------------- arrivals

TEST(EventEngine, InactiveGapsAreNotCounted) {
  // Two lone packets far apart: the dead time between them must not count
  // as active slots.
  LowSensingFactory factory;
  ScheduleArrivals arrivals({{0, 1}, {1000000, 1}});
  NoJammer none;
  EventEngine engine(factory, arrivals, none, config_with_seed(9));
  const RunResult r = engine.run();
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.counters.successes, 2u);
  EXPECT_LT(r.counters.active_slots, 10000u);
}

TEST(SlotEngine, InactiveGapsAreNotCounted) {
  LowSensingFactory factory;
  ScheduleArrivals arrivals({{0, 1}, {1000000, 1}});
  NoJammer none;
  SlotEngine engine(factory, arrivals, none, config_with_seed(9));
  const RunResult r = engine.run();
  EXPECT_TRUE(r.drained);
  EXPECT_LT(r.counters.active_slots, 10000u);
}

TEST(EventEngine, PoissonStreamDrains) {
  LowSensingFactory factory;
  PoissonArrivals arrivals(0.05, 500, Rng(21));
  NoJammer none;
  EventEngine engine(factory, arrivals, none, config_with_seed(21));
  const RunResult r = engine.run();
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.counters.successes, 500u);
}

// --------------------------------------------------------------- jamming

TEST(EventEngine, FullJammingPreventsAllProgress) {
  LowSensingFactory factory;
  BatchArrivals arrivals(10);
  RandomJammer jammer(1.0, 0, CounterRng(1));
  RunConfig cfg = config_with_seed(4);
  cfg.max_active_slots = 2000;
  EventEngine engine(factory, arrivals, jammer, cfg);
  const RunResult r = engine.run();
  EXPECT_EQ(r.counters.successes, 0u);
  EXPECT_EQ(r.counters.backlog, 10u);
  // Every active slot was jammed.
  EXPECT_EQ(r.counters.jammed_active_slots, r.counters.active_slots);
}

TEST(EventEngine, JammedThroughputCreditsJams) {
  // With (T+J)/S, a fully jammed run still has throughput 1.
  LowSensingFactory factory;
  BatchArrivals arrivals(10);
  RandomJammer jammer(1.0, 0, CounterRng(1));
  RunConfig cfg = config_with_seed(4);
  cfg.max_active_slots = 500;
  EventEngine engine(factory, arrivals, jammer, cfg);
  const RunResult r = engine.run();
  EXPECT_DOUBLE_EQ(r.throughput(), 1.0);
}

TEST(EventEngine, ScheduledJamsAreCounted) {
  LowSensingFactory factory;
  BatchArrivals arrivals(5);
  ScheduleJammer jammer({0, 1, 2});
  EventEngine engine(factory, arrivals, jammer, config_with_seed(6));
  const RunResult r = engine.run();
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.counters.jammed_active_slots, 3u);
}

TEST(EventEngine, ReactiveBlanketWithBudgetDelaysButNotForever) {
  LowSensingFactory factory;
  BatchArrivals arrivals(20);
  ReactiveBlanketJammer jammer(50);
  EventEngine engine(factory, arrivals, jammer, config_with_seed(8));
  const RunResult r = engine.run();
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.counters.successes, 20u);
  EXPECT_EQ(r.jams_total, 50u);  // the jammer spends its whole budget
}

// ---------------------------------------------------- protocol coverage

TEST(EventEngine, MwFullSensingBatchDrains) {
  MwFullSensingFactory factory;
  BatchArrivals arrivals(100);
  NoJammer none;
  EventEngine engine(factory, arrivals, none, config_with_seed(14));
  const RunResult r = engine.run();
  EXPECT_TRUE(r.drained);
  // Full sensing: every packet accesses every slot it is alive, so the
  // max equals that packet's latency.
  EXPECT_DOUBLE_EQ(r.access_stats.max(), r.latency_stats.max());
}

TEST(EventEngine, FixedProbabilityGenieDrains) {
  FixedProbabilityFactory factory(1.0 / 64.0);
  BatchArrivals arrivals(64);
  NoJammer none;
  EventEngine engine(factory, arrivals, none, config_with_seed(15));
  const RunResult r = engine.run();
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.counters.successes, 64u);
}

TEST(EventEngine, ZeroAccessProbabilityTerminates) {
  // A protocol that never accesses must not hang the engine.
  FixedProbabilityFactory factory(0.0);
  BatchArrivals arrivals(3);
  NoJammer none;
  RunConfig cfg = config_with_seed(16);
  cfg.max_slot = 10000;
  EventEngine engine(factory, arrivals, none, cfg);
  const RunResult r = engine.run();
  EXPECT_FALSE(r.drained);
  EXPECT_EQ(r.counters.successes, 0u);
}

}  // namespace
}  // namespace lowsense
