// Unit + behavioural tests for the windowed Ethernet protocol and the
// draw_gap extension point it exercises.
#include <gtest/gtest.h>

#include "adversary/arrivals.hpp"
#include "adversary/jammer.hpp"
#include "protocols/registry.hpp"
#include "protocols/windowed_ethernet.hpp"
#include "run_identity.hpp"
#include "sim/event_engine.hpp"

namespace lowsense {
namespace {

TEST(WindowedEthernet, GapIsUniformWithinWindow) {
  WindowedEthernet eth;  // initial window 2
  Rng rng(1);
  int ones = 0, twos = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t g = eth.draw_gap(rng);
    ASSERT_GE(g, 1u);
    ASSERT_LE(g, 2u);
    (g == 1 ? ones : twos)++;
  }
  EXPECT_NEAR(static_cast<double>(ones) / 20000.0, 0.5, 0.02);
  EXPECT_GT(twos, 0);
}

TEST(WindowedEthernet, DoublesAndTruncates) {
  WindowedEthernetParams p;
  p.max_window = 16.0;
  WindowedEthernet eth(p);
  for (int i = 0; i < 10; ++i) eth.on_observation({Feedback::kNoisy, true});
  EXPECT_DOUBLE_EQ(eth.window(), 16.0);
  EXPECT_EQ(eth.collisions(), 10u);
}

TEST(WindowedEthernet, IgnoresOverheardTraffic) {
  WindowedEthernet eth;
  const double w = eth.window();
  eth.on_observation({Feedback::kNoisy, false});
  eth.on_observation({Feedback::kEmpty, false});
  EXPECT_DOUBLE_EQ(eth.window(), w);
}

TEST(WindowedEthernet, AbortsAfterMaxAttempts) {
  WindowedEthernetParams p;
  p.max_attempts = 3;
  WindowedEthernet eth(p);
  Rng rng(2);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NE(eth.draw_gap(rng), kNoSlot);
    eth.on_observation({Feedback::kNoisy, true});
  }
  EXPECT_TRUE(eth.aborted());
  EXPECT_EQ(eth.draw_gap(rng), kNoSlot);
}

TEST(WindowedEthernet, RegistryName) {
  EXPECT_NE(make_protocol("windowed-ethernet"), nullptr);
  EXPECT_NE(make_protocol("ethernet"), nullptr);
}

/// An unjammed batch of `n` packets under one engine.
RecordedRun run_batch(EngineKind engine, std::uint64_t n, std::uint64_t seed) {
  WindowedEthernetFactory factory;
  BatchArrivals arrivals(n);
  NoJammer none;
  RunConfig cfg;
  cfg.seed = seed;
  cfg.max_active_slots = 1u << 22;
  return record_run(engine, factory, arrivals, none, cfg);
}

TEST(WindowedEthernet, BatchDrainsOnBothEngines) {
  for (const EngineKind engine : {EngineKind::kEvent, EngineKind::kSlot}) {
    const RunResult r = run_batch(engine, 100, 5).result;
    EXPECT_TRUE(r.drained) << engine_name(engine);
    EXPECT_EQ(r.counters.successes, 100u);
  }
}

TEST(WindowedEthernet, EnginesTraceEquivalent) {
  // draw_gap overrides must preserve the slot/event equivalence.
  expect_same_run(run_batch(EngineKind::kSlot, 64, 9), run_batch(EngineKind::kEvent, 64, 9),
                  "windowed-ethernet");
}

TEST(WindowedEthernet, AbortedPacketsStrandTheBacklog) {
  // With a tiny attempt limit and heavy contention, some stations give
  // up ("excessive collisions") and the system never drains — the
  // documented 802.3 failure mode, visible in the model.
  WindowedEthernetParams p;
  p.max_attempts = 2;
  WindowedEthernetFactory factory(p);
  BatchArrivals arrivals(256);
  NoJammer none;
  RunConfig cfg;
  cfg.seed = 11;
  cfg.max_slot = 200000;
  EventEngine engine(factory, arrivals, none, cfg);
  const RunResult r = engine.run();
  EXPECT_FALSE(r.drained);
  EXPECT_GT(r.counters.backlog, 0u);
}

}  // namespace
}  // namespace lowsense
