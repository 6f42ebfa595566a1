// THE load-bearing correctness test: the slot-by-slot reference engine and
// the event-driven engine must produce IDENTICAL executions for the same
// seed — for EVERY jammer family, including the randomized ones. Both
// engines are SimCore::run and differ only in how a quiet active span is
// accounted: one jam() call per slot, or one count_quiet_range() over
// the span. Randomized jammers (random, random contention-band) draw
// slot-keyed CounterRng coins, so their decisions replay identically
// either way. "Identical" is expect_same_run (run_identity.hpp): every
// RunResult field bit for bit (first_difference) and the trace digest of
// every arrival, departure and access slot. Any divergence indicates a
// semantic bug — most likely a jammer whose span count disagrees with its
// per-slot decisions (budget exhaustion mid-span included), or a budget
// cut that lands differently in the two walks. The grid and the fast fuzz
// cover all eight jammer families.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "protocols/fixed_probability.hpp"
#include "run_identity.hpp"

namespace lowsense {
namespace {

std::unique_ptr<ArrivalProcess> make_arrivals(const std::string& kind) {
  if (kind == "batch") return std::make_unique<BatchArrivals>(120);
  if (kind == "trickle") {
    std::vector<ArrivalBurst> bursts;
    for (Slot t = 0; t < 600; t += 13) bursts.push_back({t, 2});
    return std::make_unique<ScheduleArrivals>(bursts);
  }
  // "spaced": bursts with big inactive gaps to exercise inactive skipping.
  return std::make_unique<ScheduleArrivals>(
      std::vector<ArrivalBurst>{{0, 30}, {50000, 30}, {200000, 1}});
}

struct Case {
  std::string protocol;
  std::string arrivals;
  JamKind jam;
  std::uint64_t seed;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.protocol << "/" << c.arrivals << "/jam" << static_cast<int>(c.jam) << "/s" << c.seed;
}

class EngineEquivalence : public ::testing::TestWithParam<Case> {};

/// One grid cell under one engine, on fresh arrivals and a fresh jammer.
RecordedRun run_case(const Case& c, EngineKind engine) {
  RunConfig cfg;
  cfg.seed = c.seed;
  cfg.max_active_slots = 100000;  // bound runaway cases (e.g. heavy jam)
  auto factory = make_protocol(c.protocol);
  EXPECT_NE(factory, nullptr) << c.protocol;
  if (!factory) return {};
  auto arrivals = make_arrivals(c.arrivals);
  auto jammer = make_jammer(c.jam, c.seed);
  return record_run(engine, *factory, *arrivals, *jammer, cfg);
}

TEST_P(EngineEquivalence, IdenticalTraces) {
  const Case c = GetParam();
  expect_same_run(run_case(c, EngineKind::kSlot), run_case(c, EngineKind::kEvent),
                  c.protocol + "/" + c.arrivals);
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const char* proto : {"low-sensing", "binary-exponential", "polynomial", "mw-full-sensing",
                            "windowed-ethernet"}) {
    for (const char* arr : {"batch", "trickle", "spaced"}) {
      for (JamKind jam : kAllJamKinds) {
        for (std::uint64_t seed : {1ULL, 42ULL}) {
          cases.push_back({proto, arr, jam, seed});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, EngineEquivalence, ::testing::ValuesIn(all_cases()));

// The grid must exercise every jamming family, not vacuously compare
// unjammed runs: each family jams in at least one of its cells.
TEST(EngineEquivalenceCoverage, EveryJammerFamilyJamsInTheGrid) {
  for (const JamKind jam : kAllJamKinds) {
    if (jam == JamKind::kNone) continue;
    bool jammed = false;
    for (const Case& c : all_cases()) {
      if (c.jam == jam && run_case(c, EngineKind::kEvent).result.jams_total > 0) {
        jammed = true;
        break;
      }
    }
    EXPECT_TRUE(jammed) << "jam" << static_cast<int>(jam);
  }
}

// ------------------------------------------------------- regressions

// A late arrival landing PAST max_slot must not be injected or resolved.
// The slot engine used to jump straight to the arrival after an inactive
// stretch without re-checking the budget, resolving slots the event engine
// refused to run (one extra active slot, three extra arrivals here).
TEST(EngineEquivalenceRegression, ArrivalPastMaxSlotIsNotResolved) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 99ULL}) {
    RunConfig cfg;
    cfg.seed = seed;
    cfg.max_slot = 1000;

    auto proto = make_protocol("low-sensing");
    const std::vector<ArrivalBurst> bursts{{0, 20}, {5000, 3}};
    ScheduleArrivals arrA(bursts), arrB(bursts);
    NoJammer jamA, jamB;

    const RecordedRun a = record_run(EngineKind::kSlot, *proto, arrA, jamA, cfg);
    const RecordedRun b = record_run(EngineKind::kEvent, *proto, arrB, jamB, cfg);
    expect_same_run(a, b, "past-max-slot/s" + std::to_string(seed));

    // The burst at slot 5000 lies beyond the budget in both engines.
    EXPECT_EQ(a.result.counters.arrivals, 20u);
    EXPECT_LE(a.result.counters.slot, cfg.max_slot);
    EXPECT_FALSE(a.result.drained);
  }
}

// Backlog > 0, every packet's next_access == kNoSlot, both budgets
// unlimited: the slot engine used to livelock, incrementing t forever over
// empty accessor sets. It must exit exactly where the event engine does
// (no future access, no future arrival => nothing can ever happen again).
TEST(EngineEquivalenceRegression, PermanentlySilentBacklogTerminates) {
  FixedProbabilityFactory never_sends(0.0);
  BatchArrivals arrA(4), arrB(4);
  NoJammer jamA, jamB;
  RunConfig cfg;
  cfg.seed = 5;  // both budgets 0 = unlimited

  const RecordedRun a = record_run(EngineKind::kSlot, never_sends, arrA, jamA, cfg);
  const RecordedRun b = record_run(EngineKind::kEvent, never_sends, arrB, jamB, cfg);
  expect_same_run(a, b, "silent-backlog");

  EXPECT_FALSE(a.result.drained);
  EXPECT_EQ(a.result.counters.backlog, 4u);
  EXPECT_EQ(a.result.counters.active_slots, 1u);  // only the injection slot
}

// ---------------------------------------------------------- fuzz loops

/// One seeded, deterministic sweep of generated scenarios (see
/// draw_fuzz_case), each run under both engines.
void fuzz_sweep(std::uint64_t master_seed, int iters, std::span<const JamKind> jams,
                const std::string& tag) {
  std::mt19937_64 gen(master_seed);
  for (int iter = 0; iter < iters; ++iter) {
    const FuzzCase c = draw_fuzz_case(gen, jams);
    expect_same_run(c.run(EngineKind::kSlot, c.cfg), c.run(EngineKind::kEvent, c.cfg),
                    tag + "#" + std::to_string(iter) + "/" + c.label);
  }
}

// Fast sweep (PR CI): every jammer family, including the randomized ones.
TEST(EngineEquivalenceFuzz, RandomizedScenariosMatch) {
  fuzz_sweep(20260728, 48, kAllJamKinds, "fuzz");
}

// Deep randomized-adversary sweep (nightly, ctest label "slow"): 120 more
// cases concentrated on the stochastic families whose trace-equivalence
// the slot-keyed CounterRng is supposed to guarantee, with fuzzed rates,
// keys, jam budgets, and band geometry.
TEST(EngineEquivalenceFuzzSlow, RandomizedJammersMatch) {
  const JamKind kJams[] = {JamKind::kRandom, JamKind::kRandomBand};
  fuzz_sweep(0xfeedf00d, 120, kJams, "slowfuzz");
}

}  // namespace
}  // namespace lowsense
