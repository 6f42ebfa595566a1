// THE load-bearing correctness test: the slot-by-slot reference engine and
// the event-driven engine must produce IDENTICAL executions for the same
// seed — for EVERY jammer family, including the randomized ones. Both
// engines are SimCore::run and differ only in how a quiet active span is
// accounted: one jam() call per slot, or one count_quiet_range() over
// the span. Randomized jammers (random, random contention-band) draw
// slot-keyed CounterRng coins, so their decisions replay identically
// either way. Any divergence in outcomes, departure times, or energy
// counts indicates a semantic bug — most likely a jammer whose span count
// disagrees with its per-slot decisions (budget exhaustion mid-span
// included), or a budget cut that lands differently in the two walks.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "adversary/arrivals.hpp"
#include "adversary/jammer.hpp"
#include "protocols/fixed_probability.hpp"
#include "protocols/registry.hpp"
#include "sim/event_engine.hpp"
#include "sim/slot_engine.hpp"

namespace lowsense {
namespace {

/// Observer recording a full departure trace for exact comparison.
struct DepartureTrace final : Observer {
  std::vector<std::tuple<Slot, PacketId, std::uint64_t, std::uint64_t>> departures;

  void on_departure(Slot slot, PacketId id, Slot, std::uint64_t accesses, std::uint64_t sends,
                    double) override {
    departures.emplace_back(slot, id, accesses, sends);
  }
};

struct EngineOutcome {
  RunResult result;
  DepartureTrace trace;
};

template <typename Engine>
EngineOutcome run_engine(const ProtocolFactory& factory, ArrivalProcess& arrivals, Jammer& jammer,
                         const RunConfig& cfg) {
  EngineOutcome out;
  Engine engine(factory, arrivals, jammer, cfg);
  engine.add_observer(&out.trace);
  out.result = engine.run();
  return out;
}

/// Asserts the full observable execution matches: aggregate counters,
/// result statistics, and the per-packet departure trace (same packet
/// departs in the same slot with the same energy spend, in the same order).
void expect_identical(const EngineOutcome& a, const EngineOutcome& b, const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.result.counters.slot, b.result.counters.slot);
  EXPECT_EQ(a.result.counters.active_slots, b.result.counters.active_slots);
  EXPECT_EQ(a.result.counters.successes, b.result.counters.successes);
  EXPECT_EQ(a.result.counters.arrivals, b.result.counters.arrivals);
  EXPECT_EQ(a.result.counters.jammed_active_slots, b.result.counters.jammed_active_slots);
  EXPECT_EQ(a.result.counters.backlog, b.result.counters.backlog);
  EXPECT_EQ(a.result.drained, b.result.drained);
  EXPECT_EQ(a.result.max_accesses, b.result.max_accesses);
  EXPECT_EQ(a.result.peak_backlog, b.result.peak_backlog);
  EXPECT_EQ(a.result.jams_total, b.result.jams_total);
  // Bit for bit: both engines run the one walk, with the same resolve and
  // the same canonical accumulation order.
  EXPECT_EQ(a.result.max_window_seen, b.result.max_window_seen);
  EXPECT_EQ(a.result.access_stats.sum(), b.result.access_stats.sum());
  EXPECT_EQ(a.result.access_stats.variance(), b.result.access_stats.variance());
  EXPECT_EQ(a.result.send_stats.sum(), b.result.send_stats.sum());
  EXPECT_EQ(a.result.latency_stats.mean(), b.result.latency_stats.mean());
  EXPECT_EQ(a.result.counters.contention, b.result.counters.contention);

  ASSERT_EQ(a.trace.departures.size(), b.trace.departures.size());
  for (std::size_t i = 0; i < a.trace.departures.size(); ++i) {
    EXPECT_EQ(a.trace.departures[i], b.trace.departures[i]) << "departure " << i;
  }
}

enum class JamKind { kNone, kSchedule, kBurst, kReactiveBlanket, kRandom, kRandomBand };

/// Builds a jammer; twins for the two engines must share `key` so the
/// randomized families flip identical slot-keyed coins.
std::unique_ptr<Jammer> make_jammer(JamKind kind, std::uint64_t key) {
  switch (kind) {
    case JamKind::kNone:
      return std::make_unique<NoJammer>();
    case JamKind::kSchedule: {
      std::vector<Slot> slots;
      for (Slot t = 3; t < 4000; t += 17) slots.push_back(t);
      return std::make_unique<ScheduleJammer>(slots);
    }
    case JamKind::kBurst:
      return std::make_unique<BurstJammer>(97, 13);
    case JamKind::kReactiveBlanket:
      return std::make_unique<ReactiveBlanketJammer>(40);
    case JamKind::kRandom:
      return std::make_unique<RandomJammer>(0.25, 600, CounterRng(key, 0xb1));
    case JamKind::kRandomBand:
      return std::make_unique<RandomContentionJammer>(0.5, 2.5, 0.5, 500, CounterRng(key, 0xb2),
                                                      0.3);
  }
  return nullptr;
}

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

TEST_P(EngineEquivalence, IdenticalTraces) {
  const Case c = GetParam();
  RunConfig cfg;
  cfg.seed = c.seed;
  cfg.max_active_slots = 100000;  // bound runaway cases (e.g. heavy jam)

  auto protoA = make_protocol(c.protocol);
  auto protoB = make_protocol(c.protocol);
  ASSERT_NE(protoA, nullptr);

  auto arrivalsA = make_arrivals(c.arrivals);
  auto arrivalsB = make_arrivals(c.arrivals);
  auto jamA = make_jammer(c.jam, c.seed);
  auto jamB = make_jammer(c.jam, c.seed);

  const EngineOutcome a = run_engine<SlotEngine>(*protoA, *arrivalsA, *jamA, cfg);
  const EngineOutcome b = run_engine<EventEngine>(*protoB, *arrivalsB, *jamB, cfg);
  expect_identical(a, b, c.protocol + "/" + c.arrivals);
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const char* proto : {"low-sensing", "binary-exponential", "polynomial", "mw-full-sensing",
                            "windowed-ethernet"}) {
    for (const char* arr : {"batch", "trickle", "spaced"}) {
      for (JamKind jam : {JamKind::kNone, JamKind::kSchedule, JamKind::kBurst,
                          JamKind::kReactiveBlanket, JamKind::kRandom, JamKind::kRandomBand}) {
        for (std::uint64_t seed : {1ULL, 42ULL}) {
          cases.push_back({proto, arr, jam, seed});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, EngineEquivalence, ::testing::ValuesIn(all_cases()));

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

    const EngineOutcome a = run_engine<SlotEngine>(*proto, arrA, jamA, cfg);
    const EngineOutcome b = run_engine<EventEngine>(*proto, arrB, jamB, cfg);
    expect_identical(a, b, "past-max-slot/s" + std::to_string(seed));

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

  const EngineOutcome a = run_engine<SlotEngine>(never_sends, arrA, jamA, cfg);
  const EngineOutcome b = run_engine<EventEngine>(never_sends, arrB, jamB, cfg);
  expect_identical(a, b, "silent-backlog");

  EXPECT_FALSE(a.result.drained);
  EXPECT_EQ(a.result.counters.backlog, 4u);
  EXPECT_EQ(a.result.counters.active_slots, 1u);  // only the injection slot
}

// ---------------------------------------------------------- fuzz loops

/// One seeded, deterministic randomized sweep over protocol /
/// arrival-schedule / jammer / budget combinations. Arrival gaps mix
/// adjacent slots, mid-range gaps, and huge jumps (overflow territory for
/// the wheel); budgets are drawn small enough that max_slot and
/// max_active_slots truncation edges are hit constantly, including
/// arrivals landing beyond max_slot. Randomized jammers additionally draw
/// a fresh CounterRng key, rate, and jam budget per case, so budget
/// exhaustion lands mid-quiet-span as often as not.
void fuzz_sweep(std::uint64_t master_seed, int iters, std::span<const JamKind> jams,
                const std::string& tag) {
  std::mt19937_64 gen(master_seed);
  const char* kProtocols[] = {"low-sensing",    "binary-exponential", "capped-exponential",
                              "polynomial",     "slow-oblivious",     "mw-full-sensing",
                              "windowed-ethernet"};

  auto uniform = [&gen](std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(gen);
  };

  for (int iter = 0; iter < iters; ++iter) {
    const std::string proto = kProtocols[uniform(0, std::size(kProtocols) - 1)];
    const JamKind jam = jams[uniform(0, jams.size() - 1)];

    // Random strictly-increasing burst schedule with mixed-scale gaps.
    std::vector<ArrivalBurst> bursts;
    Slot t = uniform(0, 1) ? 0 : uniform(1, 30);
    const int n_bursts = static_cast<int>(uniform(1, 5));
    for (int b = 0; b < n_bursts; ++b) {
      bursts.push_back({t, uniform(1, 25)});
      switch (uniform(0, 2)) {
        case 0: t += uniform(1, 20); break;            // adjacent / near
        case 1: t += uniform(1000, 10000); break;      // mid-range gap
        default: t += uniform(100000, 10000000); break;  // far-future jump
      }
    }
    const Slot last_arrival = bursts.back().slot;

    RunConfig cfg;
    cfg.seed = uniform(1, 1u << 30);
    // Always bound the run, and often place max_slot before the last
    // arrival so the inactive-skip budget edge is exercised.
    if (uniform(0, 3) == 0) {
      cfg.max_active_slots = 0;
      cfg.max_slot = uniform(1, 20000);
    } else {
      cfg.max_active_slots = uniform(1, 5000);
      cfg.max_slot = uniform(0, 1) ? 0 : uniform(1, last_arrival + 50);
    }

    auto factory = make_protocol(proto);
    ASSERT_NE(factory, nullptr) << proto;
    ScheduleArrivals arrA(bursts), arrB(bursts);

    std::unique_ptr<Jammer> jamA, jamB;
    if (jam == JamKind::kRandom || jam == JamKind::kRandomBand) {
      // Randomized families: fuzz the adversary's own knobs too. Rates
      // span the whole [~0, 1] range and budgets the whole spectrum from
      // "dries up immediately" to effectively unlimited.
      const std::uint64_t key = uniform(1, ~0ULL - 1);
      const double rate = static_cast<double>(uniform(1, 100)) / 100.0;
      const std::uint64_t budget = uniform(0, 3) == 0 ? 0 : uniform(1, 3000);
      if (jam == JamKind::kRandom) {
        jamA = std::make_unique<RandomJammer>(rate, budget, CounterRng(key, 0xb1));
        jamB = std::make_unique<RandomJammer>(rate, budget, CounterRng(key, 0xb1));
      } else {
        const double lo = static_cast<double>(uniform(0, 150)) / 100.0;
        const double hi = lo + static_cast<double>(uniform(10, 300)) / 100.0;
        const double jitter = uniform(0, 1) ? 0.0 : static_cast<double>(uniform(1, 50)) / 100.0;
        jamA = std::make_unique<RandomContentionJammer>(lo, hi, rate, budget,
                                                        CounterRng(key, 0xb2), jitter);
        jamB = std::make_unique<RandomContentionJammer>(lo, hi, rate, budget,
                                                        CounterRng(key, 0xb2), jitter);
      }
    } else {
      jamA = make_jammer(jam, cfg.seed);
      jamB = make_jammer(jam, cfg.seed);
    }

    const EngineOutcome a = run_engine<SlotEngine>(*factory, arrA, *jamA, cfg);
    const EngineOutcome b = run_engine<EventEngine>(*factory, arrB, *jamB, cfg);
    expect_identical(a, b,
                     tag + "#" + std::to_string(iter) + "/" + proto + "/jam" +
                         std::to_string(static_cast<int>(jam)) + "/ms" +
                         std::to_string(cfg.max_slot) + "/mas" +
                         std::to_string(cfg.max_active_slots));
  }
}

// Fast sweep (PR CI): every jammer family, including the randomized ones.
TEST(EngineEquivalenceFuzz, RandomizedScenariosMatch) {
  const JamKind kJams[] = {JamKind::kNone,  JamKind::kSchedule,  JamKind::kBurst,
                           JamKind::kReactiveBlanket, JamKind::kRandom, JamKind::kRandomBand};
  fuzz_sweep(20260728, 48, kJams, "fuzz");
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
