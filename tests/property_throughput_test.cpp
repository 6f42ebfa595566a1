// Statistical property tests for the THROUGHPUT theorems at test-sized
// scale (the benches rerun these shapes at full scale):
//   * Cor 1.4  — LSB batch throughput is bounded below by a constant.
//   * §1       — BEB throughput decays with N.
//   * Thm 1.3  — implicit throughput is bounded below at every checkpoint.
//   * Cor 1.5  — AQT backlog stays O(S).
#include <gtest/gtest.h>

#include <memory>

#include "adversary/arrivals.hpp"
#include "adversary/jammer.hpp"
#include "harness/experiment.hpp"
#include "metrics/recorder.hpp"
#include "protocols/fixed_probability.hpp"
#include "protocols/registry.hpp"

namespace lowsense {
namespace {

Scenario batch(const std::string& proto, std::uint64_t n) {
  Scenario s;
  s.protocol = [proto] { return make_protocol(proto); };
  s.arrivals = [n](std::uint64_t) { return std::make_unique<BatchArrivals>(n); };
  return s;
}

class BatchSizes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchSizes, LsbThroughputAboveConstantFloor) {
  const std::uint64_t n = GetParam();
  const Replicates reps = replicate(batch("low-sensing", n), 5, 42);
  // Median throughput across seeds must clear a conservative Θ(1) floor
  // that does NOT shrink with n.
  EXPECT_GT(reps.throughput().median, 0.15) << "n=" << n;
  for (const auto& r : reps.runs) EXPECT_TRUE(r.drained);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BatchSizes,
                         ::testing::Values(64u, 256u, 1024u, 4096u, 16384u));

TEST(Throughput, BebDecaysWithN) {
  // O(1/ln N): BEB throughput at 16K should be well below its 64-packet
  // value, while LSB stays flat (checked above).
  const double tp_small = replicate(batch("binary-exponential", 64), 5, 7).throughput().median;
  const double tp_large =
      replicate(batch("binary-exponential", 16384), 3, 7).throughput().median;
  EXPECT_LT(tp_large, tp_small * 0.75);
}

TEST(Throughput, LsbBeatsBebAtScale) {
  const double lsb = replicate(batch("low-sensing", 8192), 3, 11).throughput().median;
  const double beb = replicate(batch("binary-exponential", 8192), 3, 11).throughput().median;
  EXPECT_GT(lsb, beb);
}

TEST(Throughput, ImplicitThroughputBoundedBelowThroughoutRun) {
  // Theorem 1.3 at test scale: min over checkpoints of (N_t+J_t)/S_t
  // exceeds a constant for every seed.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Recorder rec;
    Scenario s = batch("low-sensing", 2048);
    run_scenario(s, seed, {&rec});
    EXPECT_GT(rec.min_implicit_throughput(64), 0.1) << "seed=" << seed;
  }
}

TEST(Throughput, ImplicitThroughputHoldsUnderJamming) {
  // With jam credit, implicit throughput stays bounded even at 30% jamming.
  Scenario s = batch("low-sensing", 2048);
  s.jammer = [](std::uint64_t seed) {
    return std::make_unique<RandomJammer>(0.3, 0, CounterRng(seed, 0xdead));
  };
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Recorder rec;
    run_scenario(s, seed, {&rec});
    EXPECT_GT(rec.min_implicit_throughput(64), 0.1) << "seed=" << seed;
  }
}

TEST(Throughput, AqtBacklogStaysOrderS) {
  // Corollary 1.5 at test scale: backlog never exceeds a small multiple
  // of the granularity S for a small constant arrival rate.
  const Slot s_gran = 256;
  Scenario s;
  s.protocol = [] { return make_protocol("low-sensing"); };
  s.arrivals = [s_gran](std::uint64_t seed) {
    return std::make_unique<AqtArrivals>(0.1, s_gran, AqtPattern::kFront, 4000,
                                         Rng::stream(seed, 1));
  };
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const RunResult r = run_scenario(s, seed);
    EXPECT_TRUE(r.drained);
    EXPECT_LT(r.peak_backlog, 4 * s_gran) << "seed=" << seed;
  }
}

TEST(Throughput, RecoverableAfterJamBurst) {
  // A long jam burst raises windows; afterwards the backon loop must pull
  // contention back up and drain the system (the slow-feedback recovery
  // that oblivious protocols lack).
  Scenario s = batch("low-sensing", 512);
  s.jammer = [](std::uint64_t) {
    std::vector<Slot> slots;
    for (Slot t = 100; t < 2100; ++t) slots.push_back(t);  // 2000-slot burst
    return std::make_unique<ScheduleJammer>(slots);
  };
  const RunResult r = run_scenario(s, 3);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.counters.successes, 512u);
}

TEST(Throughput, GenieAlohaNearOneOverE) {
  // Sanity anchor for the simulator itself: fixed p = 1/n on n packets
  // yields initial success rate ~1/e; over the whole run (as packets
  // leave, p stays 1/n so throughput degrades), overall throughput is
  // below 1/e but the FIRST slots should succeed at ~1/e rate.
  const std::uint64_t n = 1024;
  Scenario s = batch("low-sensing", n);
  s.protocol = [n] {
    return std::make_unique<FixedProbabilityFactory>(1.0 / static_cast<double>(n));
  };
  s.config.max_active_slots = 200;  // early window: contention still ~1
  std::uint64_t succ = 0;
  const int reps = 5;
  for (int i = 0; i < reps; ++i) {
    const RunResult r = run_scenario(s, 100 + static_cast<std::uint64_t>(i));
    succ += r.counters.successes;
  }
  const double rate = static_cast<double>(succ) / (200.0 * reps);
  EXPECT_NEAR(rate, 1.0 / 2.718281828, 0.06);
}

}  // namespace
}  // namespace lowsense
