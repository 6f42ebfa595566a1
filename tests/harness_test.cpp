// Unit tests for the experiment harness: scenario plumbing, replication,
// aggregation, argument parsing, and sweep helpers.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "harness/sweep.hpp"
#include "protocols/registry.hpp"
#include "run_identity.hpp"

namespace lowsense {
namespace {

Scenario batch_scenario(std::uint64_t n, const std::string& proto = "low-sensing") {
  Scenario s;
  s.name = "test";
  s.protocol = [proto] { return make_protocol(proto); };
  s.arrivals = [n](std::uint64_t) { return std::make_unique<BatchArrivals>(n); };
  return s;
}

TEST(Harness, RunScenarioProducesDrainedResult) {
  const RunResult r = run_scenario(batch_scenario(100), 3);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.counters.successes, 100u);
}

TEST(Harness, MissingProtocolThrows) {
  Scenario s;
  s.arrivals = [](std::uint64_t) { return std::make_unique<BatchArrivals>(1); };
  EXPECT_THROW(run_scenario(s, 1), std::invalid_argument);
}

TEST(Harness, NullProtocolFactoryThrows) {
  // make_protocol returns null for a name it rejects (here p = 0); the
  // run must refuse the scenario instead of dereferencing it.
  Scenario s = batch_scenario(4, "aloha:0.000000");
  EXPECT_THROW(run_scenario(s, 1), std::invalid_argument);
}

TEST(Harness, DefaultJammerIsNone) {
  const RunResult r = run_scenario(batch_scenario(50), 4);
  EXPECT_EQ(r.counters.jammed_active_slots, 0u);
  EXPECT_EQ(r.jams_total, 0u);
}

TEST(Harness, SlotEngineSelectable) {
  Scenario s = batch_scenario(50);
  s.engine = EngineKind::kSlot;
  const RecordedRun a = record_scenario(s, 5);
  s.engine = EngineKind::kEvent;
  // Engines are trace-equivalent: the same run, bit for bit.
  expect_same_run(a, record_scenario(s, 5), "slot-vs-event");
}

TEST(Harness, CustomJammerIsUsed) {
  Scenario s = batch_scenario(20);
  s.jammer = [](std::uint64_t) {
    return std::make_unique<ScheduleJammer>(std::vector<Slot>{0, 1});
  };
  const RunResult r = run_scenario(s, 6);
  EXPECT_EQ(r.counters.jammed_active_slots, 2u);
}

TEST(Harness, ReplicateRunsDistinctSeeds) {
  const Replicates reps = replicate(batch_scenario(64), 5, 100);
  ASSERT_EQ(reps.runs.size(), 5u);
  // Different seeds should give at least two distinct makespans.
  bool distinct = false;
  for (std::size_t i = 1; i < reps.runs.size(); ++i) {
    distinct |= reps.runs[i].counters.active_slots != reps.runs[0].counters.active_slots;
  }
  EXPECT_TRUE(distinct);
}

TEST(Harness, SummariesAggregate) {
  const Replicates reps = replicate(batch_scenario(64), 5, 100);
  const Summary tp = reps.throughput();
  EXPECT_EQ(tp.count, 5u);
  EXPECT_GT(tp.median, 0.0);
  EXPECT_LE(tp.max, 1.0);
  EXPECT_GE(reps.max_accesses().min, 1.0);
  EXPECT_DOUBLE_EQ(reps.peak_backlog().max, 64.0);
}

TEST(Harness, ObserversAreAttached) {
  struct CountSlots final : Observer {
    int slots = 0;
    void on_slot(const SlotInfo&, const Counters&) override { ++slots; }
  } probe;
  run_scenario(batch_scenario(32), 7, {&probe});
  EXPECT_GT(probe.slots, 0);
}

// ------------------------------------------------------------------ args

TEST(Args, ParsesKeyValuePairs) {
  const char* argv[] = {"prog", "--n=128", "--rate=0.5", "--name=lsb", "--fast"};
  Args args(5, const_cast<char**>(argv));
  EXPECT_EQ(args.u64("n", 0), 128u);
  EXPECT_DOUBLE_EQ(args.f64("rate", 0.0), 0.5);
  EXPECT_EQ(args.str("name", ""), "lsb");
  EXPECT_TRUE(args.flag("fast"));
  EXPECT_FALSE(args.flag("slow"));
}

TEST(Args, FallbacksApply) {
  const char* argv[] = {"prog"};
  Args args(1, const_cast<char**>(argv));
  EXPECT_EQ(args.u64("n", 7), 7u);
  EXPECT_DOUBLE_EQ(args.f64("x", 1.5), 1.5);
  EXPECT_EQ(args.str("s", "dflt"), "dflt");
}

TEST(Args, IgnoresNonDashArguments) {
  const char* argv[] = {"prog", "n=99", "-n=98"};
  Args args(3, const_cast<char**>(argv));
  EXPECT_EQ(args.u64("n", 1), 1u);
}

// ----------------------------------------------------------------- sweep

TEST(Sweep, Pow2) {
  const auto v = pow2_sweep(3, 6);
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v.front(), 8u);
  EXPECT_EQ(v.back(), 64u);
}

TEST(Sweep, GeomCoversEndpoints) {
  const auto v = geom_sweep(10, 1000, 5);
  ASSERT_GE(v.size(), 2u);
  EXPECT_EQ(v.front(), 10u);
  EXPECT_EQ(v.back(), 1000u);
  for (std::size_t i = 1; i < v.size(); ++i) ASSERT_GT(v[i], v[i - 1]);
}

TEST(Sweep, GeomDegenerate) {
  const auto v = geom_sweep(5, 5, 10);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 5u);
}

TEST(Sweep, GeomSinglePointRequestedGivesSinglePoint) {
  const auto v = geom_sweep(10, 1000, 1);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 10u);
}

TEST(Sweep, GeomZeroLoIsFinite) {
  const auto v = geom_sweep(0, 100, 5);
  ASSERT_GE(v.size(), 2u);
  EXPECT_EQ(v.front(), 0u);
  EXPECT_EQ(v.back(), 100u);
  for (std::size_t i = 1; i < v.size(); ++i) ASSERT_GT(v[i], v[i - 1]);
}

TEST(Sweep, GeomZeroLoTwoPointsCoversEndpoints) {
  const auto v = geom_sweep(0, 64, 2);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 0u);
  EXPECT_EQ(v[1], 64u);
}

TEST(Sweep, Pow2IncludesTopBit) {
  const auto v = pow2_sweep(62, 63);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 1ULL << 62);
  EXPECT_EQ(v[1], 1ULL << 63);
}

TEST(Sweep, GeomFloat) {
  const auto v = geom_sweep_f(0.1, 10.0, 3);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_NEAR(v[0], 0.1, 1e-12);
  EXPECT_NEAR(v[1], 1.0, 1e-9);
  EXPECT_NEAR(v[2], 10.0, 1e-9);
}

}  // namespace
}  // namespace lowsense
