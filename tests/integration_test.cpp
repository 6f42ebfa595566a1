// End-to-end integration tests: the full pipeline (protocol × adversary ×
// engine × observers × harness) on realistic mixed scenarios, plus
// whole-experiment reproducibility.
#include <gtest/gtest.h>

#include <memory>

#include "adversary/aqt.hpp"
#include "adversary/arrivals.hpp"
#include "adversary/jammer.hpp"
#include "harness/experiment.hpp"
#include "metrics/energy.hpp"
#include "metrics/potential.hpp"
#include "metrics/recorder.hpp"
#include "protocols/registry.hpp"
#include "run_identity.hpp"

namespace lowsense {
namespace {

TEST(Integration, FullObserverStackOnJammedAqtRun) {
  // AQT arrivals + burst jamming + every observer at once; all views of
  // the run must agree with each other.
  Scenario s;
  s.protocol = [] { return make_protocol("low-sensing"); };
  s.arrivals = [](std::uint64_t seed) {
    return std::make_unique<AqtArrivals>(0.15, 128, AqtPattern::kRandom, 1500,
                                         Rng::stream(seed, 2));
  };
  s.jammer = [](std::uint64_t) { return std::make_unique<BurstJammer>(200, 20); };

  Recorder recorder;
  PotentialTracker potential;
  const RunResult r = run_scenario(s, 5, {&recorder, &potential});

  ASSERT_TRUE(r.drained);
  EXPECT_EQ(r.counters.successes, 1500u);

  // Recorder's last point == run counters.
  const auto& last = recorder.series().back();
  EXPECT_EQ(last.active_slots, r.counters.active_slots);
  EXPECT_EQ(last.jams, r.counters.jammed_active_slots);

  // Potential returned to zero and its interval jams add up.
  EXPECT_DOUBLE_EQ(potential.phi(), 0.0);
  std::uint64_t jam_sum = 0, arrival_sum = 0;
  for (const auto& iv : potential.intervals()) {
    jam_sum += iv.jams;
    arrival_sum += iv.arrivals;
  }
  EXPECT_EQ(jam_sum, r.counters.jammed_active_slots);
  EXPECT_EQ(arrival_sum, r.counters.arrivals);

  // Energy report is self-consistent.
  const EnergyReport e = EnergyReport::of(r);
  EXPECT_GE(static_cast<double>(e.max_accesses), e.p99_accesses * 0.5);
}

TEST(Integration, WholeExperimentIsReproducible) {
  auto run_once = [] {
    Scenario s;
    s.protocol = [] { return make_protocol("low-sensing"); };
    s.arrivals = [](std::uint64_t seed) {
      return std::make_unique<PoissonArrivals>(0.08, 800, Rng::stream(seed, 3));
    };
    s.jammer = [](std::uint64_t seed) {
      return std::make_unique<RandomJammer>(0.1, 0, CounterRng(seed, 4));
    };
    return replicate(s, 4, 900);
  };
  expect_same_run(run_once(), run_once(), "rerun");
}

TEST(Integration, MixedProtocolComparisonPipeline) {
  // The T1 bench in miniature: run three protocols on the same workload
  // and verify the paper's ordering LSB ≈ MW > BEB at moderate scale.
  auto tp = [](const std::string& proto) {
    Scenario s;
    s.protocol = [proto] { return make_protocol(proto); };
    s.arrivals = [](std::uint64_t) { return std::make_unique<BatchArrivals>(4096); };
    return replicate(s, 3, 31).throughput().median;
  };
  const double lsb = tp("low-sensing");
  const double mw = tp("mw-full-sensing");
  const double beb = tp("binary-exponential");
  EXPECT_GT(lsb, beb);
  EXPECT_GT(mw, beb);
  EXPECT_GT(lsb, 0.15);
}

TEST(Integration, InfiniteStreamCheckpointing) {
  // Long-horizon run bounded by active slots; implicit throughput stays
  // healthy at every checkpoint even with arrival + jam bursts.
  Scenario s;
  s.protocol = [] { return make_protocol("low-sensing"); };
  s.arrivals = [](std::uint64_t seed) {
    return std::make_unique<AqtArrivals>(0.2, 512, AqtPattern::kPulse, 1ULL << 62,
                                         Rng::stream(seed, 7));
  };
  s.jammer = [](std::uint64_t) { return std::make_unique<BurstJammer>(997, 60); };
  s.config.max_active_slots = 60000;

  Recorder rec;
  const RunResult r = run_scenario(s, 77, {&rec});
  EXPECT_FALSE(r.drained);  // stream is infinite; we stopped on budget
  EXPECT_GE(rec.series().size(), 10u);
  EXPECT_GT(rec.min_implicit_throughput(256), 0.08);
}

TEST(Integration, SlotAndEventEnginesAgreeOnComplexScenario) {
  auto build = [](EngineKind kind) {
    Scenario s;
    s.engine = kind;
    s.protocol = [] { return make_protocol("low-sensing"); };
    s.arrivals = [](std::uint64_t) {
      return std::make_unique<AqtArrivals>(0.25, 64, AqtPattern::kFront, 600, Rng(55));
    };
    s.jammer = [](std::uint64_t) { return std::make_unique<BurstJammer>(113, 17); };
    return record_scenario(s, 8);
  };
  expect_same_run(build(EngineKind::kEvent), build(EngineKind::kSlot), "event-vs-slot");
}

}  // namespace
}  // namespace lowsense
