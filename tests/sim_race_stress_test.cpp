// TSan-focused race lanes (ctest label "race"): hammer every piece of
// concurrent machinery the library owns — ParallelExecutor submit /
// shutdown / exception paths, the three-phase shard resolve with heavy
// slots straddling the kParallelMinAccessors inline/parallel boundary,
// the pool-reusing replicate_parallel fan-out, and streaming arrivals
// with slab reclamation on. Every lane also asserts the determinism
// contract on whatever it computes (expect_same_run, run_identity.hpp:
// every RunResult field, plus the trace digest where the lane records
// one), so the suite is a (small) functional
// test in unsanitized builds and a race detector under
// `cmake --preset tsan && ctest --preset tsan`.
//
// Sizing: each lane finishes in a few seconds at TSan's 5-15x slowdown
// (the per-test TIMEOUT is scaled by LOWSENSE_TEST_TIMEOUT_MULT on
// sanitized builds, but these lanes should not need it).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/arrivals.hpp"
#include "adversary/jammer.hpp"
#include "core/executor.hpp"
#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "protocols/registry.hpp"
#include "run_identity.hpp"

namespace lowsense {
namespace {

// ------------------------------------------------- executor: shutdown

// Destroying the pool with queued-but-unstarted work must neither leak
// the closures (LSan) nor race the workers (TSan). The destructor's
// contract is drain-then-join: every submitted task runs.
TEST(ExecutorShutdown, QueuedUnstartedWorkIsDrainedWithoutLeaks) {
  std::atomic<int> executed{0};
  {
    ParallelExecutor pool(4);
    for (int i = 0; i < 256; ++i) {
      // Owning capture: if shutdown dropped queued tasks on the floor
      // (or double-ran them), the shared_ptr accounting — and LSan —
      // would catch it.
      auto payload = std::make_shared<std::vector<int>>(64, i);
      pool.submit([payload, &executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No wait(): the destructor itself is the code under test.
  }
  EXPECT_EQ(executed.load(), 256);
}

TEST(ExecutorShutdown, ImmediateDestructionOfIdlePool) {
  for (int i = 0; i < 16; ++i) {
    ParallelExecutor pool(3);  // construct + join with no work at all
  }
}

// An exception still in flight (stored in first_error_, never rethrown
// because the owner skips wait()) must be cleanly destroyed with the
// pool: no leak of the exception object, no race on the slot it lives in.
TEST(ExecutorShutdown, InFlightExceptionAtDestructionDoesNotLeak) {
  std::atomic<int> executed{0};
  {
    ParallelExecutor pool(4);
    for (int i = 0; i < 64; ++i) {
      pool.submit([i, &executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (i % 7 == 3) {
          throw std::runtime_error("in-flight failure " + std::to_string(i));
        }
      });
    }
    // Destructor runs with several stored/raced exceptions pending.
  }
  EXPECT_EQ(executed.load(), 64);
}

TEST(ExecutorShutdown, SpinningPoolDrainsQueuedWorkToo) {
  std::atomic<int> executed{0};
  {
    ParallelExecutor pool(4, /*spin_us=*/50);  // the sharded-resolve config
    for (int i = 0; i < 256; ++i) {
      pool.submit([&executed] { executed.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(executed.load(), 256);
}

// ------------------------------------------------ executor: exceptions

TEST(ExecutorRace, FirstExceptionWinsAndPoolStaysUsable) {
  ParallelExecutor pool(4);
  std::atomic<int> executed{0};
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 64; ++i) {
      pool.submit([i, &executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (i % 9 == 1) throw std::runtime_error("boom");
      });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error) << "round " << round;
    // The error slot must be cleared: a clean batch follows on the SAME
    // pool and must not rethrow the previous round's exception.
    for (int i = 0; i < 32; ++i) {
      pool.submit([&executed] { executed.fetch_add(1, std::memory_order_relaxed); });
    }
    EXPECT_NO_THROW(pool.wait()) << "round " << round;
  }
  EXPECT_EQ(executed.load(), 8 * (64 + 32));
}

TEST(ExecutorRace, WaitSubmitWaitCyclesOnSpinningPool) {
  ParallelExecutor pool(4, /*spin_us=*/50);
  std::atomic<std::uint64_t> sum{0};
  // Many tiny fork-joins: the twice-per-slot rendezvous pattern of the
  // sharded resolve, where the spin fast paths carry the synchronization.
  for (int round = 0; round < 2000; ++round) {
    for (int s = 0; s < 4; ++s) {
      pool.submit([&sum, s] { sum.fetch_add(s + 1, std::memory_order_relaxed); });
    }
    pool.wait();
  }
  EXPECT_EQ(sum.load(), 2000u * (1 + 2 + 3 + 4));
}

// ----------------------------------------- three-phase resolve stress

RecordedRun run_batch(EngineKind engine, const std::string& proto, std::uint64_t n,
                      unsigned shards, std::uint64_t seed, std::uint64_t budget, bool jammed) {
  auto factory = make_protocol(proto);
  BatchArrivals arrivals(n);
  std::unique_ptr<Jammer> jammer;
  if (jammed) {
    jammer = std::make_unique<RandomJammer>(0.2, 400, CounterRng(seed, 0xb1));
  } else {
    jammer = std::make_unique<NoJammer>();
  }
  RunConfig cfg;
  cfg.seed = seed;
  cfg.max_active_slots = budget;
  cfg.shards = shards;
  return record_run(engine, *factory, arrivals, *jammer, cfg);
}

// High shard count, heavy first slots: a 1024-packet batch puts every
// early bucket far beyond kParallelMinAccessors, so phases 1 and 3 run
// on the pool; as the backlog decays below the threshold the SAME slots
// switch to the inline path mid-run. TSan sees both sides of the
// boundary; the shards=1 diff pins the trace.
TEST(RaceStress, ThreePhaseResolveAtHighShardCounts) {
  for (const bool jam : {false, true}) {
    const RecordedRun serial =
        run_batch(EngineKind::kSlot, "low-sensing", 1024, 1, 17, 15000, jam);
    for (unsigned shards : {4u, 8u}) {
      const RecordedRun sharded =
          run_batch(EngineKind::kSlot, "low-sensing", 1024, shards, 17, 15000, jam);
      expect_same_run(serial, sharded,
                      "slot/jam=" + std::to_string(jam) + "/shards=" + std::to_string(shards));
    }
  }
}

// Same stress through the event engine, whose wheel-pop drives the
// resolve from a different walk of time.
TEST(RaceStress, EventEngineResolveAtHighShardCounts) {
  const RecordedRun serial =
      run_batch(EngineKind::kEvent, "binary-exponential", 1024, 1, 29, 15000, true);
  for (unsigned shards : {4u, 8u}) {
    const RecordedRun sharded =
        run_batch(EngineKind::kEvent, "binary-exponential", 1024, shards, 29, 15000, true);
    expect_same_run(serial, sharded, "event/shards=" + std::to_string(shards));
  }
}

// Straddle the inline/parallel boundary on purpose: with n just above
// kParallelMinAccessors, the first slots fork and the rest run inline,
// so the handoff between the two paths happens many times per run.
TEST(RaceStress, SlotsStraddleTheParallelMinAccessorsBoundary) {
  const RecordedRun serial = run_batch(EngineKind::kSlot, "low-sensing", 160, 1, 5, 30000, false);
  const RecordedRun sharded = run_batch(EngineKind::kSlot, "low-sensing", 160, 4, 5, 30000, false);
  expect_same_run(serial, sharded, "boundary/shards=4");
}

// ------------------------------------- replicate_parallel pool reuse

TEST(RaceStress, PoolReusingReplicateParallelMatchesSerial) {
  Scenario scenario;
  scenario.name = "race-stress";
  scenario.protocol = [] { return make_protocol("low-sensing"); };
  scenario.arrivals = [](std::uint64_t) { return std::make_unique<BatchArrivals>(64); };
  scenario.jammer = [](std::uint64_t seed) {
    return std::make_unique<RandomJammer>(0.15, 300, CounterRng(seed, 0xb1));
  };
  scenario.config.max_active_slots = 8000;

  const Replicates serial = replicate(scenario, 8, 1);
  ParallelExecutor pool(4);
  // Two rounds on the SAME pool: the suite runner keeps one pool alive
  // across a bench's whole sweep, so reuse is the production pattern.
  for (int round = 0; round < 2; ++round) {
    expect_same_run(serial, replicate_parallel(scenario, 8, &pool, 1),
                    "round " + std::to_string(round));
  }
}

TEST(RaceStress, ParallelMapOrderedResultsUnderChurn) {
  ParallelExecutor pool(4);
  for (int round = 0; round < 50; ++round) {
    const auto out = parallel_map(&pool, 64, [round](std::size_t i) {
      return static_cast<int>(i) * 3 + round;
    });
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], static_cast<int>(i) * 3 + round) << "round " << round;
    }
  }
}

// Replicate-level threads x run-level shards: each replicate worker
// constructs its own SimCore with a nested shard pool (which must detect
// the oversubscription and stay fully blocking). The two pool layers
// interleave constructor/destructor traffic — a classic shutdown-race
// surface.
TEST(RaceStress, NestedShardPoolsInsideReplicateWorkers) {
  Scenario scenario;
  scenario.name = "nested-pools";
  scenario.protocol = [] { return make_protocol("low-sensing"); };
  scenario.arrivals = [](std::uint64_t) { return std::make_unique<BatchArrivals>(192); };
  scenario.jammer = [](std::uint64_t) { return std::make_unique<NoJammer>(); };
  scenario.config.max_active_slots = 5000;
  scenario.config.shards = 4;

  const Replicates serial = replicate(scenario, 4, 1);
  expect_same_run(serial, replicate_parallel(scenario, 4, 4u, 1), "nested");
}

// ------------------------------- streaming arrivals with reclaim on

// Open-system lane: unbounded Poisson arrivals, slab reclamation on,
// sharded. Phase workers touch store lanes while arrivals keep acquiring
// slabs between slots — the allocation/reuse traffic TSan should vet.
TEST(RaceStress, StreamingArrivalsWithReclaimOnShardedEngines) {
  auto run_streaming = [](unsigned shards) {
    auto factory = make_protocol("low-sensing");
    PoissonArrivals arrivals(0.35, /*horizon=*/0, Rng(99));  // unbounded stream
    NoJammer jammer;
    RunConfig cfg;
    cfg.seed = 7;
    cfg.max_slot = 30000;  // the budget, not the stream, ends the run
    cfg.shards = shards;
    cfg.reclaim = true;
    return record_run(EngineKind::kEvent, *factory, arrivals, jammer, cfg);
  };
  const RecordedRun serial = run_streaming(1);
  EXPECT_GT(serial.result.slabs_recycled, 0u);
  // slab_capacity and slabs_recycled are placement witnesses (sums of
  // per-shard free-list peaks), outside what first_difference compares.
  expect_same_run(serial, run_streaming(4), "streaming/shards=4");
}

}  // namespace
}  // namespace lowsense
