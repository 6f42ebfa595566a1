// M1 · engineering micro-benchmarks (google-benchmark).
//
// Measures the simulator's raw speed: events/sec in the event-driven
// engine, slots/sec in the reference engine, and the RNG/geometric-gap
// primitives both engines are built on. The headline: gap-skipping makes
// cost proportional to CHANNEL ACCESSES, not slots — the same property
// that makes LOW-SENSING BACKOFF energy-efficient makes it cheap to
// simulate.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "adversary/arrivals.hpp"
#include "adversary/jammer.hpp"
#include "core/rng.hpp"
#include "protocols/low_sensing.hpp"
#include "protocols/mw_full_sensing.hpp"
#include "sim/event_engine.hpp"
#include "sim/slot_engine.hpp"

namespace {

using namespace lowsense;

void BM_RngU64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngU64);

void BM_GeometricGap(benchmark::State& state, double p) {
  Rng rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(rng.geometric_gap(p));
}
// Series named by 1/p, plus the floor regime: an LSB packet at w_min
// listens with p ~ 2/3, where the threshold stage decides most gaps.
BENCHMARK_CAPTURE(BM_GeometricGap, 16, 1.0 / 16);
BENCHMARK_CAPTURE(BM_GeometricGap, 1048576, 1.0 / (1 << 20));
BENCHMARK_CAPTURE(BM_GeometricGap, floor_2_3, 2.0 / 3.0);

void BM_LsbObservation(benchmark::State& state) {
  LowSensingBackoff lsb;
  bool noisy = true;
  for (auto _ : state) {
    lsb.on_observation({noisy ? Feedback::kNoisy : Feedback::kEmpty, false});
    noisy = !noisy;
    benchmark::DoNotOptimize(lsb.window());
  }
}
BENCHMARK(BM_LsbObservation);

void BM_LsbStepBatch(benchmark::State& state, bool floor_regime) {
  // Phase 3's protocol work for one slot of range(0) LSB packets:
  // range(1) = 0 steps them one object at a time (Protocol::step), 1
  // through the factory's loop-split step_batch. Feedback is mixed per
  // packet from a fixed 1024-entry pattern, so windows random-walk; in
  // the floor regime it is 70% silence, 15% success, 15% noise, so
  // windows stay at or near w_min, as under a steady jammed stream.
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool batched = state.range(1) != 0;
  LowSensingFactory factory;
  std::vector<std::unique_ptr<Protocol>> protos;
  std::vector<Rng> rngs;
  std::vector<StepItem> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    protos.push_back(factory.create());
    rngs.push_back(Rng::stream(1, i));
  }
  std::vector<Observation> pattern(1024);
  Rng fb(9);
  for (Observation& o : pattern) {
    const std::uint64_t roll = fb.next_below(floor_regime ? 100 : 3);
    const Feedback f = !floor_regime ? static_cast<Feedback>(roll)
                       : roll < 70   ? Feedback::kEmpty
                       : roll < 85   ? Feedback::kSuccess
                                     : Feedback::kNoisy;
    o = {f, false};
  }
  std::size_t next = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      items[i] = StepItem{protos[i].get(), &rngs[i], pattern[next++ % pattern.size()], {}};
    }
    if (batched) {
      factory.step_batch(items);
    } else {
      for (StepItem& it : items) it.proto->step(it.obs, *it.rng, &it.out);
    }
    benchmark::DoNotOptimize(items.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(batched ? "step_batch" : "per-object step");
}
void BM_LsbStepBatch(benchmark::State& state) { BM_LsbStepBatch(state, false); }
BENCHMARK(BM_LsbStepBatch)->Args({96, 0})->Args({96, 1});
BENCHMARK_CAPTURE(BM_LsbStepBatch, floor, true)->Args({1, 1});

void BM_EventEngineBatch(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t total_slots = 0;
  for (auto _ : state) {
    LowSensingFactory factory;
    BatchArrivals arrivals(n);
    NoJammer none;
    RunConfig cfg;
    cfg.seed = 1;
    EventEngine engine(factory, arrivals, none, cfg);
    const RunResult r = engine.run();
    total_slots += r.counters.active_slots;
    benchmark::DoNotOptimize(r.counters.successes);
  }
  state.counters["slots/s"] = benchmark::Counter(static_cast<double>(total_slots),
                                                 benchmark::Counter::kIsRate);
  state.counters["pkts/s"] =
      benchmark::Counter(static_cast<double>(n) * static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventEngineBatch)->Arg(256)->Arg(2048)->Arg(16384)->Unit(benchmark::kMillisecond);

void BM_SlotEngineBatch(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t total_slots = 0;
  for (auto _ : state) {
    LowSensingFactory factory;
    BatchArrivals arrivals(n);
    NoJammer none;
    RunConfig cfg;
    cfg.seed = 1;
    SlotEngine engine(factory, arrivals, none, cfg);
    const RunResult r = engine.run();
    total_slots += r.counters.active_slots;
    benchmark::DoNotOptimize(r.counters.successes);
  }
  state.counters["slots/s"] = benchmark::Counter(static_cast<double>(total_slots),
                                                 benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SlotEngineBatch)->Arg(256)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_EventEngineMwFullSensing(benchmark::State& state) {
  // Worst case for the event engine: a protocol that accesses every slot
  // (no gaps to skip) — quantifies the value of gap-skipping by contrast.
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    MwFullSensingFactory factory;
    BatchArrivals arrivals(n);
    NoJammer none;
    RunConfig cfg;
    cfg.seed = 1;
    EventEngine engine(factory, arrivals, none, cfg);
    benchmark::DoNotOptimize(engine.run().counters.successes);
  }
}
BENCHMARK(BM_EventEngineMwFullSensing)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_EventEngineJammed(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    LowSensingFactory factory;
    BatchArrivals arrivals(n);
    BurstJammer jammer(1000, 100);
    RunConfig cfg;
    cfg.seed = 1;
    EventEngine engine(factory, arrivals, jammer, cfg);
    benchmark::DoNotOptimize(engine.run().counters.successes);
  }
}
BENCHMARK(BM_EventEngineJammed)->Arg(2048)->Unit(benchmark::kMillisecond);

// Coin-pipeline grid: span in {2^10, 2^16, 2^20} x p in {0.01, 0.5, 0.99}
// (p arrives as range(1)/1000 — google-benchmark args are integral). The
// p sweep matters because the per-slot baseline branches on the coin
// while the batched replay is branch-free: skew makes the per-slot
// loop look better than it is at p=0.5.
#define LOWSENSE_COIN_SPAN_GRID \
  ArgsProduct({{1 << 10, 1 << 16, 1 << 20}, {10, 500, 990}})

void BM_ScalarCoinSpan(benchmark::State& state) {
  // The pre-batching quiet-span replay: one CounterRng Bernoulli call per
  // slot. Baseline for BM_BatchedCoinSpan deltas.
  const CounterRng rng(1, 0xb1);
  const auto span = static_cast<std::uint64_t>(state.range(0));
  const double p = static_cast<double>(state.range(1)) / 1000.0;
  Slot lo = 0;
  for (auto _ : state) {
    std::uint64_t n = 0;
    for (Slot t = lo; t < lo + span; ++t) n += rng.bernoulli(t, p);
    benchmark::DoNotOptimize(n);
    lo += span;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(span));
}
BENCHMARK(BM_ScalarCoinSpan)->LOWSENSE_COIN_SPAN_GRID;

void BM_BatchedCoinSpan(benchmark::State& state) {
  // count_bernoulli_span, the production quiet-span replay: integer-
  // threshold coins in 64-slot popcount blocks (spans up to kInlineSpan
  // loop inline).
  const CounterRng rng(1, 0xb1);
  const auto span = static_cast<std::uint64_t>(state.range(0));
  const double p = static_cast<double>(state.range(1)) / 1000.0;
  Slot lo = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.count_bernoulli_span(lo, lo + span - 1, p));
    lo += span;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(span));
}
BENCHMARK(BM_BatchedCoinSpan)->LOWSENSE_COIN_SPAN_GRID;

void BM_RandbandReplay(benchmark::State& state) {
  // The jittered randband quiet-span replay (three slot-keyed hashes per
  // slot: jam coin + two band-edge jitters) — what
  // RandomContentionJammer::count_quiet_range costs under jitter.
  const CounterRng rng(1, 0xb1);
  const auto span = static_cast<std::uint64_t>(state.range(0));
  Slot lo = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rng.count_jittered_band_span(lo, lo + span - 1, 1.7, 0.5, 4.0, 0.25, 0.5));
    lo += span;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(span));
}
BENCHMARK(BM_RandbandReplay)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_EventEngineRandomJammed(benchmark::State& state) {
  // Slot-keyed random jamming: quiet spans are accounted by replaying one
  // CounterRng coin per slot, so the event engine's cost degrades from
  // O(accesses) toward O(active slots). This tracks that price — the toll
  // paid for making randomized adversaries trace-equivalent.
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t total_slots = 0;
  for (auto _ : state) {
    LowSensingFactory factory;
    BatchArrivals arrivals(n);
    RandomJammer jammer(0.2, 0, CounterRng(1, 0xb1));
    RunConfig cfg;
    cfg.seed = 1;
    EventEngine engine(factory, arrivals, jammer, cfg);
    const RunResult r = engine.run();
    total_slots += r.counters.active_slots;
    benchmark::DoNotOptimize(r.counters.successes);
  }
  state.counters["slots/s"] = benchmark::Counter(static_cast<double>(total_slots),
                                                 benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventEngineRandomJammed)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_EventEnginePoissonJammed(benchmark::State& state) {
  // The streaming per-slot path: a poisson:0.05 stream under random:0.3
  // jamming over a fixed horizon keeps the live backlog near ten, so
  // nearly every access slot has one or two accessors and the cost is
  // the slot's fixed work (wheel, send coin, arbitration, jammer,
  // injection, slab recycling), not per-accessor work. The batch cases
  // above never take this path.
  const auto horizon = static_cast<Slot>(state.range(0));
  std::uint64_t total_accesses = 0;
  for (auto _ : state) {
    LowSensingFactory factory;
    PoissonArrivals arrivals(0.05, 0, Rng(1));
    RandomJammer jammer(0.3, 0, CounterRng(2, 0xb1));
    RunConfig cfg;
    cfg.seed = 1;
    cfg.max_slot = horizon;
    EventEngine engine(factory, arrivals, jammer, cfg);
    const RunResult r = engine.run();
    total_accesses += static_cast<std::uint64_t>(r.access_stats.sum());
    benchmark::DoNotOptimize(r.counters.successes);
  }
  state.counters["accesses/s"] = benchmark::Counter(static_cast<double>(total_accesses),
                                                    benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventEnginePoissonJammed)->Arg(200000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
