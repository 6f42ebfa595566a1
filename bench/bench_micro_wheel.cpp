// M2 · AccessWheel micro-benchmarks (google-benchmark).
//
// Measures the timing-wheel accessor index on its own (schedule / pop /
// next-event scan, near-future ring vs. far-future overflow, steady churn
// of a live population) and the wheel-backed slot engine end to end.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "adversary/arrivals.hpp"
#include "adversary/jammer.hpp"
#include "protocols/low_sensing.hpp"
#include "sim/access_wheel.hpp"
#include "sim/sim_core.hpp"
#include "sim/slot_engine.hpp"

namespace {

using namespace lowsense;
using detail::AccessWheel;

void BM_WheelScheduleNear(benchmark::State& state) {
  // Steady-state ring traffic: schedule one in-window entry, pop it.
  AccessWheel wheel;
  std::vector<std::uint32_t> out;
  Slot t = 0;
  for (auto _ : state) {
    wheel.schedule(1, t + 64);
    out.clear();
    wheel.pop_slot(t + 64, &out);
    benchmark::DoNotOptimize(out.size());
    t += 65;
  }
}
BENCHMARK(BM_WheelScheduleNear);

void BM_WheelScheduleFar(benchmark::State& state) {
  // Far-future traffic: every entry crosses the overflow map and is
  // migrated back into the ring when the cursor jumps to it.
  AccessWheel wheel;
  std::vector<std::uint32_t> out;
  Slot t = 0;
  const Slot gap = 50 * AccessWheel::kWindow;
  for (auto _ : state) {
    wheel.schedule(1, t + gap);
    out.clear();
    wheel.pop_slot(t + gap, &out);
    benchmark::DoNotOptimize(out.size());
    t += gap + 1;
  }
}
BENCHMARK(BM_WheelScheduleFar);

void BM_WheelPopDense(benchmark::State& state) {
  // k accessors per slot, popped as one bucket.
  const auto k = static_cast<std::uint32_t>(state.range(0));
  AccessWheel wheel;
  std::vector<std::uint32_t> out;
  Slot t = 0;
  for (auto _ : state) {
    for (std::uint32_t id = 0; id < k; ++id) wheel.schedule(id, t);
    out.clear();
    wheel.pop_slot(t, &out);
    benchmark::DoNotOptimize(out.size());
    ++t;
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_WheelPopDense)->Arg(4)->Arg(64)->Arg(1024);

void BM_WheelNextScheduledScan(benchmark::State& state) {
  // Worst-ish bitmap scan: one entry almost a full window ahead.
  AccessWheel wheel;
  wheel.schedule(1, AccessWheel::kWindow - 1);
  for (auto _ : state) benchmark::DoNotOptimize(wheel.next_scheduled());
}
BENCHMARK(BM_WheelNextScheduledScan);

void BM_WheelChurn(benchmark::State& state) {
  // `live` ids stay scheduled; each popped id is re-scheduled at a gap in
  // [1, 8192], so buckets fill and drain on both the ring and level 2 and
  // chunks cycle through the pools' free lists. Gaps come from a
  // SplitMix64 stream seeded at run time.
  const auto live = static_cast<std::uint32_t>(state.range(0));
  AccessWheel wheel;
  std::uint64_t x = static_cast<std::uint64_t>(state.range(0));
  auto gap = [&x] {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return 1 + ((z ^ (z >> 31)) & 8191);
  };
  for (std::uint32_t id = 0; id < live; ++id) wheel.schedule(id, gap());
  std::vector<std::uint32_t> out;
  std::uint64_t popped = 0;
  for (auto _ : state) {
    const Slot t = wheel.next_scheduled();
    out.clear();
    wheel.pop_slot(t, &out);
    for (const std::uint32_t id : out) wheel.schedule(id, t + gap());
    popped += out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(popped));
  state.counters["pool_chunks"] = static_cast<double>(wheel.pool_chunks());
}
BENCHMARK(BM_WheelChurn)->Arg(4096);

void BM_SlotEngineBatch(benchmark::State& state) {
  // Wheel-backed slot engine on the classic batch workload. Cost is
  // O(active slots + accesses), independent of backlog width.
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
BENCHMARK(BM_SlotEngineBatch)->Arg(2048)->Arg(16384)->Arg(131072)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
