// T13 · engineering — intra-run shard scaling.
//
// PR 1's --threads= only scales ACROSS replicates; a single million-packet
// run — the regime where the paper's low-sensing guarantees actually bite
// — used to resolve every slot on one core. --shards=M splits one run's
// packet population over M threads (sim_core.hpp's three-phase resolve)
// with results bit-identical to serial, so the speedup is free of any
// statistical caveat: same trace, less wall time.
//
// This bench sweeps batch size x shard count on BOTH engines, records
// slots/s per cell, derives the shard-M-over-shard-1 speedup into the
// JSON ("derived" — tracked by scripts/bench_diff.py alongside speeds),
// and hard-checks that every sharded run reproduces the serial run
// exactly.
//
// Shape targets:
//   * bit-identity: every (engine, n, shards) cell equals its shards=1
//     twin in every first_difference field (a failure names the cell);
//   * speedup: > 2x slots/s at 4+ shards for the largest n on the slot
//     engine (only asserted when the host has >= 4 hardware threads; the
//     measured ratio is recorded either way).
#include <chrono>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "harness/suite.hpp"
#include "harness/sweep.hpp"
#include "protocols/registry.hpp"

using namespace lowsense;

namespace {

struct Cell {
  Replicates runs;
  double elapsed = 0.0;
  std::uint64_t slots = 0;
  double slots_per_sec() const {
    return elapsed > 0.0 ? static_cast<double>(slots) / elapsed : 0.0;
  }
};

void body(BenchContext& ctx) {
  const auto lo = static_cast<unsigned>(ctx.u64("lo_exp"));
  const auto hi = static_cast<unsigned>(ctx.u64("hi_exp"));
  const auto max_shards = static_cast<unsigned>(ctx.u64("max_shards"));

  std::vector<unsigned> shard_counts;
  for (unsigned s = 1; s <= max_shards; s *= 2) shard_counts.push_back(s);

  Table table({"engine", "N", "shards", "slots/s", "speedup", "identical"});
  std::string mismatch;  // the first differing cell, replicate and field
  double headline_speedup = 0.0;  // max shards vs 1, slot engine, largest n

  for (const EngineKind engine : {EngineKind::kSlot, EngineKind::kEvent}) {
    for (std::uint64_t n : pow2_sweep(lo, hi)) {
      std::vector<Cell> cells;
      for (unsigned shards : shard_counts) {
        Scenario s;
        s.name = std::string(engine_name(engine)) + "/n=" + std::to_string(n) +
                 "/shards=" + std::to_string(shards);
        s.protocol = [] { return make_protocol("low-sensing"); };
        s.arrivals = [n](std::uint64_t) { return std::make_unique<BatchArrivals>(n); };
        s.config.max_active_slots = 40ULL * n;
        s.config.shards = shards;
        s.engine = engine;
        s.engine_locked = true;  // the bench sweeps engines itself
        s.shards_locked = true;  // ... and shard counts

        Cell cell;
        const auto t0 = std::chrono::steady_clock::now();
        cell.runs = ctx.run(std::move(s),
                            {{"engine", engine_name(engine)},
                             {"n", std::to_string(n)},
                             {"shards", std::to_string(shards)}},
                            /*reps_override=*/0);
        cell.elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        for (const auto& run : cell.runs.runs) cell.slots += run.counters.active_slots;
        cells.push_back(std::move(cell));
      }

      const Cell& serial = cells.front();
      ScenarioResult speedups;
      speedups.name = std::string("speedup/") + engine_name(engine) + "/n=" + std::to_string(n);
      speedups.params = {{"engine", engine_name(engine)}, {"n", std::to_string(n)}};
      speedups.engine = engine_name(engine);
      speedups.elapsed_sec = serial.elapsed;

      for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell& cell = cells[i];
        const std::string diff = first_difference(serial.runs, cell.runs);
        if (!diff.empty() && mismatch.empty()) {
          mismatch = std::string(engine_name(engine)) + "/n=" + std::to_string(n) +
                     "/shards=" + std::to_string(shard_counts[i]) + " " + diff;
        }

        const double speedup =
            serial.elapsed > 0.0 && cell.elapsed > 0.0 ? serial.elapsed / cell.elapsed : 0.0;
        if (i > 0) {
          speedups.derived.emplace_back("speedup_x" + std::to_string(shard_counts[i]), speedup);
        }
        if (engine == EngineKind::kSlot && n == pow2_sweep(lo, hi).back() &&
            i + 1 == cells.size()) {
          headline_speedup = speedup;
        }
        table.add_row({engine_name(engine), std::to_string(n),
                       std::to_string(shard_counts[i]), Table::num(cell.slots_per_sec(), 0),
                       i == 0 ? "1.00" : Table::num(speedup, 2), diff.empty() ? "yes" : "NO"});
      }
      ctx.record(std::move(speedups));
    }
  }

  ctx.table(table, "(speedup = wall time at shards=1 over wall time at shards=M, same seeds; "
                   "identical = every replicate bit-identical to the shards=1 run)");

  ctx.check("sharded runs bit-identical to --shards=1 across the whole grid", mismatch.empty(),
            mismatch);

  const unsigned hw = ParallelExecutor::default_threads();
  const unsigned top = shard_counts.back();
  if (hw >= 4 && top >= 4) {
    ctx.check("slot engine > 2x slots/s at " + std::to_string(top) + " shards (largest N)",
              headline_speedup > 2.0,
              "measured " + Table::num(headline_speedup, 2) + "x on " + std::to_string(hw) +
                  " hardware threads");
  } else {
    ctx.check("slot engine shard speedup measured (scaling asserted on >= 4-core hosts)",
              headline_speedup > 0.0,
              "measured " + Table::num(headline_speedup, 2) + "x at " + std::to_string(top) +
                  " shards on " + std::to_string(hw) + " hardware thread(s)");
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchDef def;
  def.id = "T13";
  def.paper_anchor = "engineering (intra-run parallelism)";
  def.claim =
      "sharding one giant run over threads is bit-identical to serial and "
      "scales slots/s on the heavy high-contention phase";
  def.params = {BenchParam::u64("lo_exp", 17, "smallest batch size as a power of two"),
                BenchParam::u64("hi_exp", 20, "largest batch size as a power of two"),
                BenchParam::u64("max_shards", 8, "top of the 1,2,4,... shard sweep")};
  def.default_reps = 1;
  def.default_seed = 7;
  def.body = body;
  return run_bench_suite(def, argc, argv);
}
