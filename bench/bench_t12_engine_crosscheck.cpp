// T12 · engineering cross-check — trace equivalence of the two engines.
//
// Every jammer family now draws slot-keyed coins (CounterRng), so the
// gap-skipping event engine and the slot-by-slot reference engine must
// produce IDENTICAL runs — every field first_difference compares — on
// every scenario, not merely equal distributions. This bench runs a
// protocol × adversary grid through BOTH engines and diffs the results
// exactly (a failure names the cell, replicate and field); the per-engine
// slots/s land in BENCH_T12.json, so the regression tracker also watches
// the event engine's gap-skipping advantage over time.
//
// Shape target: zero mismatches anywhere in the grid.
#include <chrono>
#include <string>
#include <vector>

#include "harness/suite.hpp"
#include "protocols/registry.hpp"

using namespace lowsense;

namespace {

struct Cell {
  const char* proto;
  const char* jammer;  // parse_jammer_spec syntax
};

void body(BenchContext& ctx) {
  const std::uint64_t n = ctx.u64("n");

  const Cell kGrid[] = {
      {"low-sensing", "none"},
      {"low-sensing", "random:0.3"},
      {"low-sensing", "burst:100,10"},
      {"low-sensing", "band:0.5,4,512"},
      {"low-sensing", "randband:0.5,4,0.5,512,0.25"},
      {"low-sensing", "victim:0,64"},
      {"low-sensing", "blanket:256"},
      {"binary-exponential", "none"},
      {"binary-exponential", "random:0.2"},
      {"windowed-ethernet", "burst:64,8"},
  };

  Table table({"protocol", "jammer", "active slots", "successes", "jammed", "max acc",
               "match"});
  std::string mismatch;  // the first differing cell, replicate and field

  for (const Cell& cell : kGrid) {
    const auto jam_factory = parse_jammer_spec(cell.jammer, ctx.jam_seed());
    Scenario s;
    s.protocol = [proto = std::string(cell.proto)] { return make_protocol(proto); };
    s.arrivals = [n](std::uint64_t) { return std::make_unique<BatchArrivals>(n); };
    s.jammer = jam_factory;
    s.config.max_active_slots = 400ULL * n;

    Replicates results[2];
    double elapsed[2] = {0.0, 0.0};
    std::uint64_t slots[2] = {0, 0};
    for (const EngineKind engine : {EngineKind::kSlot, EngineKind::kEvent}) {
      const int leg = engine == EngineKind::kEvent;
      Scenario variant = s;
      variant.name = std::string(cell.proto) + "/" + cell.jammer + "/" + engine_name(engine);
      variant.engine = engine;
      variant.engine_locked = true;  // each grid leg pins its own engine
      const auto t0 = std::chrono::steady_clock::now();
      results[leg] =
          ctx.run(std::move(variant),
                  {{"proto", cell.proto}, {"jammer", cell.jammer},
                   {"engine", engine_name(engine)}});
      elapsed[leg] =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      for (const auto& run : results[leg].runs) slots[leg] += run.counters.active_slots;
    }

    // The event engine's gap-skipping advantage as a tracked number: the
    // slot-over-event slots/s ratio per cell (plus the grid total below).
    // Lands in the JSON "derived" block, which bench_diff.py watches for
    // drift separately from the bit-identical metric medians.
    if (elapsed[0] > 0.0 && elapsed[1] > 0.0 && slots[0] > 0 && slots[1] > 0) {
      ScenarioResult ratio;
      ratio.name = std::string("speed-ratio/") + cell.proto + "/" + cell.jammer;
      ratio.params = {{"proto", cell.proto}, {"jammer", cell.jammer}};
      ratio.engine = "both";
      ratio.elapsed_sec = elapsed[0] + elapsed[1];
      const double slot_sps = static_cast<double>(slots[0]) / elapsed[0];
      const double event_sps = static_cast<double>(slots[1]) / elapsed[1];
      ratio.derived.emplace_back("slot_over_event_slots_per_sec", slot_sps / event_sps);
      ctx.record(std::move(ratio));
    }

    const std::string diff = first_difference(results[0], results[1]);
    if (!diff.empty() && mismatch.empty()) {
      mismatch = std::string(cell.proto) + "/" + cell.jammer + " " + diff;
    }

    const RunResult& r0 = results[0].runs.front();
    table.add_row({cell.proto, cell.jammer, std::to_string(r0.counters.active_slots),
                   std::to_string(r0.counters.successes),
                   std::to_string(r0.counters.jammed_active_slots),
                   std::to_string(r0.max_accesses), diff.empty() ? "yes" : "NO"});
  }

  ctx.table(table, "(first replicate shown; match = every replicate bit-identical across "
                   "slot and event engines)");

  ctx.check("slot and event engines bit-identical across the whole grid", mismatch.empty(),
            mismatch);
}

}  // namespace

int main(int argc, char** argv) {
  BenchDef def;
  def.id = "T12";
  def.paper_anchor = "engineering (trace equivalence)";
  def.claim =
      "every jammer family is trace-equivalent: slot and event engines produce "
      "bit-identical runs on a protocol x adversary grid";
  def.params = {BenchParam::u64("n", 1024, "batch size per grid cell")};
  def.default_reps = 3;
  def.default_seed = 21;
  def.body = body;
  return run_bench_suite(def, argc, argv);
}
