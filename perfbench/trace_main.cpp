// Traced driver: per-layer counts and times. After one untimed warm-up it
// cycles through an untraced, a traced and an untraced 2-shard repetition
// until --seconds have passed (at least two cycles). The gate requires
// every traced and 2-shard digest to equal the untraced one, and every
// traced repetition to give identical per-layer counts; `trace.overhead`
// is traced ÷ untraced wall time.
//
//   perfbench_trace --workload jammed-stream --seed 1 --seconds 30 --trace 1
#include <algorithm>
#include <cstdio>
#include <exception>
#include <vector>

#include "layers.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

constexpr std::size_t kMinTracedReps = 2;

/// Exact counts of one traced repetition: the layer wrappers' counters,
/// the observer tap and RunResult totals. Two traced repetitions of one
/// workload must produce the same vector.
struct Counts {
  LayerTotals layers;
  double accesses = 0.0;
  std::uint64_t active_slots = 0;
  std::uint64_t successes = 0;
  std::uint64_t peak_backlog = 0;   // max over entries
  std::uint64_t slab_capacity = 0;  // max over entries
  std::uint64_t slabs_recycled = 0;

  std::vector<double> fingerprint() const {
    std::vector<double> f(layers.counts.begin(), layers.counts.end());
    f.insert(f.end(), layers.accessors_hist.begin(), layers.accessors_hist.end());
    for (const double x : {static_cast<double>(layers.access_slots),
                           static_cast<double>(layers.heavy_slots),
                           static_cast<double>(layers.quiet_spans), accesses,
                           static_cast<double>(active_slots), static_cast<double>(successes),
                           static_cast<double>(peak_backlog), static_cast<double>(slab_capacity),
                           static_cast<double>(slabs_recycled)}) {
      f.push_back(x);
    }
    return f;
  }
};

Counts counts_of(const Rep& rep, LayerTotals layers) {
  Counts c;
  c.layers = std::move(layers);
  c.accesses = rep.accesses;
  for (const auto& o : rep.outcomes) {
    c.active_slots += o.run.counters.active_slots;
    c.successes += o.run.counters.successes;
    c.peak_backlog = std::max(c.peak_backlog, o.run.peak_backlog);
    c.slab_capacity = std::max(c.slab_capacity, o.run.slab_capacity);
    c.slabs_recycled += o.run.slabs_recycled;
  }
  return c;
}

double per_layer_median(const std::vector<LayerTotals>& runs, Layer layer) {
  std::vector<double> xs;
  for (const LayerTotals& t : runs) xs.push_back(t.self_s(layer));
  return median(std::move(xs));
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string error;
  Workload workload;
  if (!parse_options(argc, argv, &opt, &error) ||
      !make_workload(opt.workload, opt.seed, &workload, &error)) {
    std::fprintf(stderr, "perfbench_trace: %s\n", error.c_str());
    return 2;
  }
  print_context(workload, opt);

  Gate gate(opt);
  LayerTracer tracer;
  std::vector<double> untraced_wall, traced_wall, run_s, parse_s, build_s, run2_s, cpu2_s;
  std::vector<LayerTotals> traced_layers;
  Counts counts;
  std::vector<double> fingerprint;
  try {
    gate.check(run_rep(workload, kTimedShards, nullptr, opt.pin_digest), "warm-up");
    const Clock::time_point start = Clock::now();
    while (traced_wall.size() < kMinTracedReps ||
           seconds_between(start, Clock::now()) < opt.seconds) {
      const Rep plain = run_rep(workload, kTimedShards, nullptr, opt.pin_digest);
      gate.check(plain, "untraced");
      untraced_wall.push_back(plain.wall_s);
      run_s.push_back(plain.run_s);
      parse_s.push_back(plain.parse_s);
      build_s.push_back(plain.build_s);

      tracer.reset();
      const Rep rep = run_rep(workload, kTimedShards, &tracer, opt.pin_digest);
      gate.check(rep, "traced");
      traced_wall.push_back(rep.wall_s);
      Counts c = counts_of(rep, tracer.totals());
      if (fingerprint.empty()) {
        fingerprint = c.fingerprint();
        counts = c;
      } else if (c.fingerprint() != fingerprint) {
        gate.fail("per-layer counts differ between traced repetitions", "");
      }
      traced_layers.push_back(std::move(c.layers));

      // The executor fork-joins and the shard merge run only when sharded.
      const Rep two = run_rep(workload, kCheckShards, nullptr, opt.pin_digest);
      gate.check(two, "2-shard");
      run2_s.push_back(two.run_s);
      cpu2_s.push_back(two.cpu_s);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
    return 1;
  }

  const LayerTotals& t = counts.layers;
  const double protocols_s = per_layer_median(traced_layers, Layer::kProtocols);
  const double adversary_s = per_layer_median(traced_layers, Layer::kAdversary);
  const double metrics_s = per_layer_median(traced_layers, Layer::kMetrics);
  const double sim_run_s = median(run_s);
  const auto protocol_calls =
      static_cast<double>(t.calls[static_cast<std::size_t>(Layer::kProtocols)]);
  const double per_access_calls = protocol_calls - static_cast<double>(t.count(Count::kCreate));
  auto n = [](std::uint64_t v) { return static_cast<double>(v); };

  std::printf("{\"traced_reps\": %zu, \"samples\": [%llu, %llu, %llu]}\n", traced_wall.size(),
              static_cast<unsigned long long>(t.samples[0]),
              static_cast<unsigned long long>(t.samples[1]),
              static_cast<unsigned long long>(t.samples[2]));
  print_result(
      gate.ok(), gate.attempted(), gate.failed(),
      {
          {"protocols.calls.on_observation", n(t.count(Count::kOnObservation)), "count"},
          {"protocols.calls.draw_gap", n(t.count(Count::kDrawGap)), "count"},
          {"protocols.calls.send_prob_given_access", n(t.count(Count::kSendProbGivenAccess)),
           "count"},
          {"protocols.calls.access_prob", n(t.count(Count::kAccessProb)), "count"},
          {"protocols.calls.window", n(t.count(Count::kWindow)), "count"},
          {"protocols.calls.create", n(t.count(Count::kCreate)), "count"},
          {"protocols.calls_per_access", per_access_calls / counts.accesses, "1"},
          {"protocols.self_s", protocols_s, "s"},
          {"protocols.ns_per_call", protocols_s / protocol_calls * 1e9, "ns"},
          {"adversary.jam.calls", n(t.count(Count::kJamCalls)), "count"},
          {"adversary.quiet_range.calls", n(t.count(Count::kQuietRangeCalls)), "count"},
          {"adversary.quiet_range.slots", n(t.count(Count::kQuietRangeSlots)), "count"},
          {"adversary.jams", n(t.count(Count::kJams)), "count"},
          {"adversary.arrivals.bursts", n(t.count(Count::kBursts)), "count"},
          {"adversary.arrivals.packets", n(t.count(Count::kPackets)), "count"},
          {"adversary.self_s", adversary_s, "s"},
          {"metrics.callbacks", n(t.count(Count::kCallbacks)), "count"},
          {"metrics.self_s", metrics_s, "s"},
          {"sim.run_s", sim_run_s, "s"},
          {"sim.self_s", sim_run_s - protocols_s - adversary_s - metrics_s, "s"},
          {"sim.accesses", counts.accesses, "count"},
          {"sim.active_slots", n(counts.active_slots), "count"},
          {"sim.access_slots", n(t.access_slots), "count"},
          {"sim.accessors_per_slot.p50", n(t.accessors_quantile(0.50)), "count"},
          {"sim.accessors_per_slot.p99", n(t.accessors_quantile(0.99)), "count"},
          {"sim.accessors_per_slot.max", n(t.accessors_quantile(1.0)), "count"},
          {"sim.heavy_slots", n(t.heavy_slots), "count"},
          {"sim.quiet_spans", n(t.quiet_spans), "count"},
          {"sim.peak_backlog", n(counts.peak_backlog), "count"},
          {"sim.slab_capacity", n(counts.slab_capacity), "count"},
          {"sim.slabs_recycled", n(counts.slabs_recycled), "count"},
          {"sim.success_per_access", n(counts.successes) / counts.accesses, "1"},
          {"sim.shards2.run_s", median(run2_s), "s"},
          {"sim.shards2.cpu_s", median(cpu2_s), "s"},
          {"sim.shards2.speedup", sim_run_s / median(run2_s), "1"},
          {"harness.pack_parse_s", median(parse_s), "s"},
          {"harness.scenario_build_s", median(build_s), "s"},
          {"trace.overhead", median(traced_wall) / median(untraced_wall), "1"},
      });
  return gate.ok() ? 0 : 1;
}
