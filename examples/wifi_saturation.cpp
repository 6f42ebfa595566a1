// WLAN saturation scenario (the paper's intro motivation: WiFi [98]).
//
// A wireless cell where stations' frames arrive in adversarial bursts —
// think synchronized periodic telemetry plus a microwave oven: AQT pulse
// arrivals, and mid-run a 10,000-slot interference burst wipes out the
// channel. The run prints the implicit-throughput trajectory so you can
// watch LOW-SENSING BACKOFF absorb the burst and recover, while an
// Ethernet-style capped exponential backoff degrades.
//
//   ./wifi_saturation [--granularity=2048] [--lambda=0.25] [--seed=11]
//                     [--engine=event|slot]
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "harness/experiment.hpp"
#include "metrics/recorder.hpp"
#include "protocols/registry.hpp"

using namespace lowsense;

namespace {

Scenario wlan(const std::string& proto, double lambda, Slot granularity) {
  Scenario s;
  s.name = "wlan:" + proto;
  s.protocol = [proto] { return make_protocol(proto); };
  s.arrivals = [lambda, granularity](std::uint64_t seed) {
    return std::make_unique<AqtArrivals>(lambda, granularity, AqtPattern::kPulse, 20000,
                                         Rng::stream(seed, 0x511f1));
  };
  // Interference burst: 10k contiguous jammed slots starting at slot 30k.
  s.jammer = [](std::uint64_t) {
    std::vector<Slot> jams;
    for (Slot t = 30000; t < 40000; ++t) jams.push_back(t);
    return std::make_unique<ScheduleJammer>(std::move(jams));
  };
  s.config.max_active_slots = 2000000;
  return s;
}

void print_run(const std::string& proto, const RunResult& r, const Recorder& rec) {
  std::printf("\n[%s]\n", proto.c_str());
  std::printf("  delivered        : %llu / %llu frames%s\n",
              static_cast<unsigned long long>(r.counters.successes),
              static_cast<unsigned long long>(r.counters.arrivals),
              r.drained ? "" : "  (HORIZON HIT — backlog never cleared)");
  std::printf("  active slots     : %llu, jammed: %llu\n",
              static_cast<unsigned long long>(r.counters.active_slots),
              static_cast<unsigned long long>(r.counters.jammed_active_slots));
  std::printf("  throughput       : %.3f (jam-credited)\n", r.throughput());
  std::printf("  peak backlog     : %llu frames\n",
              static_cast<unsigned long long>(r.peak_backlog));
  std::printf("  worst frame lat. : %.0f slots\n", r.latency_stats.max());
  std::printf("  accesses/frame   : mean %.1f, max %llu\n", r.mean_accesses(),
              static_cast<unsigned long long>(r.max_accesses));
  std::printf("  trajectory (S_t : backlog, implicit tp):\n");
  for (const auto& p : rec.series()) {
    if (p.active_slots < 1000) continue;
    std::printf("    %8llu : %6llu  %.3f\n", static_cast<unsigned long long>(p.active_slots),
                static_cast<unsigned long long>(p.backlog), p.implicit_throughput);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const double lambda = args.f64("lambda", 0.25);
  const Slot granularity = args.u64("granularity", 2048);
  const std::uint64_t seed = args.u64("seed", 11);
  EngineKind engine = EngineKind::kEvent;
  try {
    engine = parse_engine(args.str("engine", "event"));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  for (const auto& k : args.unknown_keys()) {
    std::fprintf(stderr, "unknown flag or bad value %s\n", k.c_str());
    std::fprintf(stderr, "usage: wifi_saturation [--granularity=S] [--lambda=L] [--seed=S] "
                         "[--engine=event|slot]\n");
    return 2;
  }

  std::printf("WLAN saturation: AQT pulse arrivals (lambda=%.2f, S=%llu) + a 10k-slot\n"
              "interference burst at slot 30000. Watch the backlog drain afterwards.\n",
              lambda, static_cast<unsigned long long>(granularity));

  for (const std::string proto : {"low-sensing", "capped-exponential"}) {
    Recorder rec(1.5);
    Scenario s = wlan(proto, lambda, granularity);
    s.engine = engine;
    const RunResult r = run_scenario(s, seed, {&rec});
    print_run(proto, r, rec);
  }

  std::printf("\nTakeaway: the low-sensing stations recover to Theta(1) throughput after\n"
              "the burst with only polylog channel accesses per frame; the oblivious\n"
              "capped-exponential stations keep their inflated windows and throughput\n"
              "collapses as load grows.\n");
  return 0;
}
