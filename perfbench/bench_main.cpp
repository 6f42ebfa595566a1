// End-to-end driver: one untimed warm-up repetition, then warm timed
// repetitions until --seconds have passed, then one untimed 2-shard
// repetition; every repetition is digest-gated. Reports per-repetition
// medians, so one slow repetition (a page-fault burst, a preemption) cannot
// set a metric.
//
//   perfbench --workload batch-drain --seed 1 --seconds 30 --trace 0
#include <cstdio>
#include <exception>
#include <vector>

#include "workload.hpp"

namespace {

constexpr std::size_t kMinTimedReps = 3;

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string error;
  Workload workload;
  if (!parse_options(argc, argv, &opt, &error) ||
      !make_workload(opt.workload, opt.seed, &workload, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  if (opt.trace != 0) {
    std::fprintf(stderr, "perfbench: --trace 1 is perfbench_trace's job\n");
    return 2;
  }
  print_context(workload, opt);

  Gate gate(opt);
  std::vector<double> rate, cpu, setup;
  double accesses = 0.0;
  double peak_rss = 0.0;
  try {
    // The first repetition of a process pays heap growth and page faults;
    // it only supplies the reference digests.
    gate.check(run_rep(workload, kTimedShards, nullptr, opt.pin_digest), "warm-up");
    const Clock::time_point start = Clock::now();
    while (rate.size() < kMinTimedReps || seconds_between(start, Clock::now()) < opt.seconds) {
      const Rep rep = run_rep(workload, kTimedShards, nullptr, opt.pin_digest);
      gate.check(rep, "timed");
      rate.push_back(rep.accesses / rep.wall_s);
      cpu.push_back(rep.cpu_s);
      setup.push_back(rep.setup_s);
      accesses = rep.accesses;
    }
    peak_rss = peak_rss_mib();
    // serial == sharded. Run last, so the pool threads' malloc arenas stay
    // out of the timed repetitions and of the peak RSS.
    gate.check(run_rep(workload, kCheckShards, nullptr, opt.pin_digest), "2-shard");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::string rates;
  for (const double r : rate) rates += (rates.empty() ? "" : ", ") + std::to_string(r);
  std::printf(
      "{\"timed_reps\": %zu, \"accesses_per_rep\": %.17g, \"failed_frac\": %.17g, "
      "\"accesses_per_s_by_rep\": [%s]}\n",
      rate.size(), accesses,
      static_cast<double>(gate.failed()) / static_cast<double>(gate.attempted()), rates.c_str());
  print_result(gate.ok(), gate.attempted(), gate.failed(),
               {{"accesses_per_s", median(rate), "1/s"},
                {"cpu_s", median(cpu), "s"},
                {"peak_rss_mib", peak_rss, "MiB"},
                {"setup_s", median(setup), "s"}});
  return gate.ok() ? 0 : 1;
}
