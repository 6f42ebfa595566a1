// One definition of "the same run" for the identity tests (engine, shard,
// reclaim, thread and rerun comparisons). A run is recorded with a
// TraceDigest, which folds every arrival, every departure (slot, id,
// arrival, accesses, sends) and every access slot in order; two runs are
// the same run when first_difference (sim/run.hpp) finds no differing
// field AND the digests agree. The jammer families and the generated
// fuzz cases the identity sweeps share live here too, so every sweep
// draws its adversaries and scenarios from one place.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "adversary/arrivals.hpp"
#include "adversary/jammer.hpp"
#include "harness/experiment.hpp"
#include "metrics/trace.hpp"
#include "protocols/registry.hpp"
#include "sim/sim_core.hpp"

namespace lowsense {

/// A run's summary plus the digest of its observable event stream.
struct RecordedRun {
  RunResult result;
  TraceDigest digest;
};

inline RecordedRun record_run(EngineKind engine, const ProtocolFactory& factory,
                              ArrivalProcess& arrivals, Jammer& jammer, const RunConfig& cfg,
                              const std::vector<Observer*>& observers = {}) {
  RecordedRun out;
  detail::SimCore core(factory, arrivals, jammer, cfg);
  core.add_observer(&out.digest);
  for (Observer* obs : observers) core.add_observer(obs);
  out.result = core.run(engine);
  return out;
}

/// record_run through the harness: one replicate of `scenario`.
inline RecordedRun record_scenario(const Scenario& scenario, std::uint64_t seed) {
  RecordedRun out;
  out.result = run_scenario(scenario, seed, {&out.digest});
  return out;
}

inline void expect_same_run(const RecordedRun& a, const RecordedRun& b,
                            const std::string& label) {
  EXPECT_EQ(first_difference(a.result, b.result), "") << label;
  EXPECT_EQ(a.digest.hex(), b.digest.hex()) << label << ": trace digest";
}

/// Replicate sets (replicate, replicate_parallel) carry no digest.
inline void expect_same_run(const Replicates& a, const Replicates& b, const std::string& label) {
  EXPECT_EQ(first_difference(a, b), "") << label;
}

/// The eight jammer families.
enum class JamKind {
  kNone,
  kSchedule,
  kBurst,
  kReactiveBlanket,
  kRandom,
  kRandomBand,
  kBand,
  kVictim,
};

inline constexpr JamKind kAllJamKinds[] = {
    JamKind::kNone,   JamKind::kSchedule,   JamKind::kBurst, JamKind::kReactiveBlanket,
    JamKind::kRandom, JamKind::kRandomBand, JamKind::kBand,  JamKind::kVictim,
};

/// Builds a jammer; the twins of one comparison share `key` so the
/// randomized families flip identical slot-keyed coins.
inline std::unique_ptr<Jammer> make_jammer(JamKind kind, std::uint64_t key) {
  switch (kind) {
    case JamKind::kNone:
      return std::make_unique<NoJammer>();
    case JamKind::kSchedule: {
      std::vector<Slot> slots;
      for (Slot t = 3; t < 4000; t += 17) slots.push_back(t);
      return std::make_unique<ScheduleJammer>(slots);
    }
    case JamKind::kBurst:
      return std::make_unique<BurstJammer>(97, 13);
    case JamKind::kReactiveBlanket:
      return std::make_unique<ReactiveBlanketJammer>(40);
    case JamKind::kRandom:
      return std::make_unique<RandomJammer>(0.25, 600, CounterRng(key, 0xb1));
    case JamKind::kRandomBand:
      return std::make_unique<RandomContentionJammer>(0.5, 2.5, 0.5, 500, CounterRng(key, 0xb2),
                                                      0.3);
    case JamKind::kBand:
      return std::make_unique<ContentionBandJammer>(0.5, 4.0, 500);
    case JamKind::kVictim:
      return std::make_unique<ReactiveVictimJammer>(0, 100);
  }
  return nullptr;
}

/// One generated scenario of the engine and shard fuzz sweeps: a strictly
/// increasing burst schedule whose gaps mix adjacent slots, mid-range
/// gaps and far-future jumps (the wheel's overflow levels); budgets drawn
/// small enough that the max_slot and max_active_slots truncation edges,
/// arrivals past max_slot included, are hit constantly; and a jammer. The
/// randomized families also draw their key, rate, jam budget and band
/// geometry, so budget exhaustion lands mid-quiet-span as often as not.
struct FuzzCase {
  std::string protocol;
  std::vector<ArrivalBurst> bursts;
  RunConfig cfg;
  std::function<std::unique_ptr<Jammer>()> jammer;  ///< a fresh twin per call
  std::string label;

  /// The case on fresh arrivals and a fresh jammer twin, under `config`.
  RecordedRun run(EngineKind engine, const RunConfig& config) const {
    auto factory = make_protocol(protocol);
    EXPECT_NE(factory, nullptr) << protocol;
    if (!factory) return {};
    ScheduleArrivals arrivals(bursts);
    auto jam = jammer();
    return record_run(engine, *factory, arrivals, *jam, config);
  }
};

inline FuzzCase draw_fuzz_case(std::mt19937_64& gen, std::span<const JamKind> jams) {
  auto uniform = [&gen](std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(gen);
  };
  static constexpr const char* kProtocols[] = {
      "low-sensing",    "binary-exponential", "capped-exponential", "polynomial",
      "slow-oblivious", "mw-full-sensing",    "windowed-ethernet"};

  FuzzCase c;
  c.protocol = kProtocols[uniform(0, std::size(kProtocols) - 1)];
  const JamKind jam = jams[uniform(0, jams.size() - 1)];

  Slot t = uniform(0, 1) ? 0 : uniform(1, 30);
  const int n_bursts = static_cast<int>(uniform(1, 5));
  for (int b = 0; b < n_bursts; ++b) {
    c.bursts.push_back({t, uniform(1, 25)});
    switch (uniform(0, 2)) {
      case 0: t += uniform(1, 20); break;              // adjacent / near
      case 1: t += uniform(1000, 10000); break;        // mid-range gap
      default: t += uniform(100000, 10000000); break;  // far-future jump
    }
  }

  c.cfg.seed = uniform(1, 1u << 30);
  // Always bound the run, and often place max_slot before the last
  // arrival so the inactive-skip budget edge is exercised.
  if (uniform(0, 3) == 0) {
    c.cfg.max_active_slots = 0;
    c.cfg.max_slot = uniform(1, 20000);
  } else {
    c.cfg.max_active_slots = uniform(1, 5000);
    c.cfg.max_slot = uniform(0, 1) ? 0 : uniform(1, c.bursts.back().slot + 50);
  }

  if (jam == JamKind::kRandom || jam == JamKind::kRandomBand) {
    // Rates span the whole [~0, 1] range and budgets the whole spectrum
    // from "dries up immediately" to effectively unlimited.
    const std::uint64_t key = uniform(1, ~0ULL - 1);
    const double rate = static_cast<double>(uniform(1, 100)) / 100.0;
    const std::uint64_t budget = uniform(0, 3) == 0 ? 0 : uniform(1, 3000);
    if (jam == JamKind::kRandom) {
      c.jammer = [=] {
        return std::make_unique<RandomJammer>(rate, budget, CounterRng(key, 0xb1));
      };
    } else {
      const double lo = static_cast<double>(uniform(0, 150)) / 100.0;
      const double hi = lo + static_cast<double>(uniform(10, 300)) / 100.0;
      const double jitter = uniform(0, 1) ? 0.0 : static_cast<double>(uniform(1, 50)) / 100.0;
      c.jammer = [=] {
        return std::make_unique<RandomContentionJammer>(lo, hi, rate, budget,
                                                        CounterRng(key, 0xb2), jitter);
      };
    }
  } else {
    c.jammer = [jam, key = c.cfg.seed] { return make_jammer(jam, key); };
  }

  c.label = c.protocol + "/jam" + std::to_string(static_cast<int>(jam)) + "/ms" +
            std::to_string(c.cfg.max_slot) + "/mas" + std::to_string(c.cfg.max_active_slots);
  return c;
}

}  // namespace lowsense
