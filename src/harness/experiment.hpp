// Experiment harness: declarative scenario construction, seeded
// replication, and aggregation. Every bench and example builds its runs
// through this layer so that workloads are described once and reproduced
// identically.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "adversary/arrivals.hpp"
#include "adversary/jammer.hpp"
#include "core/stats.hpp"
#include "protocols/protocol.hpp"
#include "sim/event_engine.hpp"
#include "sim/run.hpp"
#include "sim/slot_engine.hpp"

namespace lowsense {

/// Which engine executes the scenario.
enum class EngineKind {
  kEvent,  ///< geometric gap-skipping (default; exact for our protocols)
  kSlot,   ///< slot-by-slot reference engine
};

/// Parses "event" / "slot" (the values benches accept for --engine=).
/// Throws std::invalid_argument on anything else.
EngineKind parse_engine(const std::string& name);
const char* engine_name(EngineKind kind) noexcept;

/// THE --jam-seed= pinning rule, shared by parse_jammer_spec and any
/// bench that builds randomized jammers directly: a nonzero `jam_seed`
/// keys the slot-keyed coins off it alone (one fixed adversary replayed
/// across every replicate and engine); otherwise the replicate seed keys
/// them (a fresh adversary per replicate).
inline CounterRng jammer_rng(std::uint64_t jam_seed, std::uint64_t seed,
                             std::uint64_t stream) noexcept {
  return CounterRng(jam_seed != 0 ? jam_seed : seed, stream);
}

/// Strict whole-string number parsers shared by the spec parsers below and
/// the scenario-pack loader. parse_u64_full takes plain decimal digits
/// only (no sign, no spaces: "-1" would otherwise wrap to 2^64-1);
/// parse_f64_full takes anything strtod does except leading spaces. Both
/// reject trailing characters ("1e3" as an integer, "0.3x") and out-of-
/// range values, and leave *out untouched on failure.
bool parse_u64_full(const std::string& text, std::uint64_t* out);
bool parse_f64_full(const std::string& text, double* out);

/// Parses a jammer spec (the value benches and the CLI accept for
/// --jammer=) into a per-seed jammer factory:
///
///   none | random:rate[,budget] | burst:period,len | victim:id,budget |
///   blanket:budget | band:lo,hi,budget | randband:lo,hi,rate[,budget[,jitter]]
///
/// Returns nullptr on a malformed spec, including parameter values the
/// jammer constructors reject (validated eagerly, so the factory itself
/// never throws). Randomized jammers (`random`, `randband`) draw
/// slot-keyed coins from a CounterRng keyed per `jammer_rng`.
std::function<std::unique_ptr<Jammer>(std::uint64_t seed)> parse_jammer_spec(
    const std::string& spec, std::uint64_t jam_seed = 0);

/// Parses an arrival spec (the value the CLI accepts for --arrivals=)
/// into a per-seed arrival-process factory:
///
///   batch:N | poisson:rate,N | aqt:lambda,S,pattern,N
///   (pattern: spread|front|random|pulse)
///
/// Returns nullptr on a malformed spec, including parameter values the
/// arrival-process constructors reject (validated eagerly, as for jammers).
std::function<std::unique_ptr<ArrivalProcess>(std::uint64_t seed)> parse_arrivals_spec(
    const std::string& spec);

/// A fully specified, repeatable scenario. The factories take a seed so
/// that stochastic arrival processes / jammers get fresh, deterministic
/// randomness per replicate.
struct Scenario {
  std::string name;
  std::function<std::unique_ptr<ProtocolFactory>()> protocol;
  std::function<std::unique_ptr<ArrivalProcess>(std::uint64_t seed)> arrivals;
  std::function<std::unique_ptr<Jammer>(std::uint64_t seed)> jammer;
  RunConfig config;
  EngineKind engine = EngineKind::kEvent;
  /// A bench sets this when the scenario only makes sense on `engine`
  /// (e.g. adaptive jammers pinned to the slot engine); the suite's
  /// --engine= override then leaves it alone.
  bool engine_locked = false;
  /// Same for config.shards: a bench that sweeps shard counts itself
  /// (bench_t13_shard_scaling) pins them against the --shards= override.
  bool shards_locked = false;
};

/// Runs the scenario once with the given seed; optional observers are
/// attached before the run starts.
RunResult run_scenario(const Scenario& scenario, std::uint64_t seed,
                       const std::vector<Observer*>& observers = {});

/// Replicated results plus per-metric aggregation.
struct Replicates {
  std::vector<RunResult> runs;

  Summary summarize(const std::function<double(const RunResult&)>& metric) const;
  Summary throughput() const;
  Summary implicit_throughput() const;
  Summary mean_accesses() const;
  Summary max_accesses() const;
  Summary peak_backlog() const;

  /// Pooled per-packet accumulators across all replicates, built with
  /// StreamingStats::merge. Unlike the Summary methods (one value per
  /// run), these aggregate at packet granularity: N runs of M packets
  /// merge into one accumulator over N*M packets.
  StreamingStats merged_access_stats() const;
  StreamingStats merged_send_stats() const;
  StreamingStats merged_latency_stats() const;
};

/// Runs `reps` replicates with seeds base_seed, base_seed+1, ...
Replicates replicate(const Scenario& scenario, int reps, std::uint64_t base_seed = 1);

/// Minimal --key=value argument parser shared by benches and examples.
///
/// Misspelled flags are a silent hazard (--thread=8 used to run serial
/// without a word), and so are loose numbers (--reps=abc used to run 0
/// replicates), so every entry point is expected to validate: query all
/// flags first, then call `unknown_keys()` (with the accepted-key list if
/// some keys were not queried) — it returns the flags the program does
/// not understand and the values it could not use, and callers print
/// usage and exit 2 when the list is non-empty. The suite runner does
/// this automatically for every bench.
class Args {
 public:
  /// The largest --threads=/--shards= value workers() accepts (the pack
  /// loader's `shards` bound too).
  static constexpr unsigned kMaxWorkers = 4096;

  Args(int argc, char** argv);

  /// Numbers are read whole (parse_u64_full / parse_f64_full): a value
  /// that does not parse yields `fallback` and is reported by
  /// unknown_keys().
  std::uint64_t u64(const std::string& key, std::uint64_t fallback) const;
  double f64(const std::string& key, double fallback) const;
  std::string str(const std::string& key, const std::string& fallback) const;
  bool flag(const std::string& key) const;
  /// THE --threads=/--shards= mapping to a worker count (default 1): 0
  /// means every core, 1..kMaxWorkers is taken literally, and anything
  /// else yields 1 and is reported by unknown_keys().
  unsigned workers(const std::string& key) const;

  /// Every --key present on the command line, in order (duplicates kept).
  std::vector<std::string> keys() const;

  /// Command-line tokens the program does not understand, ready to print:
  /// "--key" for flags neither in `known` nor ever queried by an accessor,
  /// every malformed token verbatim (single-dash or bare key=value —
  /// these never reach the accessors at all), and "--key=value" for each
  /// value a numeric accessor rejected so far.
  std::vector<std::string> unknown_keys(const std::vector<std::string>& known = {}) const;

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
  std::vector<std::string> malformed_;
  mutable std::vector<std::string> queried_;
  mutable std::vector<std::string> invalid_;
};

}  // namespace lowsense
