// Declarative scenario packs: workloads as data instead of code.
//
// A pack is a small text file (one scenario per [section]) naming a
// protocol, an arrival spec, a jammer spec + jam-seed, a budget or
// horizon, and optional steady-state windowing, expectations, and a
// pinned trace digest:
//
//   pack = sensor-swarm-churn
//   description = duty-cycled sensors trickling reports through mud
//
//   [lsb-trickle]
//   protocol = low-sensing
//   arrivals = poisson:0.02,0
//   jammer   = random:0.05
//   jam-seed = 11
//   seed     = 42
//   horizon  = 20000
//   window   = 2000
//   warmup   = 2
//   expect   = throughput >= 0.01
//   expect   = drained
//   digest   = 0123456789abcdef
//
// Parsing is EAGER: unknown keys, unknown protocol names, malformed
// arrival/jammer specs, bad numbers, and expectations on metrics that
// need a missing `window` are all rejected at load time with file:line
// positions (a bad value at its key's line) — a pack that parses will run.
//
// The `digest` is the TraceDigest of the run (see metrics/trace.hpp):
// engine- and shard-invariant by the determinism contract, so a pinned
// digest is a cross-engine, cross-shard golden value. The pack_verify_*
// ctest lanes (cmake/InvarianceMatrix.cmake) byte-compare regenerated
// manifests with the checked-in ones; `pack_diff.py` explains a drift.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "harness/steady_state.hpp"
#include "metrics/trace.hpp"

namespace lowsense {

/// One `expect = ...` line: `metric >= value`, `metric <= value`, or the
/// bare `drained` sugar.
struct PackExpectation {
  enum class Op { kGe, kLe, kTruthy };

  std::string metric;
  Op op = Op::kTruthy;
  double value = 0.0;
  std::string text;  ///< the original right-hand side, for reporting
};

/// One scenario entry of a pack, as parsed (specs kept as text so the
/// manifest and reports can echo them verbatim).
struct PackEntry {
  std::string name;
  std::string protocol;         ///< registry name (required)
  std::string arrivals;         ///< arrival spec (required)
  std::string jammer = "none";  ///< jammer spec
  std::uint64_t jam_seed = 0;   ///< fixed-adversary pin (see jammer_rng)
  std::uint64_t seed = 1;       ///< the entry's pinned run seed
  std::uint64_t budget = 0;     ///< max ACTIVE slots (0 = unlimited)
  Slot horizon = 0;             ///< max absolute slot (0 = unlimited)
  unsigned shards = 0;          ///< >0 pins the shard count (shards_locked)
  Slot window = 0;              ///< steady-state window (0 = no windowing)
  std::uint64_t warmup = 0;     ///< warmup windows discarded by summarize
  std::string digest;           ///< expected TraceDigest hex ("" = unpinned)
  std::vector<PackExpectation> expects;
};

struct ScenarioPack {
  std::string name;
  std::string description;
  std::vector<PackEntry> entries;

  /// nullptr when no entry has that name.
  const PackEntry* find(const std::string& entry_name) const;
};

/// Parses pack text from `in`; `origin` labels error positions (usually
/// the file path). Returns false and sets *error ("origin:line: what") on
/// the FIRST problem.
bool parse_scenario_pack(std::istream& in, const std::string& origin, ScenarioPack* out,
                         std::string* error);

/// Opens and parses `path`.
bool load_scenario_pack(const std::string& path, ScenarioPack* out, std::string* error);

/// Resolves a `FILE[:name]` reference (the --pack= value): the whole
/// string is tried as a path first, then split at the LAST ':' into
/// path + entry filter. With a filter the returned pack holds exactly
/// that entry; an unmatched name is an error.
bool load_scenario_pack_ref(const std::string& ref, ScenarioPack* out, std::string* error);

/// The metric names `expect` lines may test. steady_* names require the
/// entry to set `window`.
const std::vector<std::string>& pack_metric_names();

/// Builds the runnable Scenario for an entry: protocol/arrivals/jammer
/// factories from the parsed specs, budget/horizon in config, shards
/// pinned (and locked) when the entry sets them. Engine is the default
/// and UNLOCKED — packs are engine-invariant by construction, so runners
/// apply their own --engine/--shards overrides on top.
Scenario make_pack_scenario(const PackEntry& entry);

/// Everything one entry's run produced.
struct PackEntryOutcome {
  std::string scenario;  ///< entry name
  std::string digest;    ///< computed TraceDigest hex
  std::uint64_t digest_events = 0;
  std::string expected_digest;  ///< "" when the entry pins none
  bool digest_ok = true;        ///< digest == expected (or none pinned)
  RunResult run;
  bool has_steady = false;
  SteadySummary steady;  ///< valid iff has_steady
  /// (expectation text, pass) per `expect` line, in pack order.
  std::vector<std::pair<std::string, bool>> expect_results;

  bool ok() const;
  /// Value of a pack metric name for this outcome.
  double metric(const std::string& name) const;
  /// One JSONL manifest line ("lowsense-pack/v1"): scenario identity,
  /// digest, and engine/shard-invariant metrics only — regenerating a
  /// manifest under any engine × shards combination must be
  /// byte-identical, which is exactly what pack-verify diffs.
  std::string manifest_line(const std::string& pack_name) const;
};

/// Runs one entry at its pinned seed through `runner` (which applies any
/// engine/shard overrides and actually executes), with the TraceDigest
/// and, when windowed, a SteadyStateObserver attached.
using PackRunner =
    std::function<RunResult(Scenario scenario, std::uint64_t seed, const std::vector<Observer*>&)>;
PackEntryOutcome run_pack_entry(const PackEntry& entry, const PackRunner& runner);

/// Runs every entry through `runner` (run_pack_entry) and reports to
/// `sinks`: one ScenarioResult per entry (reps = 1, the pack metrics,
/// tagged with `engine`, the engine the runner applies) and one check per
/// pinned digest and per `expect`. Framing the document (begin, section,
/// end) is the caller's. Returns the outcomes in pack order, for the
/// manifest and the exit status.
std::vector<PackEntryOutcome> run_scenario_pack(const ScenarioPack& pack, const PackRunner& runner,
                                               EngineKind engine,
                                               const std::vector<ResultSink*>& sinks);

/// Renders the full manifest (one line per outcome, trailing newline).
std::string render_pack_manifest(const ScenarioPack& pack,
                                 const std::vector<PackEntryOutcome>& outcomes);

}  // namespace lowsense
