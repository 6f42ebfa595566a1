// BenchSuite: the shared main() machinery behind every T* bench and the
// examples. A bench declares WHAT it measures — id, paper anchor, claim,
// bench-specific parameters, and a body that builds scenarios and shape
// checks — and the suite runner provides everything else uniformly:
//
//   * the uniform flag set
//       --reps= --seed= --threads= --shards= --engine=event|slot
//       --jammer=SPEC --jam-seed= --arrivals=SPEC --json=PATH
//       --list --help
//     plus the declared bench params, with unknown/misspelled flags and
//     malformed numbers rejected (usage + exit 2) instead of silently
//     ignored;
//   * replicate_parallel execution on one persistent thread pool, with
//     results always in seed order so serial and parallel runs are
//     byte-identical;
//   * ResultSink fan-out: the classic console report plus the stable
//     "lowsense-bench/v1" BENCH_T*.json schema when --json= is given
//     (scenario params, per-metric summaries, slots/s, PASS/FAIL
//     verdicts) — the input of scripts/bench_diff.py and the CI
//     bench-regression job.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "harness/report.hpp"

namespace lowsense {

/// One bench-specific parameter (beyond the uniform flag set).
struct BenchParam {
  enum class Kind { kU64, kF64, kStr };

  std::string key;
  Kind kind = Kind::kU64;
  std::string fallback;  ///< default, rendered as text
  std::string help;

  static BenchParam u64(std::string key, std::uint64_t dflt, std::string help);
  static BenchParam f64(std::string key, double dflt, std::string help);
  static BenchParam str(std::string key, std::string dflt, std::string help);
};

class BenchContext;

/// A bench's declaration: everything run_bench_suite needs to provide the
/// uniform CLI, and the body that produces tables, scenarios, and checks.
struct BenchDef {
  std::string id;            ///< "T4"
  std::string paper_anchor;  ///< "Cor 1.5 + Thm 1.7"
  std::string claim;
  std::vector<BenchParam> params;
  int default_reps = 5;
  std::uint64_t default_seed = 1;
  std::function<void(BenchContext&)> body;
};

/// The uniform flags, resolved.
struct SuiteOptions {
  int reps = 5;
  std::uint64_t seed = 1;
  unsigned threads = 1;  ///< resolved worker count (--threads=0 -> all cores)
  unsigned shards = 1;   ///< intra-run shard count (--shards=0 -> all cores)
  EngineKind engine = EngineKind::kEvent;
  std::string jammer_spec;    ///< empty = keep the bench's own jammers
  std::uint64_t jam_seed = 0;
  std::string arrivals_spec;  ///< empty = keep the bench's own arrivals
  std::string json_path;
};

/// Resolves the uniform flags against `def`'s defaults, validating engine
/// names, jammer/arrival specs and every number (uniform or bench param)
/// eagerly. Returns false and sets *error on an unknown flag or a
/// malformed value. Exposed separately so the flag round-trip tests
/// can exercise parsing without running a bench.
bool parse_suite_options(const BenchDef& def, const Args& args, SuiteOptions* out,
                         std::string* error);

/// The uniform flag keys (what every bench accepts beyond its own params).
const std::vector<std::string>& suite_flag_keys();

/// Handed to the bench body: resolved params, execution helpers that
/// apply the CLI overrides and fan out over the shared pool, and the
/// reporting fan-out to every attached sink.
class BenchContext {
 public:
  BenchContext(const BenchDef& def, const Args& args, const SuiteOptions& opts,
               std::vector<ResultSink*> sinks, ParallelExecutor* pool);

  // -------- declared bench params (key must have been declared)
  std::uint64_t u64(const std::string& key) const;
  double f64(const std::string& key) const;
  const std::string& str(const std::string& key) const;

  // -------- resolved uniform flags
  int reps() const noexcept { return opts_.reps; }
  std::uint64_t seed() const noexcept { return opts_.seed; }
  unsigned threads() const noexcept { return opts_.threads; }
  unsigned shards() const noexcept { return opts_.shards; }
  EngineKind engine() const noexcept { return opts_.engine; }
  std::uint64_t jam_seed() const noexcept { return opts_.jam_seed; }

  /// The shared worker pool (nullptr when --threads=1). Prefer map().
  ParallelExecutor* pool() noexcept { return pool_; }

  // -------- execution
  /// Applies the CLI overrides (--engine unless the scenario is
  /// engine_locked; --jammer/--arrivals when given), runs the replicates
  /// over the pool, and auto-records a ScenarioResult (standard metric
  /// summaries + slots/s) under scenario.name with the given sweep
  /// coordinates. reps/seed overrides of 0 mean "use the uniform flags".
  Replicates run(Scenario scenario, const KvList& cell_params = {}, int reps_override = 0,
                 std::uint64_t seed_override = 0);

  /// One run with observers, CLI overrides applied. NOT auto-recorded and
  /// safe to call from map() workers; record() any aggregate from the
  /// body thread afterwards.
  RunResult run_one(Scenario scenario, std::uint64_t seed,
                    const std::vector<Observer*>& observers = {});

  /// Deterministic ordered fan-out of fn(0..count-1) over the pool.
  template <typename Fn>
  auto map(std::size_t count, Fn&& fn) {
    return parallel_map(pool_, count, std::forward<Fn>(fn));
  }

  /// The standard metric summaries run() records for a Replicates set.
  static std::vector<MetricSummary> standard_metrics(const Replicates& r);

  // -------- reporting (body thread only)
  void section(const std::string& title);
  void note(const std::string& text);
  void table(const Table& t, const std::string& note = "");
  void check(const std::string& what, bool pass, const std::string& detail = "");
  void record(ScenarioResult result);

  /// True while every check so far passed.
  bool all_checks_passed() const noexcept { return all_pass_; }

 private:
  Scenario apply_overrides(Scenario s) const;

  const SuiteOptions opts_;
  std::vector<ResultSink*> sinks_;
  ParallelExecutor* pool_;
  std::map<std::string, std::uint64_t> u64_;
  std::map<std::string, double> f64_;
  std::map<std::string, std::string> str_;
  std::function<std::unique_ptr<Jammer>(std::uint64_t)> jammer_override_;
  std::function<std::unique_ptr<ArrivalProcess>(std::uint64_t)> arrivals_override_;
  int auto_named_ = 0;
  bool all_pass_ = true;
};

/// Builds the BenchMeta (header + JSON identity block) for a resolved
/// invocation. Exposed for the schema golden test.
BenchMeta make_bench_meta(const BenchDef& def, const Args& args, const SuiteOptions& opts);

/// The shared main(): parse + validate flags, honor --list/--help, set up
/// sinks and the pool, run the body, close the sinks. Returns 0 on a
/// completed run (a bench body's shape-check verdicts are reported, not
/// exit codes, so smoke configs with tiny sweeps stay usable), 1 on a
/// crashed body or an unwritable --json= path, 2 on a CLI error.
int run_bench_suite(const BenchDef& def, int argc, char** argv);

}  // namespace lowsense
