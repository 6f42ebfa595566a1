// Shared core of the steady accesses/s benchmark: workload construction
// from a seed, one timed repetition, the correctness gate, and the result
// printer. Both drivers (bench_main.cpp, trace_main.cpp) build on it.
//
// Every workload is a set of scenario-pack entries held as pack TEXT and
// re-parsed on every repetition, so set-up time covers the same path a
// user's `lowsense_cli --pack=` run takes: parse, scenario and engine
// construction, first injection, first resolved slot.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adversary/arrivals.hpp"
#include "adversary/jammer.hpp"
#include "harness/scenario.hpp"
#include "protocols/protocol.hpp"
#include "sim/observer.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);
double process_cpu_s();  ///< CPU time of every thread of this process
double peak_rss_mib();   ///< VmHWM: peak resident memory since this program's exec
double median(std::vector<double> xs);

/// The flags the benchmark contract passes, plus one test-only override.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  /// Test hook: replaces every entry's pinned digest, so the gate's
  /// failure path can be exercised (perfbench/test_bench.py).
  std::string pin_digest;
};

/// Parses --workload/--seed/--seconds/--trace/--pin-digest. False + *error
/// on anything unknown or malformed.
bool parse_options(int argc, char** argv, Options* out, std::string* error);

/// One scenario pack as text, parsed afresh on every repetition.
struct PackSource {
  std::string origin;  ///< file path or generated name (error positions)
  std::string text;
  /// Command that replays one entry alone, "{entry}" substituted; empty
  /// for a generated one-entry workload, which run.py itself replays.
  std::string repro;
};

struct Workload {
  std::string name;
  std::vector<PackSource> sources;
  /// Run order over the entries of all sources, concatenated in source
  /// order (pack-replay permutes it by seed; a one-entry workload is {0}).
  std::vector<std::size_t> order;
};

/// Timed repetitions run serially. Every process also runs the workload
/// at kCheckShards shards, which must reproduce the serial digests: the
/// sharded path is gated (and timed per layer) without being an
/// end-to-end workload, because its wall time is too noisy on a shared
/// 4-vCPU host to bound (README.md).
inline constexpr unsigned kTimedShards = 1;
inline constexpr unsigned kCheckShards = 2;

/// Builds workload `name` for `seed`; false + *error for an unknown name
/// or unreadable pack files.
bool make_workload(const std::string& name, std::uint64_t seed, Workload* out,
                   std::string* error);

/// Hooks the traced driver uses to wrap each layer's public interface.
/// Wrappers must forward every call unchanged: the traced digest is
/// checked against the untraced one.
class Instrument {
 public:
  virtual ~Instrument() = default;
  virtual std::unique_ptr<lowsense::ProtocolFactory> wrap(
      std::unique_ptr<lowsense::ProtocolFactory> factory) = 0;
  virtual std::unique_ptr<lowsense::ArrivalProcess> wrap(
      std::unique_ptr<lowsense::ArrivalProcess> arrivals) = 0;
  virtual std::unique_ptr<lowsense::Jammer> wrap(std::unique_ptr<lowsense::Jammer> jammer) = 0;
  /// Returns the observers to attach in place of `observers`; the
  /// instrument owns any wrapper until the next call.
  virtual std::vector<lowsense::Observer*> wrap(
      const std::vector<lowsense::Observer*>& observers) = 0;
};

/// Timings and outcomes of one repetition (one pass over the workload's
/// entries in run order).
struct Rep {
  double wall_s = 0.0;   ///< parse through the last entry's run end
  double cpu_s = 0.0;    ///< process CPU time over the same span
  /// parse_s plus, per entry, the time from its scenario construction to
  /// its first resolved slot (summed, so entry order does not matter).
  double setup_s = 0.0;
  double parse_s = 0.0;  ///< parsing every pack source
  double build_s = 0.0;  ///< Σ scenario + engine construction, up to run()
  double run_s = 0.0;    ///< Σ EventEngine::run
  double accesses = 0.0; ///< Σ channel accesses (listens + sends)
  std::vector<lowsense::PackEntryOutcome> outcomes;  ///< in run order
  std::vector<std::string> repro;                    ///< per outcome
};

/// Runs one repetition at `shards` shards; `instrument` may be null.
/// Throws std::runtime_error when a pack source fails to parse.
Rep run_rep(const Workload& workload, unsigned shards, Instrument* instrument,
            const std::string& pin_digest);

/// Correctness gate over every repetition of a process: each entry run
/// must pass its pack digest and `expect` lines, and reproduce the
/// reference digest (the first checked repetition's).
class Gate {
 public:
  explicit Gate(const Options& options) : options_(options) {}
  /// Checks `rep`; prints one repro line per failed entry run to stderr.
  void check(const Rep& rep, const char* what);
  /// Counts one failed check and prints its repro line; `entry_repro`
  /// replays the failing entry alone, when there is one.
  void fail(const std::string& why, const std::string& entry_repro);
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  bool ok() const noexcept { return failed_ == 0; }

 private:
  Options options_;
  std::vector<std::string> reference_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One JSON line with what makes numbers comparable: host, compiler,
/// build type, coin-kernel tier, shard count.
void print_context(const Workload& workload, const Options& options);

/// The result line the contract requires (last line of stdout).
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics);

}  // namespace perfbench
