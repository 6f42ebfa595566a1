#include "harness/experiment.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "core/executor.hpp"

namespace lowsense {

EngineKind parse_engine(const std::string& name) {
  if (name == "event") return EngineKind::kEvent;
  if (name == "slot") return EngineKind::kSlot;
  throw std::invalid_argument("unknown engine '" + name + "' (expected event|slot)");
}

const char* engine_name(EngineKind kind) noexcept {
  return kind == EngineKind::kSlot ? "slot" : "event";
}

bool parse_u64_full(const std::string& text, std::uint64_t* out) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

bool parse_f64_full(const std::string& text, double* out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

namespace {

/// A "kind:arg,arg,..." spec: its kind, its comma-separated arguments, and
/// strict number reads of them — a read that fails clears `ok`.
struct SpecArgs {
  std::string kind;
  std::vector<std::string> args;
  bool ok = true;

  explicit SpecArgs(const std::string& spec) : kind(spec.substr(0, spec.find(':'))) {
    if (kind.size() == spec.size()) return;
    // Empty tokens are kept ("random:0.3," has an empty budget), so they
    // fail the number reads instead of vanishing.
    for (std::size_t b = kind.size() + 1;;) {
      const std::size_t e = spec.find(',', b);
      args.push_back(spec.substr(b, e - b));
      if (e == std::string::npos) break;
      b = e + 1;
    }
  }
  std::uint64_t u64(std::size_t i) {
    std::uint64_t v = 0;
    ok = parse_u64_full(args[i], &v) && ok;
    return v;
  }
  double f64(std::size_t i) {
    double v = 0.0;
    ok = parse_f64_full(args[i], &v) && ok;
    return v;
  }
};

/// `factory`, or nullptr when building one instance throws: constructors
/// reject bad parameter values (rate outside [0,1], inverted band, ...),
/// and callers expect a nullptr for ANY bad spec rather than a factory
/// that throws later.
template <typename Factory>
Factory validated(Factory factory) {
  try {
    if (factory) factory(1);
  } catch (const std::invalid_argument&) {
    return nullptr;
  }
  return factory;
}

}  // namespace

std::function<std::unique_ptr<Jammer>(std::uint64_t)> parse_jammer_spec(const std::string& spec,
                                                                        std::uint64_t jam_seed) {
  if (spec.empty() || spec == "none") {
    return [](std::uint64_t) { return std::make_unique<NoJammer>(); };
  }
  SpecArgs a(spec);
  const std::size_t n = a.args.size();
  std::function<std::unique_ptr<Jammer>(std::uint64_t)> factory;
  if (a.kind == "random" && n >= 1 && n <= 2) {
    const double rate = a.f64(0);
    const std::uint64_t budget = n > 1 ? a.u64(1) : 0;
    factory = [rate, budget, jam_seed](std::uint64_t seed) {
      return std::make_unique<RandomJammer>(rate, budget, jammer_rng(jam_seed, seed, 0xb1));
    };
  } else if (a.kind == "burst" && n == 2) {
    const Slot period = a.u64(0);
    const Slot len = a.u64(1);
    factory = [period, len](std::uint64_t) { return std::make_unique<BurstJammer>(period, len); };
  } else if (a.kind == "victim" && n == 2) {
    const PacketId id = a.u64(0);
    const std::uint64_t budget = a.u64(1);
    factory = [id, budget](std::uint64_t) {
      return std::make_unique<ReactiveVictimJammer>(id, budget);
    };
  } else if (a.kind == "blanket" && n == 1) {
    const std::uint64_t budget = a.u64(0);
    factory = [budget](std::uint64_t) { return std::make_unique<ReactiveBlanketJammer>(budget); };
  } else if (a.kind == "band" && n == 3) {
    const double lo = a.f64(0);
    const double hi = a.f64(1);
    const std::uint64_t budget = a.u64(2);
    factory = [lo, hi, budget](std::uint64_t) {
      return std::make_unique<ContentionBandJammer>(lo, hi, budget);
    };
  } else if (a.kind == "randband" && n >= 3 && n <= 5) {
    const double lo = a.f64(0);
    const double hi = a.f64(1);
    const double rate = a.f64(2);
    const std::uint64_t budget = n > 3 ? a.u64(3) : 0;
    const double jitter = n > 4 ? a.f64(4) : 0.0;
    factory = [lo, hi, rate, budget, jitter, jam_seed](std::uint64_t seed) {
      return std::make_unique<RandomContentionJammer>(lo, hi, rate, budget,
                                                      jammer_rng(jam_seed, seed, 0xb2), jitter);
    };
  }
  return a.ok ? validated(std::move(factory)) : nullptr;
}

std::function<std::unique_ptr<ArrivalProcess>(std::uint64_t)> parse_arrivals_spec(
    const std::string& spec) {
  SpecArgs a(spec);
  const std::size_t n = a.args.size();
  std::function<std::unique_ptr<ArrivalProcess>(std::uint64_t)> factory;
  if (a.kind == "batch" && n == 1) {
    const std::uint64_t count = a.u64(0);
    factory = [count](std::uint64_t) { return std::make_unique<BatchArrivals>(count); };
  } else if (a.kind == "poisson" && n == 2) {
    const double rate = a.f64(0);
    const std::uint64_t count = a.u64(1);
    factory = [rate, count](std::uint64_t seed) {
      return std::make_unique<PoissonArrivals>(rate, count, Rng::stream(seed, 0xa1));
    };
  } else if (a.kind == "aqt" && n == 4) {
    const double lambda = a.f64(0);
    const Slot s = a.u64(1);
    AqtPattern pattern = AqtPattern::kFront;
    if (a.args[2] == "spread") pattern = AqtPattern::kSpread;
    else if (a.args[2] == "random") pattern = AqtPattern::kRandom;
    else if (a.args[2] == "pulse") pattern = AqtPattern::kPulse;
    else if (a.args[2] != "front") return nullptr;
    const std::uint64_t count = a.u64(3);
    factory = [=](std::uint64_t seed) {
      return std::make_unique<AqtArrivals>(lambda, s, pattern, count, Rng::stream(seed, 0xa2));
    };
  }
  return a.ok ? validated(std::move(factory)) : nullptr;
}

RunResult run_scenario(const Scenario& scenario, std::uint64_t seed,
                       const std::vector<Observer*>& observers) {
  if (!scenario.protocol || !scenario.arrivals) {
    throw std::invalid_argument("Scenario: protocol and arrivals are required");
  }
  auto factory = scenario.protocol();
  auto arrivals = scenario.arrivals(seed);
  std::unique_ptr<Jammer> jammer =
      scenario.jammer ? scenario.jammer(seed) : std::make_unique<NoJammer>();

  RunConfig config = scenario.config;
  config.seed = seed;

  if (scenario.engine == EngineKind::kSlot) {
    SlotEngine engine(*factory, *arrivals, *jammer, config);
    for (auto* obs : observers) engine.add_observer(obs);
    return engine.run();
  }
  EventEngine engine(*factory, *arrivals, *jammer, config);
  for (auto* obs : observers) engine.add_observer(obs);
  return engine.run();
}

Summary Replicates::summarize(const std::function<double(const RunResult&)>& metric) const {
  std::vector<double> xs;
  xs.reserve(runs.size());
  for (const auto& r : runs) xs.push_back(metric(r));
  return Summary::of(std::move(xs));
}

Summary Replicates::throughput() const {
  return summarize([](const RunResult& r) { return r.throughput(); });
}

Summary Replicates::implicit_throughput() const {
  return summarize([](const RunResult& r) { return r.implicit_throughput(); });
}

Summary Replicates::mean_accesses() const {
  return summarize([](const RunResult& r) { return r.mean_accesses(); });
}

Summary Replicates::max_accesses() const {
  return summarize([](const RunResult& r) { return static_cast<double>(r.max_accesses); });
}

Summary Replicates::peak_backlog() const {
  return summarize([](const RunResult& r) { return static_cast<double>(r.peak_backlog); });
}

StreamingStats Replicates::merged_access_stats() const {
  StreamingStats s;
  for (const auto& r : runs) s.merge(r.access_stats);
  return s;
}

StreamingStats Replicates::merged_send_stats() const {
  StreamingStats s;
  for (const auto& r : runs) s.merge(r.send_stats);
  return s;
}

StreamingStats Replicates::merged_latency_stats() const {
  StreamingStats s;
  for (const auto& r : runs) s.merge(r.latency_stats);
  return s;
}

Replicates replicate(const Scenario& scenario, int reps, std::uint64_t base_seed) {
  Replicates out;
  out.runs.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    out.runs.push_back(run_scenario(scenario, base_seed + static_cast<std::uint64_t>(i)));
  }
  return out;
}

Args::Args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      // Not a --key[=value] flag. No entry point here takes positional
      // arguments, so a `-threads=8` or `n=99` is a typo: keep the raw
      // token so unknown_keys() can reject it instead of the accessors
      // silently never seeing it.
      malformed_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      kv_.emplace_back(arg, "");
    } else {
      kv_.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
    }
  }
}

std::uint64_t Args::u64(const std::string& key, std::uint64_t fallback) const {
  queried_.push_back(key);
  for (const auto& [k, v] : kv_) {
    if (k != key || v.empty()) continue;
    std::uint64_t x = 0;
    if (parse_u64_full(v, &x)) return x;
    invalid_.push_back("--" + k + "=" + v);
  }
  return fallback;
}

double Args::f64(const std::string& key, double fallback) const {
  queried_.push_back(key);
  for (const auto& [k, v] : kv_) {
    if (k != key || v.empty()) continue;
    double x = 0.0;
    if (parse_f64_full(v, &x)) return x;
    invalid_.push_back("--" + k + "=" + v);
  }
  return fallback;
}

unsigned Args::workers(const std::string& key) const {
  const std::uint64_t n = u64(key, 1);
  if (n <= kMaxWorkers) return ParallelExecutor::resolve_threads(static_cast<unsigned>(n));
  invalid_.push_back("--" + key + "=" + std::to_string(n));
  return 1;
}

std::string Args::str(const std::string& key, const std::string& fallback) const {
  queried_.push_back(key);
  for (const auto& [k, v] : kv_) {
    if (k == key) return v;
  }
  return fallback;
}

bool Args::flag(const std::string& key) const {
  queried_.push_back(key);
  for (const auto& [k, v] : kv_) {
    if (k == key) return v.empty() || v == "1" || v == "true";
  }
  return false;
}

std::vector<std::string> Args::keys() const {
  std::vector<std::string> out;
  out.reserve(kv_.size());
  for (const auto& [k, v] : kv_) out.push_back(k);
  return out;
}

std::vector<std::string> Args::unknown_keys(const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  auto reported = [&out](const std::string& tok) {
    for (const auto& g : out) {
      if (g == tok) return true;
    }
    return false;
  };
  for (const auto& [k, v] : kv_) {
    bool ok = false;
    for (const auto& g : known) ok |= g == k;
    for (const auto& g : queried_) ok |= g == k;
    const std::string tok = "--" + k;
    if (!ok && !reported(tok)) out.push_back(tok);
  }
  // Malformed tokens (wrong dash count, bare key=value) and values an
  // accessor could not use are never acceptable, whatever the key list.
  for (const auto& raw : malformed_) {
    if (!reported(raw)) out.push_back(raw);
  }
  for (const auto& raw : invalid_) {
    if (!reported(raw)) out.push_back(raw);
  }
  return out;
}

}  // namespace lowsense
