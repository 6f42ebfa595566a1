#include "harness/suite.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

namespace lowsense {

namespace {

std::string render_f64(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

const char* kind_name(BenchParam::Kind kind) {
  switch (kind) {
    case BenchParam::Kind::kU64: return "u64";
    case BenchParam::Kind::kF64: return "f64";
    case BenchParam::Kind::kStr: return "str";
  }
  return "?";
}

void print_usage(const BenchDef& def, std::FILE* to) {
  std::fprintf(to, "%s · %s — %s\n\n", def.id.c_str(), def.paper_anchor.c_str(),
               def.claim.c_str());
  std::fprintf(to,
               "usage: bench [--reps=N] [--seed=S] [--threads=K] [--shards=M]\n"
               "             [--engine=event|slot] [--jammer=SPEC] [--jam-seed=J]\n"
               "             [--arrivals=SPEC] [--json=PATH] [--list] [--help]\n");
  std::fprintf(to, "defaults: --reps=%d --seed=%llu --threads=1 --engine=event\n", def.default_reps,
               static_cast<unsigned long long>(def.default_seed));
  if (!def.params.empty()) {
    std::fprintf(to, "bench params:\n");
    for (const auto& p : def.params) {
      std::fprintf(to, "  --%s=%s  (%s) %s\n", p.key.c_str(), p.fallback.c_str(),
                   kind_name(p.kind), p.help.c_str());
    }
  }
  std::fprintf(to,
               "--threads=0 uses every core; serial and parallel output are byte-identical.\n"
               "--shards=M shards every RUN's packet population over M threads (0 = all\n"
               "  cores; independent of --threads=, which stays replicate-level). Sharding\n"
               "  changes wall time, never results: --shards=M output == --shards=1 output.\n"
               "  Both take at most 4096.\n"
               "--jammer/--arrivals override every scenario's adversary/arrival process:\n"
               "  jammers : none | random:rate[,budget] | burst:period,len | victim:id,budget |\n"
               "            blanket:budget | band:lo,hi,budget |\n"
               "            randband:lo,hi,rate[,budget[,jitter]]\n"
               "  arrivals: batch:N | poisson:rate,N | aqt:lambda,S,pattern,N\n"
               "--jam-seed=J pins randomized jammers to one fixed adversary across replicates.\n"
               "--json=PATH writes the structured lowsense-bench/v1 result document.\n"
               "Scenario packs run through lowsense_cli --pack=.\n");
}

void print_list(const BenchDef& def) {
  std::printf("bench: %s\n", def.id.c_str());
  std::printf("anchor: %s\n", def.paper_anchor.c_str());
  std::printf("claim: %s\n", def.claim.c_str());
  std::printf("defaults: reps=%d seed=%llu\n", def.default_reps,
              static_cast<unsigned long long>(def.default_seed));
  for (const auto& p : def.params) {
    std::printf("param: %s kind=%s default=%s help=%s\n", p.key.c_str(), kind_name(p.kind),
                p.fallback.c_str(), p.help.c_str());
  }
  std::string flags;
  for (const auto& k : suite_flag_keys()) flags += (flags.empty() ? "" : " ") + k;
  std::printf("flags: %s\n", flags.c_str());
}

}  // namespace

BenchParam BenchParam::u64(std::string key, std::uint64_t dflt, std::string help) {
  return {std::move(key), Kind::kU64, std::to_string(dflt), std::move(help)};
}

BenchParam BenchParam::f64(std::string key, double dflt, std::string help) {
  return {std::move(key), Kind::kF64, render_f64(dflt), std::move(help)};
}

BenchParam BenchParam::str(std::string key, std::string dflt, std::string help) {
  return {std::move(key), Kind::kStr, std::move(dflt), std::move(help)};
}

const std::vector<std::string>& suite_flag_keys() {
  static const std::vector<std::string> kKeys = {"reps",     "seed",     "threads", "shards",
                                                 "engine",   "jammer",   "jam-seed", "arrivals",
                                                 "json",     "list",     "help"};
  return kKeys;
}

bool parse_suite_options(const BenchDef& def, const Args& args, SuiteOptions* out,
                         std::string* error) {
  const std::uint64_t reps = args.u64("reps", static_cast<std::uint64_t>(def.default_reps));
  out->seed = args.u64("seed", def.default_seed);
  out->threads = args.workers("threads");
  out->shards = args.workers("shards");
  out->jam_seed = args.u64("jam-seed", 0);
  // Reading the bench params here puts a malformed one on the same
  // usage + exit 2 path as an unknown flag.
  std::vector<std::string> known = suite_flag_keys();
  for (const auto& p : def.params) {
    known.push_back(p.key);
    if (p.kind == BenchParam::Kind::kU64) (void)args.u64(p.key, 0);
    if (p.kind == BenchParam::Kind::kF64) (void)args.f64(p.key, 0.0);
  }
  const auto unknown = args.unknown_keys(known);
  if (!unknown.empty()) {
    *error = "unknown flag(s) or bad value(s):";
    for (const auto& k : unknown) *error += " " + k;
    return false;
  }
  if (reps == 0 || reps > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    *error = "--reps= must be in [1, 2147483647]";
    return false;
  }
  out->reps = static_cast<int>(reps);
  try {
    out->engine = parse_engine(args.str("engine", "event"));
  } catch (const std::invalid_argument& e) {
    *error = e.what();
    return false;
  }
  out->jammer_spec = args.str("jammer", "");
  if (!out->jammer_spec.empty() && !parse_jammer_spec(out->jammer_spec, out->jam_seed)) {
    *error = "bad --jammer= spec '" + out->jammer_spec + "'";
    return false;
  }
  out->arrivals_spec = args.str("arrivals", "");
  if (!out->arrivals_spec.empty() && !parse_arrivals_spec(out->arrivals_spec)) {
    *error = "bad --arrivals= spec '" + out->arrivals_spec + "'";
    return false;
  }
  out->json_path = args.str("json", "");
  return true;
}

BenchContext::BenchContext(const BenchDef& def, const Args& args, const SuiteOptions& opts,
                           std::vector<ResultSink*> sinks, ParallelExecutor* pool)
    : opts_(opts), sinks_(std::move(sinks)), pool_(pool) {
  for (const auto& p : def.params) {
    switch (p.kind) {
      case BenchParam::Kind::kU64:
        u64_[p.key] = args.u64(p.key, std::strtoull(p.fallback.c_str(), nullptr, 10));
        break;
      case BenchParam::Kind::kF64:
        f64_[p.key] = args.f64(p.key, std::strtod(p.fallback.c_str(), nullptr));
        break;
      case BenchParam::Kind::kStr:
        str_[p.key] = args.str(p.key, p.fallback);
        break;
    }
  }
  if (!opts_.jammer_spec.empty()) {
    jammer_override_ = parse_jammer_spec(opts_.jammer_spec, opts_.jam_seed);
  }
  if (!opts_.arrivals_spec.empty()) {
    arrivals_override_ = parse_arrivals_spec(opts_.arrivals_spec);
  }
}

std::uint64_t BenchContext::u64(const std::string& key) const {
  const auto it = u64_.find(key);
  if (it == u64_.end()) throw std::logic_error("undeclared u64 bench param '" + key + "'");
  return it->second;
}

double BenchContext::f64(const std::string& key) const {
  const auto it = f64_.find(key);
  if (it == f64_.end()) throw std::logic_error("undeclared f64 bench param '" + key + "'");
  return it->second;
}

const std::string& BenchContext::str(const std::string& key) const {
  const auto it = str_.find(key);
  if (it == str_.end()) throw std::logic_error("undeclared str bench param '" + key + "'");
  return it->second;
}

Scenario BenchContext::apply_overrides(Scenario s) const {
  if (!s.engine_locked) s.engine = opts_.engine;
  if (!s.shards_locked) s.config.shards = opts_.shards;
  if (jammer_override_) s.jammer = jammer_override_;
  if (arrivals_override_) s.arrivals = arrivals_override_;
  return s;
}

std::vector<MetricSummary> BenchContext::standard_metrics(const Replicates& r) {
  std::vector<MetricSummary> out;
  out.push_back({"throughput", r.throughput()});
  out.push_back({"implicit_throughput", r.implicit_throughput()});
  out.push_back({"mean_accesses", r.mean_accesses()});
  out.push_back({"max_accesses", r.max_accesses()});
  out.push_back({"peak_backlog", r.peak_backlog()});
  out.push_back({"mean_latency", r.summarize([](const RunResult& run) {
                   return run.latency_stats.mean();
                 })});
  out.push_back({"drained", r.summarize([](const RunResult& run) {
                   return run.drained ? 1.0 : 0.0;
                 })});
  return out;
}

Replicates BenchContext::run(Scenario scenario, const KvList& cell_params, int reps_override,
                             std::uint64_t seed_override) {
  scenario = apply_overrides(std::move(scenario));
  const int r = reps_override > 0 ? reps_override : opts_.reps;
  const std::uint64_t sd = seed_override != 0 ? seed_override : opts_.seed;

  const auto t0 = std::chrono::steady_clock::now();
  Replicates out = replicate_parallel(scenario, r, pool_, sd);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  ScenarioResult res;
  res.name = !scenario.name.empty() ? scenario.name : "scenario-" + std::to_string(++auto_named_);
  res.params = cell_params;
  res.engine = engine_name(scenario.engine);
  res.reps = r;
  res.metrics = standard_metrics(out);
  for (const auto& run : out.runs) res.total_active_slots += run.counters.active_slots;
  res.elapsed_sec = elapsed;
  record(std::move(res));
  return out;
}

RunResult BenchContext::run_one(Scenario scenario, std::uint64_t seed,
                                const std::vector<Observer*>& observers) {
  return run_scenario(apply_overrides(std::move(scenario)), seed, observers);
}

void BenchContext::section(const std::string& title) {
  for (auto* s : sinks_) s->section(title);
}

void BenchContext::note(const std::string& text) {
  for (auto* s : sinks_) s->note(text);
}

void BenchContext::table(const Table& t, const std::string& note) {
  for (auto* s : sinks_) s->table(t, note);
}

void BenchContext::check(const std::string& what, bool pass, const std::string& detail) {
  const CheckResult c{what, pass, detail};
  for (auto* s : sinks_) s->check(c);
}

void BenchContext::record(ScenarioResult result) {
  for (auto* s : sinks_) s->scenario(result);
}

BenchMeta make_bench_meta(const BenchDef& def, const Args& args, const SuiteOptions& opts) {
  BenchMeta meta;
  meta.id = def.id;
  meta.paper_anchor = def.paper_anchor;
  meta.claim = def.claim;
  meta.options = {{"reps", std::to_string(opts.reps)},
                  {"seed", std::to_string(opts.seed)},
                  {"threads", std::to_string(opts.threads)},
                  {"shards", std::to_string(opts.shards)},
                  {"engine", engine_name(opts.engine)},
                  {"jammer", opts.jammer_spec},
                  {"jam-seed", std::to_string(opts.jam_seed)},
                  {"arrivals", opts.arrivals_spec},
                  {"json", opts.json_path}};
  for (const auto& p : def.params) {
    std::string v;
    switch (p.kind) {
      case BenchParam::Kind::kU64:
        v = std::to_string(args.u64(p.key, std::strtoull(p.fallback.c_str(), nullptr, 10)));
        break;
      case BenchParam::Kind::kF64:
        v = render_f64(args.f64(p.key, std::strtod(p.fallback.c_str(), nullptr)));
        break;
      case BenchParam::Kind::kStr:
        v = args.str(p.key, p.fallback);
        break;
    }
    meta.params.emplace_back(p.key, v);
  }
  return meta;
}

int run_bench_suite(const BenchDef& def, int argc, char** argv) {
  const Args args(argc, argv);
  SuiteOptions opts;
  std::string error;
  if (!parse_suite_options(def, args, &opts, &error)) {
    std::fprintf(stderr, "%s\n\n", error.c_str());
    print_usage(def, stderr);
    return 2;
  }
  if (args.flag("help")) {
    print_usage(def, stdout);
    return 0;
  }
  if (args.flag("list")) {
    print_list(def);
    return 0;
  }

  TextSink text;
  std::optional<JsonSink> json;
  std::vector<ResultSink*> sinks{&text};
  if (!opts.json_path.empty()) {
    json.emplace(opts.json_path);
    sinks.push_back(&*json);
  }

  std::optional<ParallelExecutor> pool;
  if (opts.threads > 1) pool.emplace(opts.threads);

  BenchContext ctx(def, args, opts, sinks, pool ? &*pool : nullptr);
  const BenchMeta meta = make_bench_meta(def, args, opts);

  const auto t0 = std::chrono::steady_clock::now();
  for (auto* s : sinks) s->begin(meta);
  try {
    def.body(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench %s failed: %s\n", def.id.c_str(), e.what());
    return 1;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  for (auto* s : sinks) s->end(elapsed);

  return json && !json->write_ok() ? 1 : 0;
}

}  // namespace lowsense
