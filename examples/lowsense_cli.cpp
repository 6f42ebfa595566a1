// General-purpose scenario runner: compose any protocol × arrival process
// × jammer from the command line and get a metrics table (or CSV, or the
// structured lowsense-bench/v1 JSON document). This is the "kick the
// tires" tool for the whole public API.
//
//   ./lowsense_cli --protocol=low-sensing --arrivals=batch:10000
//                  --jammer=random:0.2 --reps=5 --seed=1 --threads=0
//   ./lowsense_cli --protocol=beb --arrivals=poisson:0.05,5000 --csv
//   ./lowsense_cli --arrivals=aqt:0.2,1024,front,20000 --jammer=burst:1000,100
//                  --json=cli.json
//
// Arrival specs:  batch:N | poisson:rate,N | aqt:lambda,S,pattern,N
//                 (pattern: spread|front|random|pulse)
// Jammer specs:   none | random:rate[,budget] | burst:period,len |
//                 victim:id,budget | blanket:budget | band:lo,hi,budget |
//                 randband:lo,hi,rate[,budget[,jitter]]
// --jam-seed=J pins randomized jammers to one fixed adversary across
// replicates (their coins are slot-keyed, so any run replays exactly).
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/table.hpp"
#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "harness/report.hpp"
#include "harness/scenario.hpp"
#include "metrics/energy.hpp"
#include "protocols/registry.hpp"

using namespace lowsense;

namespace {

void usage() {
  std::printf("usage: lowsense_cli [--protocol=NAME] [--arrivals=SPEC] [--jammer=SPEC]\n"
              "                    [--reps=K] [--seed=S] [--jam-seed=J] [--threads=T]\n"
              "                    [--shards=M] [--max-active-slots=B] [--engine=event|slot]\n"
              "                    [--csv] [--json=PATH]\n"
              "       lowsense_cli --pack=FILE[:name] [--manifest=PATH] [--json=PATH]\n"
              "                    [--engine=event|slot] [--shards=M] [--csv]\n\n"
              "protocols: ");
  for (const auto& name : protocol_names()) std::printf("%s ", name.c_str());
  std::printf("\narrivals : batch:N | poisson:rate,N | aqt:lambda,S,pattern,N\n");
  std::printf("jammers  : none | random:rate[,budget] | burst:period,len |\n"
              "           victim:id,budget | blanket:budget | band:lo,hi,budget |\n"
              "           randband:lo,hi,rate[,budget[,jitter]]\n");
  std::printf("--jam-seed=J pins the randomized jammers' slot-keyed coins to one\n"
              "fixed adversary across replicates (0/absent: per-replicate coins)\n");
  std::printf("--threads=T fans replicates over T workers (0 = all cores); output is\n"
              "byte-identical to the serial run\n");
  std::printf("--shards=M shards each RUN's packet population over M threads (0 = all\n"
              "cores); results are bit-identical to --shards=1 — use it for one giant run,\n"
              "--threads for many replicates\n");
  std::printf("--json=PATH writes the structured lowsense-bench/v1 result document\n");
  std::printf("--pack=FILE[:name] runs a scenario pack (every entry, or just `name`) at\n"
              "the entries' pinned seeds; exit 1 when any pinned digest or expectation\n"
              "fails. --manifest=PATH writes the lowsense-pack/v1 JSONL manifest, which\n"
              "is byte-identical for every --engine/--shards combination; --json=PATH\n"
              "writes one lowsense-bench/v1 scenario per entry with its digest/expect\n"
              "checks.\n");
}

/// Reports each failed pack check (pinned digest or `expect`) on stderr.
class FailureLog final : public ResultSink {
 public:
  void check(const CheckResult& c) override {
    if (!c.pass) {
      std::fprintf(stderr, "FAIL %s%s%s\n", c.what.c_str(), c.detail.empty() ? "" : ": ",
                   c.detail.c_str());
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (args.flag("help")) {
    usage();
    return 0;
  }

  const std::string proto = args.str("protocol", "low-sensing");
  const std::string arrivals_spec = args.str("arrivals", "batch:1000");
  const std::string jammer_spec = args.str("jammer", "none");
  const int reps = static_cast<int>(args.u64("reps", 3));
  const std::uint64_t seed = args.u64("seed", 1);
  const std::uint64_t jam_seed = args.u64("jam-seed", 0);
  const unsigned threads = args.workers("threads");
  const unsigned shards = args.workers("shards");
  const std::string json_path = args.str("json", "");
  const std::string pack_ref = args.str("pack", "");
  const std::string manifest_path = args.str("manifest", "");
  const bool csv = args.flag("csv");

  Scenario s;
  s.name = proto + "/" + arrivals_spec + "/" + jammer_spec;
  s.protocol = [proto] { return make_protocol(proto); };
  s.arrivals = parse_arrivals_spec(arrivals_spec);
  s.jammer = parse_jammer_spec(jammer_spec, jam_seed);
  s.config.max_active_slots = args.u64("max-active-slots", 50000000ULL);
  s.config.shards = shards;
  EngineKind engine = EngineKind::kEvent;
  try {
    engine = parse_engine(args.str("engine", "event"));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n\n", e.what());
    usage();
    return 1;
  }
  s.engine = engine;

  // Every accepted flag has been queried above; anything left over is a
  // typo, and a silently ignored --thread=8 is worse than an error.
  const auto unknown = args.unknown_keys();
  if (!unknown.empty()) {
    for (const auto& k : unknown) {
      std::fprintf(stderr, "unknown flag or bad value %s\n", k.c_str());
    }
    std::fprintf(stderr, "\n");
    usage();
    return 2;
  }

  if (!make_protocol(proto)) {
    std::fprintf(stderr, "unknown protocol '%s'\n\n", proto.c_str());
    usage();
    return 2;
  }
  if (!s.arrivals || !s.jammer) {
    std::fprintf(stderr, "bad arrivals/jammer spec\n\n");
    usage();
    return 2;
  }

  std::optional<JsonSink> json;
  if (!json_path.empty()) json.emplace(json_path);

  if (!pack_ref.empty()) {
    // Pack mode: each entry runs once at its pinned seed; --engine= and
    // --shards= apply unless the entry pins shards itself. The per-entry
    // flags of the ad-hoc mode (protocol/arrivals/...) are ignored — the
    // pack IS the scenario definition.
    ScenarioPack pack;
    std::string err;
    if (!load_scenario_pack_ref(pack_ref, &pack, &err)) {
      std::fprintf(stderr, "%s\n\n", err.c_str());
      usage();
      return 2;
    }
    const std::string label = pack.name.empty() ? pack_ref : pack.name;
    std::printf("pack: %s  (%zu scenario%s)\n", label.c_str(), pack.entries.size(),
                pack.entries.size() == 1 ? "" : "s");
    if (!pack.description.empty()) std::printf("%s\n", pack.description.c_str());

    FailureLog log;
    std::vector<ResultSink*> sinks{&log};
    if (json) sinks.push_back(&*json);
    const BenchMeta meta{"lowsense_cli", "CLI", "scenario pack",
                         {{"engine", engine_name(engine)},
                          {"shards", std::to_string(shards)},
                          {"pack", pack_ref},
                          {"json", json_path}},
                         {}};
    for (auto* sink : sinks) {
      sink->begin(meta);
      sink->section("pack: " + label);
    }
    const std::vector<PackEntryOutcome> outcomes = run_scenario_pack(
        pack,
        [engine, shards](Scenario sc, std::uint64_t sd, const std::vector<Observer*>& obs) {
          if (!sc.engine_locked) sc.engine = engine;
          if (!sc.shards_locked) sc.config.shards = shards;
          return run_scenario(sc, sd, obs);
        },
        engine, sinks);
    for (auto* sink : sinks) sink->end(0.0);

    bool all_ok = true;
    Table table({"scenario", "digest", "throughput", "departures", "drained", "verdict"});
    for (const PackEntryOutcome& o : outcomes) {
      all_ok &= o.ok();
      table.add_row({o.scenario, o.digest, Table::num(o.metric("throughput"), 3),
                     Table::num(o.metric("departures"), 0), o.run.drained ? "yes" : "no",
                     o.ok() ? "ok" : "FAIL"});
    }
    std::printf("%s", csv ? table.csv().c_str() : table.render().c_str());

    if (!manifest_path.empty()) {
      std::ofstream mf(manifest_path, std::ios::binary);
      mf << render_pack_manifest(pack, outcomes);
      if (!mf) {
        std::fprintf(stderr, "cannot write manifest '%s'\n", manifest_path.c_str());
        return 1;
      }
    }
    return all_ok && (!json || json->write_ok()) ? 0 : 1;
  }

  const Replicates r = replicate_parallel(s, reps, threads, seed);

  Table table({"metric", "median", "min", "max"});
  std::vector<MetricSummary> metrics;
  auto add = [&](const std::string& name, const Summary& sum, int prec = 4) {
    table.add_row({name, Table::num(sum.median, prec), Table::num(sum.min, prec),
                   Table::num(sum.max, prec)});
    metrics.push_back({name, sum});
  };
  add("throughput (T+J)/S", r.throughput(), 3);
  add("implicit throughput", r.implicit_throughput(), 3);
  add("active slots", r.summarize([](const RunResult& x) {
        return static_cast<double>(x.counters.active_slots);
      }));
  add("jammed active slots", r.summarize([](const RunResult& x) {
        return static_cast<double>(x.counters.jammed_active_slots);
      }));
  add("delivered", r.summarize([](const RunResult& x) {
        return static_cast<double>(x.counters.successes);
      }));
  add("peak backlog", r.peak_backlog());
  add("mean accesses/pkt", r.mean_accesses());
  add("max accesses/pkt", r.max_accesses());
  add("mean sends/pkt", r.summarize([](const RunResult& x) { return x.send_stats.mean(); }));
  add("mean latency", r.summarize([](const RunResult& x) { return x.latency_stats.mean(); }));
  add("max window", r.summarize([](const RunResult& x) { return x.max_window_seen; }));
  add("drained (1=yes)", r.summarize([](const RunResult& x) { return x.drained ? 1.0 : 0.0; }), 1);

  std::printf("scenario: %s  (reps=%d, seed=%llu)\n", s.name.c_str(), reps,
              static_cast<unsigned long long>(seed));
  std::printf("%s", csv ? table.csv().c_str() : table.render().c_str());

  if (json) {
    BenchMeta meta;
    meta.id = "lowsense_cli";
    meta.paper_anchor = "CLI";
    meta.claim = "ad-hoc scenario";
    meta.options = {{"reps", std::to_string(reps)},
                    {"seed", std::to_string(seed)},
                    {"threads", std::to_string(threads)},
                    {"shards", std::to_string(shards)},
                    {"engine", engine_name(s.engine)},
                    {"jammer", jammer_spec},
                    {"jam-seed", std::to_string(jam_seed)},
                    {"arrivals", arrivals_spec},
                    {"json", json_path}};
    meta.params = {{"protocol", proto}};
    json->begin(meta);
    ScenarioResult res;
    res.name = s.name;
    res.params = {{"protocol", proto}, {"arrivals", arrivals_spec}, {"jammer", jammer_spec}};
    res.engine = engine_name(s.engine);
    res.reps = reps;
    res.metrics = std::move(metrics);
    for (const auto& run : r.runs) res.total_active_slots += run.counters.active_slots;
    json->scenario(res);
    json->end(0.0);
    if (!json->write_ok()) return 1;
  }
  return 0;
}
