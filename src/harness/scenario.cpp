#include "harness/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <optional>
#include <sstream>

#include "harness/json_writer.hpp"
#include "protocols/registry.hpp"

namespace lowsense {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool is_hex16(const std::string& s) {
  if (s.size() != 16) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
  });
}

bool metric_known(const std::string& name) {
  const auto& names = pack_metric_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

bool metric_needs_window(const std::string& name) { return name.rfind("steady_", 0) == 0; }

// Parses one `expect =` right-hand side. Grammar: `drained` (sugar for a
// truthiness test) or `metric OP value` with OP in {>=, <=}.
bool parse_expectation(const std::string& rhs, PackExpectation* out, std::string* what) {
  out->text = rhs;
  if (rhs == "drained") {
    out->metric = "drained";
    out->op = PackExpectation::Op::kTruthy;
    return true;
  }
  const std::size_t ge = rhs.find(">=");
  const std::size_t le = rhs.find("<=");
  const std::size_t pos = std::min(ge, le);
  if (pos == std::string::npos) {
    *what = "expected 'metric >= value', 'metric <= value', or 'drained'";
    return false;
  }
  out->op = ge < le ? PackExpectation::Op::kGe : PackExpectation::Op::kLe;
  out->metric = trim(rhs.substr(0, pos));
  const std::string val = trim(rhs.substr(pos + 2));
  if (!metric_known(out->metric)) {
    *what = "unknown metric '" + out->metric + "'";
    return false;
  }
  if (!parse_f64_full(val, &out->value)) {
    *what = "bad number '" + val + "'";
    return false;
  }
  return true;
}

// Post-section validation of what no single key can settle (the specs
// are checked at their own lines). `where` positions the error at the
// section header's line.
bool finalize_entry(const PackEntry& e, const std::string& where, std::string* error) {
  if (e.protocol.empty()) {
    *error = where + ": entry '" + e.name + "' needs a protocol";
    return false;
  }
  if (e.arrivals.empty()) {
    *error = where + ": entry '" + e.name + "' needs an arrivals spec";
    return false;
  }
  if (e.budget == 0 && e.horizon == 0) {
    *error = where + ": entry '" + e.name + "' needs a budget or a horizon (open runs never end)";
    return false;
  }
  if (!e.digest.empty() && !is_hex16(e.digest)) {
    *error = where + ": digest must be 16 lowercase hex digits";
    return false;
  }
  for (const PackExpectation& x : e.expects) {
    if (metric_needs_window(x.metric) && e.window == 0) {
      *error = where + ": expectation on '" + x.metric + "' needs a window";
      return false;
    }
  }
  if (e.warmup != 0 && e.window == 0) {
    *error = where + ": warmup without a window has no effect";
    return false;
  }
  return true;
}

double truthy(bool b) { return b ? 1.0 : 0.0; }

}  // namespace

const PackEntry* ScenarioPack::find(const std::string& entry_name) const {
  for (const PackEntry& e : entries) {
    if (e.name == entry_name) return &e;
  }
  return nullptr;
}

const std::vector<std::string>& pack_metric_names() {
  static const std::vector<std::string> names = {
      "throughput",    "implicit_throughput", "mean_accesses",       "max_accesses",
      "peak_backlog",  "mean_latency",        "arrivals",            "departures",
      "drained",       "steady_rate",         "steady_mean_backlog", "steady_peak_backlog",
  };
  return names;
}

bool parse_scenario_pack(std::istream& in, const std::string& origin, ScenarioPack* out,
                         std::string* error) {
  *out = ScenarioPack{};
  std::optional<PackEntry> current;
  std::size_t current_header_line = 0;
  std::string line;
  std::size_t lineno = 0;

  auto where = [&](std::size_t n) { return origin + ":" + std::to_string(n); };
  auto close_current = [&]() {
    if (!current) return true;
    if (!finalize_entry(*current, where(current_header_line), error)) return false;
    out->entries.push_back(std::move(*current));
    current.reset();
    return true;
  };

  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string t = trim(line);
    if (t.empty()) continue;

    if (t.front() == '[') {
      if (t.back() != ']') {
        *error = where(lineno) + ": unterminated section header";
        return false;
      }
      const std::string name = trim(t.substr(1, t.size() - 2));
      if (name.empty()) {
        *error = where(lineno) + ": empty scenario name";
        return false;
      }
      if (!close_current()) return false;
      if (out->find(name)) {
        *error = where(lineno) + ": duplicate scenario '" + name + "'";
        return false;
      }
      current.emplace();
      current->name = name;
      current_header_line = lineno;
      continue;
    }

    const std::size_t eq = t.find('=');
    if (eq == std::string::npos) {
      *error = where(lineno) + ": expected 'key = value' or '[scenario]'";
      return false;
    }
    const std::string key = trim(t.substr(0, eq));
    const std::string val = trim(t.substr(eq + 1));

    if (!current) {
      // Pack header keys only.
      if (key == "pack") {
        out->name = val;
      } else if (key == "description") {
        out->description = val;
      } else {
        *error = where(lineno) + ": key '" + key + "' before any [scenario] section";
        return false;
      }
      continue;
    }

    auto want_u64 = [&](std::uint64_t* dst) {
      if (parse_u64_full(val, dst)) return true;
      *error = where(lineno) + ": bad number '" + val + "' for '" + key + "'";
      return false;
    };

    if (key == "protocol") {
      if (!val.empty() && !make_protocol(val)) {
        *error = where(lineno) + ": unknown protocol '" + val + "'";
        return false;
      }
      current->protocol = val;
    } else if (key == "arrivals") {
      if (!val.empty() && !parse_arrivals_spec(val)) {
        *error = where(lineno) + ": malformed arrivals spec '" + val + "'";
        return false;
      }
      current->arrivals = val;
    } else if (key == "jammer") {
      if (!parse_jammer_spec(val)) {
        *error = where(lineno) + ": malformed jammer spec '" + val + "'";
        return false;
      }
      current->jammer = val;
    } else if (key == "jam-seed") {
      if (!want_u64(&current->jam_seed)) return false;
    } else if (key == "seed") {
      if (!want_u64(&current->seed)) return false;
    } else if (key == "budget") {
      if (!want_u64(&current->budget)) return false;
    } else if (key == "horizon") {
      if (!want_u64(&current->horizon)) return false;
    } else if (key == "shards") {
      std::uint64_t v = 0;
      if (!want_u64(&v)) return false;
      if (v == 0 || v > Args::kMaxWorkers) {
        *error = where(lineno) + ": shards must be in [1, " +
                 std::to_string(Args::kMaxWorkers) + "]";
        return false;
      }
      current->shards = static_cast<unsigned>(v);
    } else if (key == "window") {
      if (!want_u64(&current->window)) return false;
    } else if (key == "warmup") {
      if (!want_u64(&current->warmup)) return false;
    } else if (key == "digest") {
      current->digest = val;
    } else if (key == "expect") {
      PackExpectation x;
      std::string what;
      if (!parse_expectation(val, &x, &what)) {
        *error = where(lineno) + ": " + what;
        return false;
      }
      current->expects.push_back(std::move(x));
    } else {
      *error = where(lineno) + ": unknown key '" + key + "'";
      return false;
    }
  }

  if (!close_current()) return false;
  if (out->entries.empty()) {
    *error = origin + ": pack has no scenarios";
    return false;
  }
  return true;
}

bool load_scenario_pack(const std::string& path, ScenarioPack* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open pack file '" + path + "'";
    return false;
  }
  return parse_scenario_pack(in, path, out, error);
}

bool load_scenario_pack_ref(const std::string& ref, ScenarioPack* out, std::string* error) {
  {
    std::ifstream probe(ref);
    if (probe) return load_scenario_pack(ref, out, error);
  }
  const std::size_t colon = ref.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == ref.size()) {
    *error = "cannot open pack file '" + ref + "'";
    return false;
  }
  const std::string path = ref.substr(0, colon);
  const std::string name = ref.substr(colon + 1);
  if (!load_scenario_pack(path, out, error)) return false;
  const PackEntry* e = out->find(name);
  if (!e) {
    std::string names;
    for (const PackEntry& en : out->entries) names += (names.empty() ? "" : ", ") + en.name;
    *error = path + ": no scenario '" + name + "' (have: " + names + ")";
    return false;
  }
  PackEntry kept = *e;
  out->entries.clear();
  out->entries.push_back(std::move(kept));
  return true;
}

Scenario make_pack_scenario(const PackEntry& entry) {
  Scenario s;
  s.name = entry.name;
  const std::string proto = entry.protocol;
  s.protocol = [proto] { return make_protocol(proto); };
  s.arrivals = parse_arrivals_spec(entry.arrivals);
  s.jammer = parse_jammer_spec(entry.jammer, entry.jam_seed);
  s.config.max_active_slots = entry.budget;
  s.config.max_slot = entry.horizon;
  if (entry.shards != 0) {
    s.config.shards = entry.shards;
    s.shards_locked = true;
  }
  return s;
}

bool PackEntryOutcome::ok() const {
  if (!digest_ok) return false;
  for (const auto& [text, pass] : expect_results) {
    (void)text;
    if (!pass) return false;
  }
  return true;
}

double PackEntryOutcome::metric(const std::string& name) const {
  if (name == "throughput") return run.throughput();
  if (name == "implicit_throughput") return run.implicit_throughput();
  if (name == "mean_accesses") return run.mean_accesses();
  if (name == "max_accesses") return static_cast<double>(run.max_accesses);
  if (name == "peak_backlog") return static_cast<double>(run.peak_backlog);
  if (name == "mean_latency") return run.latency_stats.mean();
  if (name == "arrivals") return static_cast<double>(run.counters.arrivals);
  if (name == "departures") return static_cast<double>(run.counters.successes);
  if (name == "drained") return truthy(run.drained);
  if (name == "steady_rate") return has_steady ? steady.rate() : 0.0;
  if (name == "steady_mean_backlog") return has_steady ? steady.mean_backlog : 0.0;
  if (name == "steady_peak_backlog")
    return has_steady ? static_cast<double>(steady.backlog_peak) : 0.0;
  return 0.0;
}

std::string PackEntryOutcome::manifest_line(const std::string& pack_name) const {
  // Engine/shard-INVARIANT fields only: regenerating this line under any
  // engine × shards combination must be byte-identical, so no timing and
  // no engine name. No final contention either: it is the residue of the
  // incremental Σ send_prob (a drained low-sensing run ends near 1e-15,
  // not 0), rounding noise with nothing to say about the run.
  JsonWriter w;
  w.begin_object();
  w.member("schema", "lowsense-pack/v1");
  w.member("pack", pack_name);
  w.member("scenario", scenario);
  w.member("digest", digest);
  w.member("events", digest_events);
  w.member("drained", run.drained);
  w.member("arrivals", run.counters.arrivals);
  w.member("departures", run.counters.successes);
  w.member("active_slots", run.counters.active_slots);
  w.member("jammed_active_slots", run.counters.jammed_active_slots);
  w.member("peak_backlog", run.peak_backlog);
  w.member("max_accesses", run.max_accesses);
  w.key("metrics");
  w.begin_object();
  w.member("throughput", run.throughput());
  w.member("implicit_throughput", run.implicit_throughput());
  w.member("mean_accesses", run.mean_accesses());
  w.member("mean_latency", run.latency_stats.mean());
  if (has_steady) {
    w.member("steady_rate", steady.rate());
    w.member("steady_mean_backlog", steady.mean_backlog);
    w.member("steady_covered_slots", steady.covered_slots);
  }
  w.end_object();
  w.end_object();
  return w.str();
}

PackEntryOutcome run_pack_entry(const PackEntry& entry, const PackRunner& runner) {
  PackEntryOutcome out;
  out.scenario = entry.name;
  out.expected_digest = entry.digest;

  TraceDigest digest;
  std::optional<SteadyStateObserver> steady;
  std::vector<Observer*> observers{&digest};
  if (entry.window != 0) {
    steady.emplace(entry.window);
    observers.push_back(&*steady);
  }

  out.run = runner(make_pack_scenario(entry), entry.seed, observers);
  out.digest = digest.hex();
  out.digest_events = digest.events();
  out.digest_ok = entry.digest.empty() || out.digest == entry.digest;
  if (steady) {
    out.has_steady = true;
    out.steady = steady->summarize(static_cast<std::size_t>(entry.warmup));
  }
  for (const PackExpectation& x : entry.expects) {
    const double got = out.metric(x.metric);
    bool pass = false;
    switch (x.op) {
      case PackExpectation::Op::kGe:
        pass = got >= x.value;
        break;
      case PackExpectation::Op::kLe:
        pass = got <= x.value;
        break;
      case PackExpectation::Op::kTruthy:
        pass = got != 0.0;
        break;
    }
    out.expect_results.emplace_back(x.text, pass);
  }
  return out;
}

std::vector<PackEntryOutcome> run_scenario_pack(const ScenarioPack& pack, const PackRunner& runner,
                                               EngineKind engine,
                                               const std::vector<ResultSink*>& sinks) {
  std::vector<PackEntryOutcome> outcomes;
  outcomes.reserve(pack.entries.size());
  for (const PackEntry& entry : pack.entries) {
    PackEntryOutcome out = run_pack_entry(entry, runner);

    ScenarioResult res;
    res.name = entry.name;
    res.params = {{"protocol", entry.protocol},
                  {"arrivals", entry.arrivals},
                  {"jammer", entry.jammer},
                  {"seed", std::to_string(entry.seed)}};
    res.engine = engine_name(engine);
    res.reps = 1;
    for (const std::string& m : pack_metric_names()) {
      if (m.rfind("steady_", 0) == 0 && !out.has_steady) continue;
      res.metrics.push_back({m, Summary::of({out.metric(m)})});
    }
    res.total_active_slots = out.run.counters.active_slots;
    for (auto* s : sinks) s->scenario(res);

    auto check = [&sinks](const CheckResult& c) {
      for (auto* s : sinks) s->check(c);
    };
    if (!out.expected_digest.empty()) {
      check({entry.name + ": digest", out.digest_ok,
             "got " + out.digest + (out.digest_ok ? "" : " want " + out.expected_digest)});
    }
    for (const auto& [text, pass] : out.expect_results) check({entry.name + ": " + text, pass, ""});
    outcomes.push_back(std::move(out));
  }
  return outcomes;
}

std::string render_pack_manifest(const ScenarioPack& pack,
                                 const std::vector<PackEntryOutcome>& outcomes) {
  std::string out;
  for (const PackEntryOutcome& o : outcomes) {
    out += o.manifest_line(pack.name);
    out += '\n';
  }
  return out;
}

}  // namespace lowsense
