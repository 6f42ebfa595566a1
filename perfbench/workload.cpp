#include "workload.hpp"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "sim/event_engine.hpp"

#if __has_include("core/rng_simd.hpp")
#include "core/rng_simd.hpp"
#define PERFBENCH_HAS_SIMD_TIERS 1
#endif

namespace perfbench {
namespace {

using lowsense::Observer;

// Workload sizes. batch-drain: 2^12 packets. At 2^14 (an ~18 MiB live set)
// the rate swung 4.0-5.6 M accesses/s between interleaved processes on a
// shared 4-vCPU host, while 2^11 and 2^12 stayed within ~6%: a live set
// spilling into the shared cache measures the neighbours. jammed-stream: a
// lambda = 0.05 Poisson stream over 4M slots is ~200k packets, ~4.6M
// accesses, and a live backlog near 13.
constexpr std::uint64_t kBatchPackets = 4096;
constexpr std::uint64_t kStreamHorizon = 4'000'000;
constexpr std::uint64_t kStreamWindow = 400'000;

// Golden TraceDigests of the generated workloads at a few seeds (digests are
// shard-invariant). At any other seed the gate still requires every
// repetition, the 2-shard run and the traced run to reproduce the first
// repetition.
struct Pin {
  const char* family;
  std::uint64_t seed;
  const char* digest;
};
constexpr Pin kPins[] = {
    {"batch", 1, "a0e894c4abb2fe12"},   {"batch", 2, "06c136e0fd10e726"},
    {"batch", 3, "252ac282117878d2"},   {"batch", 4, "96946c09ab4226f0"},
    {"batch", 5, "1d5eeb7394a7c499"},   {"batch", 6, "92a79135c13ad5e0"},
    {"batch", 7, "b4bad21da7596545"},   {"batch", 8, "2319c6b6d94d9022"},
    {"batch", 9, "d61cf5ce0bd35d8b"},   {"batch", 10, "13bc2ec16c46af59"},
    {"stream", 1, "ccf2f731c766aa1e"},  {"stream", 2, "f8109ff9b1c19a2d"},
    {"stream", 3, "aa2e42d29f9ebef7"},  {"stream", 4, "15862d8f379f4124"},
    {"stream", 5, "a58380630962932e"},  {"stream", 6, "7ddcdcabacb11fe9"},
    {"stream", 7, "df38f08d6e7a9d7e"},  {"stream", 8, "374badaae29893e4"},
    {"stream", 9, "05cbbe02e3587e2f"},  {"stream", 10, "9fb592c728f4eef5"},
};

std::string pinned(const char* family, std::uint64_t seed) {
  for (const Pin& p : kPins) {
    if (std::string(p.family) == family && p.seed == seed) return p.digest;
  }
  return "";
}

std::string digest_line(const char* family, std::uint64_t seed) {
  const std::string d = pinned(family, seed);
  return d.empty() ? "" : "digest   = " + d + "\n";
}

PackSource batch_source(std::uint64_t seed) {
  std::ostringstream t;
  t << "pack = perfbench-batch\n"
    << "[batch-drain]\n"
    << "protocol = low-sensing\n"
    << "arrivals = batch:" << kBatchPackets << "\n"
    << "seed     = " << seed << "\n"
    << "budget   = 1000000000\n"
    << "expect   = drained\n"
    << digest_line("batch", seed);
  return {"batch-drain", t.str(), ""};
}

PackSource stream_source(std::uint64_t seed) {
  std::ostringstream t;
  t << "pack = perfbench-stream\n"
    << "[jammed-stream]\n"
    << "protocol = low-sensing\n"
    << "arrivals = poisson:0.05,0\n"
    << "jammer   = random:0.3\n"
    << "jam-seed = " << seed + 1 << "\n"
    << "seed     = " << seed << "\n"
    << "horizon  = " << kStreamHorizon << "\n"
    << "window   = " << kStreamWindow << "\n"
    << "warmup   = 1\n"
    << "expect   = steady_rate >= 0.04\n"
    << "expect   = peak_backlog <= 200\n"
    << digest_line("stream", seed);
  return {"jammed-stream", t.str(), ""};
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

// SplitMix64, for the seed-driven entry order of pack-replay.
std::uint64_t splitmix(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool pack_sources(std::uint64_t seed, Workload* w, std::string* error) {
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(PERFBENCH_PACK_DIR, ec)) {
    if (e.path().extension() == ".pack") files.push_back(e.path());
  }
  if (ec || files.empty()) {
    *error = std::string("no scenario packs under ") + PERFBENCH_PACK_DIR;
    return false;
  }
  std::sort(files.begin(), files.end());
  std::size_t entries = 0;
  for (const auto& f : files) {
    PackSource src{f.string(), read_file(f),
                   "lowsense_cli --pack=packs/" + f.filename().string() + ":{entry}"};
    std::istringstream in(src.text);
    lowsense::ScenarioPack pack;
    if (!lowsense::parse_scenario_pack(in, src.origin, &pack, error)) return false;
    entries += pack.entries.size();
    w->sources.push_back(std::move(src));
  }
  w->order.resize(entries);
  for (std::size_t i = 0; i < entries; ++i) w->order[i] = i;
  std::uint64_t state = seed;
  for (std::size_t i = entries; i > 1; --i) {
    std::swap(w->order[i - 1], w->order[splitmix(&state) % i]);
  }
  return true;
}

/// Timestamps the first resolved slot (or quiet span) of a run.
class FirstSlotClock final : public Observer {
 public:
  void on_slot(const lowsense::SlotInfo&, const lowsense::Counters&) override { mark(); }
  void on_quiet_span(lowsense::Slot, lowsense::Slot, std::uint64_t,
                     const lowsense::Counters&) override {
    mark();
  }
  bool seen() const noexcept { return seen_; }
  Clock::time_point at() const noexcept { return at_; }

 private:
  void mark() {
    if (!seen_) {
      seen_ = true;
      at_ = Clock::now();
    }
  }
  bool seen_ = false;
  Clock::time_point at_{};
};

std::string replace_entry(std::string text, const std::string& entry) {
  const std::size_t at = text.find("{entry}");
  if (at != std::string::npos) text.replace(at, 7, entry);
  return text;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

}  // namespace

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  // Not getrusage's ru_maxrss: that survives exec, so it would include
  // the launching process's footprint.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

bool parse_options(int argc, char** argv, Options* out, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      *error = "missing value for " + key;
      return false;
    }
    try {
      if (key == "--workload") {
        out->workload = value;
      } else if (key == "--seed") {
        out->seed = std::stoull(value);
      } else if (key == "--seconds") {
        out->seconds = std::stod(value);
      } else if (key == "--trace") {
        out->trace = std::stoi(value);
      } else if (key == "--pin-digest") {
        out->pin_digest = value;
      } else {
        *error = "unknown flag " + key;
        return false;
      }
    } catch (const std::exception&) {
      *error = "bad value for " + key + ": " + value;
      return false;
    }
  }
  if (out->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  if (!(out->seconds > 0.0) || (out->trace != 0 && out->trace != 1)) {
    *error = "--seconds must be > 0 and --trace 0 or 1";
    return false;
  }
  return true;
}

bool make_workload(const std::string& name, std::uint64_t seed, Workload* out,
                   std::string* error) {
  Workload w;
  w.name = name;
  if (name == "batch-drain") {
    w.sources.push_back(batch_source(seed));
    w.order = {0};
  } else if (name == "jammed-stream") {
    w.sources.push_back(stream_source(seed));
    w.order = {0};
  } else if (name == "pack-replay") {
    if (!pack_sources(seed, &w, error)) return false;
  } else {
    *error = "unknown workload '" + name + "'";
    return false;
  }
  *out = std::move(w);
  return true;
}

Rep run_rep(const Workload& workload, unsigned shards, Instrument* instrument,
            const std::string& pin_digest) {
  Rep rep;
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();

  std::vector<lowsense::PackEntry> entries;
  std::vector<std::string> repro;
  for (const PackSource& src : workload.sources) {
    std::istringstream in(src.text);
    lowsense::ScenarioPack pack;
    std::string error;
    if (!lowsense::parse_scenario_pack(in, src.origin, &pack, &error)) {
      throw std::runtime_error(error);
    }
    for (lowsense::PackEntry& e : pack.entries) {
      repro.push_back(replace_entry(src.repro, e.name));
      entries.push_back(std::move(e));
    }
  }
  rep.parse_s = seconds_between(t0, Clock::now());
  rep.setup_s = rep.parse_s;

  for (const std::size_t idx : workload.order) {
    lowsense::PackEntry entry = entries.at(idx);
    if (!pin_digest.empty()) entry.digest = pin_digest;
    const Clock::time_point t_entry = Clock::now();
    auto runner = [&](lowsense::Scenario s, std::uint64_t seed,
                      const std::vector<Observer*>& observers) {
      s.config.seed = seed;
      s.config.shards = shards;
      auto factory = s.protocol();
      auto arrivals = s.arrivals(seed);
      auto jammer = s.jammer(seed);
      std::vector<Observer*> attached = observers;
      if (instrument != nullptr) {
        factory = instrument->wrap(std::move(factory));
        arrivals = instrument->wrap(std::move(arrivals));
        jammer = instrument->wrap(std::move(jammer));
        attached = instrument->wrap(observers);
      }
      lowsense::EventEngine engine(*factory, *arrivals, *jammer, s.config);
      for (Observer* o : attached) engine.add_observer(o);
      FirstSlotClock clock;
      engine.add_observer(&clock);
      const Clock::time_point t_run = Clock::now();
      rep.build_s += seconds_between(t_entry, t_run);
      lowsense::RunResult result = engine.run();
      const Clock::time_point t_end = Clock::now();
      rep.run_s += seconds_between(t_run, t_end);
      rep.setup_s += seconds_between(t_entry, clock.seen() ? clock.at() : t_end);
      return result;
    };
    lowsense::PackEntryOutcome outcome = lowsense::run_pack_entry(entry, runner);
    rep.accesses += outcome.run.access_stats.sum();
    rep.outcomes.push_back(std::move(outcome));
    rep.repro.push_back(repro.at(idx));
  }
  rep.wall_s = seconds_between(t0, Clock::now());
  rep.cpu_s = process_cpu_s() - cpu0;
  return rep;
}

void Gate::check(const Rep& rep, const char* what) {
  if (reference_.empty()) {
    for (const auto& o : rep.outcomes) reference_.push_back(o.digest);
  }
  for (std::size_t i = 0; i < rep.outcomes.size(); ++i) {
    const lowsense::PackEntryOutcome& o = rep.outcomes[i];
    ++attempted_;
    std::string why;
    if (!o.digest_ok) {
      why = "digest " + o.digest + " != pinned " + o.expected_digest;
    } else if (i >= reference_.size() || o.digest != reference_[i]) {
      why = "digest " + o.digest + " != first repetition's " +
            (i < reference_.size() ? reference_[i] : std::string("(none)"));
    } else {
      for (const auto& [text, pass] : o.expect_results) {
        if (!pass) why = "expect '" + text + "' failed";
      }
    }
    if (!why.empty()) fail(o.scenario + " (" + what + "): " + why, rep.repro[i]);
  }
}

void Gate::fail(const std::string& why, const std::string& entry_repro) {
  ++failed_;
  std::fprintf(stderr,
               "perfbench: FAIL %s: %s; repro: python3 perfbench/run.py --workload %s --seed %llu "
               "--seconds %g --trace %d%s%s\n",
               options_.workload.c_str(), why.c_str(), options_.workload.c_str(),
               static_cast<unsigned long long>(options_.seed), options_.seconds, options_.trace,
               entry_repro.empty() ? "" : "  (entry alone: ", entry_repro.empty() ? "" : ")");
}

void print_context(const Workload& workload, const Options& options) {
#ifdef PERFBENCH_HAS_SIMD_TIERS
  const std::string simd = lowsense::simd::active_tier_name();
#else
  const std::string simd = "none";
#endif
#ifdef __VERSION__
  const std::string compiler = __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"nproc\": %u, "
      "\"cpu_model\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", \"simd_tier\": "
      "\"%s\", \"shards\": %u, \"check_shards\": %u, \"entries\": %zu}}\n",
      json_escape(workload.name).c_str(), static_cast<unsigned long long>(options.seed),
      options.trace, std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      json_escape(compiler).c_str(), PERFBENCH_BUILD_TYPE, simd.c_str(), kTimedShards,
      kCheckShards, workload.order.size());
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
