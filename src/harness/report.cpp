#include "harness/report.hpp"

#include <cstdio>

#include "harness/json_writer.hpp"

namespace lowsense {

void report_header(const std::string& experiment_id, const std::string& paper_anchor,
                   const std::string& claim) {
  std::printf("\n=== %s · %s ===\n", experiment_id.c_str(), paper_anchor.c_str());
  std::printf("claim: %s\n\n", claim.c_str());
}

void report_table(const Table& table, const std::string& note) {
  std::printf("%s", table.render().c_str());
  if (!note.empty()) std::printf("%s\n", note.c_str());
}

void report_check(const std::string& what, bool pass, const std::string& detail) {
  std::printf("[%s] %s%s%s\n", pass ? "PASS" : "FAIL", what.c_str(),
              detail.empty() ? "" : " — ", detail.c_str());
}

void report_footer(const std::string& experiment_id) {
  std::printf("=== end %s ===\n", experiment_id.c_str());
}

// --------------------------------------------------------------- TextSink

void TextSink::begin(const BenchMeta& meta) {
  id_ = meta.id;
  report_header(meta.id, meta.paper_anchor, meta.claim);
  // Echo the run configuration, EXCEPT result-irrelevant execution knobs
  // (threads, shards, json path): stdout must be byte-identical across
  // thread AND shard counts so the bit-identity tests can diff it.
  for (const auto& [k, v] : meta.options) {
    if (k == "threads" || k == "shards" || k == "json") continue;
    if (k == "engine") {
      std::printf("engine: %s\n", v.c_str());
    } else if ((k == "jammer" || k == "arrivals") && !v.empty()) {
      std::printf("%s override: %s\n", k.c_str(), v.c_str());
    }
  }
}

void TextSink::section(const std::string& title) {
  std::printf("\n-- %s --\n", title.c_str());
}

void TextSink::note(const std::string& text) { std::printf("%s\n", text.c_str()); }

void TextSink::table(const Table& t, const std::string& note) { report_table(t, note); }

void TextSink::check(const CheckResult& c) { report_check(c.what, c.pass, c.detail); }

void TextSink::end(double) {
  report_footer(id_);
  std::fflush(stdout);
}

// --------------------------------------------------------------- JsonSink

JsonSink::JsonSink(std::string path, bool include_timing)
    : path_(std::move(path)), include_timing_(include_timing) {}

void JsonSink::begin(const BenchMeta& meta) { meta_ = meta; }

void JsonSink::section(const std::string& title) { current_section_ = title; }

void JsonSink::scenario(const ScenarioResult& s) { scenarios_.emplace_back(current_section_, s); }

void JsonSink::check(const CheckResult& c) { checks_.push_back(c); }

namespace {

void write_summary(JsonWriter& w, const Summary& s) {
  w.begin_object();
  w.member("count", static_cast<std::uint64_t>(s.count));
  w.member("mean", s.mean);
  w.member("stddev", s.stddev);
  w.member("min", s.min);
  w.member("p25", s.p25);
  w.member("median", s.median);
  w.member("p75", s.p75);
  w.member("p99", s.p99);
  w.member("max", s.max);
  w.end_object();
}

void write_kv(JsonWriter& w, const KvList& kv) {
  w.begin_object();
  for (const auto& [k, v] : kv) w.member(k, v);
  w.end_object();
}

}  // namespace

void JsonSink::end(double elapsed_sec) {
  JsonWriter w;
  w.begin_object();
  w.member("schema", kSchema);
  w.member("bench", meta_.id);
  w.member("paper_anchor", meta_.paper_anchor);
  w.member("claim", meta_.claim);
  w.key("options");
  write_kv(w, meta_.options);
  w.key("params");
  write_kv(w, meta_.params);

  std::uint64_t total_slots = 0;
  w.key("scenarios");
  w.begin_array();
  for (const auto& [section, s] : scenarios_) {
    total_slots += s.total_active_slots;
    w.begin_object();
    w.member("name", s.name);
    if (!section.empty()) w.member("section", section);
    w.key("params");
    write_kv(w, s.params);
    w.member("engine", s.engine);
    w.member("reps", s.reps);
    w.key("metrics");
    w.begin_object();
    for (const auto& m : s.metrics) {
      w.key(m.name);
      write_summary(w, m.summary);
    }
    w.end_object();
    w.member("total_active_slots", s.total_active_slots);
    if (include_timing_) {
      w.member("elapsed_sec", s.elapsed_sec);
      w.member("slots_per_sec", s.slots_per_sec());
      if (!s.derived.empty()) {
        w.key("derived");
        w.begin_object();
        for (const auto& [k, v] : s.derived) w.member(k, v);
        w.end_object();
      }
    }
    w.end_object();
  }
  w.end_array();

  w.key("checks");
  w.begin_array();
  bool all_pass = true;
  for (const auto& c : checks_) {
    all_pass &= c.pass;
    w.begin_object();
    w.member("what", c.what);
    w.member("pass", c.pass);
    w.member("detail", c.detail);
    w.end_object();
  }
  w.end_array();
  w.member("passed", all_pass);

  w.member("total_active_slots", total_slots);
  if (include_timing_) {
    w.member("elapsed_sec", elapsed_sec);
    w.member("slots_per_sec",
             elapsed_sec > 0.0 ? static_cast<double>(total_slots) / elapsed_sec : 0.0);
  }
  w.end_object();

  rendered_ = w.str();
  rendered_ += '\n';

  if (path_.empty()) return;
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (!f) {
    write_ok_ = false;
    std::fprintf(stderr, "warning: cannot write %s\n", path_.c_str());
    return;
  }
  write_ok_ = std::fputs(rendered_.c_str(), f) >= 0;
  write_ok_ &= std::fclose(f) == 0;
  if (!write_ok_) std::fprintf(stderr, "warning: short write to %s\n", path_.c_str());
}

}  // namespace lowsense
