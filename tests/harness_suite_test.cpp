// Unit tests for the BenchSuite layer: uniform flag parsing round-trips,
// unknown-flag rejection, the JSON result schema (golden), the JSON
// writer, and the deterministic parallel_map fan-out.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/json_writer.hpp"
#include "harness/suite.hpp"
#include "protocols/registry.hpp"

namespace lowsense {
namespace {

Args make_args(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return Args(static_cast<int>(argv.size()), const_cast<char**>(argv.data()));
}

BenchDef mini_def() {
  BenchDef def;
  def.id = "TX";
  def.paper_anchor = "test anchor";
  def.claim = "test claim";
  def.params = {BenchParam::u64("n", 64, "batch size"),
                BenchParam::f64("rate", 0.25, "a rate"),
                BenchParam::str("mode", "alpha", "a mode")};
  def.default_reps = 3;
  def.default_seed = 42;
  def.body = [](BenchContext& ctx) {
    Scenario s;
    s.name = "cell";
    s.protocol = [] { return make_protocol("low-sensing"); };
    s.arrivals = [&ctx](std::uint64_t) { return std::make_unique<BatchArrivals>(ctx.u64("n")); };
    ctx.run(std::move(s), {{"n", std::to_string(ctx.u64("n"))}});
    ctx.check("always true", true, "detail");
  };
  return def;
}

// ------------------------------------------------------ flag round-trips

TEST(SuiteOptionsTest, DefaultsComeFromTheBenchDef) {
  const Args args = make_args({});
  SuiteOptions opts;
  std::string error;
  ASSERT_TRUE(parse_suite_options(mini_def(), args, &opts, &error)) << error;
  EXPECT_EQ(opts.reps, 3);
  EXPECT_EQ(opts.seed, 42u);
  EXPECT_EQ(opts.threads, 1u);
  EXPECT_EQ(opts.engine, EngineKind::kEvent);
  EXPECT_EQ(opts.jam_seed, 0u);
  EXPECT_TRUE(opts.jammer_spec.empty());
  EXPECT_TRUE(opts.arrivals_spec.empty());
  EXPECT_TRUE(opts.json_path.empty());
}

TEST(SuiteOptionsTest, FullFlagSetRoundTrips) {
  const Args args = make_args({"--reps=7", "--seed=99", "--threads=4", "--engine=slot",
                               "--jammer=random:0.25,100", "--jam-seed=5",
                               "--arrivals=batch:200", "--json=/tmp/x.json"});
  SuiteOptions opts;
  std::string error;
  ASSERT_TRUE(parse_suite_options(mini_def(), args, &opts, &error)) << error;
  EXPECT_EQ(opts.reps, 7);
  EXPECT_EQ(opts.seed, 99u);
  EXPECT_EQ(opts.threads, 4u);
  EXPECT_EQ(opts.engine, EngineKind::kSlot);
  EXPECT_EQ(opts.jammer_spec, "random:0.25,100");
  EXPECT_EQ(opts.jam_seed, 5u);
  EXPECT_EQ(opts.arrivals_spec, "batch:200");
  EXPECT_EQ(opts.json_path, "/tmp/x.json");
}

TEST(SuiteOptionsTest, ThreadsZeroMeansAllCores) {
  const Args args = make_args({"--threads=0"});
  SuiteOptions opts;
  std::string error;
  ASSERT_TRUE(parse_suite_options(mini_def(), args, &opts, &error));
  EXPECT_EQ(opts.threads, ParallelExecutor::default_threads());
}

TEST(SuiteOptionsTest, ShardsFlagRoundTripsAndZeroMeansAllCores) {
  SuiteOptions opts;
  std::string error;
  ASSERT_TRUE(parse_suite_options(mini_def(), make_args({}), &opts, &error));
  EXPECT_EQ(opts.shards, 1u);  // default: serial runs
  ASSERT_TRUE(parse_suite_options(mini_def(), make_args({"--shards=4"}), &opts, &error));
  EXPECT_EQ(opts.shards, 4u);
  ASSERT_TRUE(parse_suite_options(mini_def(), make_args({"--shards=0"}), &opts, &error));
  EXPECT_EQ(opts.shards, ParallelExecutor::default_threads());
}

TEST(SuiteRunnerTest, ShardedStdoutIsByteIdenticalToSerial) {
  // The whole point of --shards=: results (and therefore the TextSink
  // stream) must not depend on it. Run the mini bench serial and sharded
  // and diff the captured stdout byte for byte.
  std::string outs[2];
  int i = 0;
  for (const char* shards_flag : {"--shards=1", "--shards=3"}) {
    BenchDef def = mini_def();
    std::vector<const char*> argv{"prog", "--n=300", "--reps=2", shards_flag};
    ::testing::internal::CaptureStdout();
    EXPECT_EQ(run_bench_suite(def, static_cast<int>(argv.size()),
                              const_cast<char**>(argv.data())),
              0);
    outs[i++] = ::testing::internal::GetCapturedStdout();
  }
  EXPECT_EQ(outs[0], outs[1]);
}

TEST(SuiteOptionsTest, BadValuesAreRejectedEagerly) {
  SuiteOptions opts;
  std::string error;
  EXPECT_FALSE(parse_suite_options(mini_def(), make_args({"--engine=quantum"}), &opts, &error));
  EXPECT_NE(error.find("quantum"), std::string::npos);
  EXPECT_FALSE(parse_suite_options(mini_def(), make_args({"--jammer=random:1.7"}), &opts, &error));
  EXPECT_NE(error.find("jammer"), std::string::npos);
  EXPECT_FALSE(parse_suite_options(mini_def(), make_args({"--arrivals=bogus:1"}), &opts, &error));
  EXPECT_NE(error.find("arrivals"), std::string::npos);
  EXPECT_FALSE(parse_suite_options(mini_def(), make_args({"--reps=0"}), &opts, &error));
}

TEST(SuiteRunnerTest, UnknownFlagExitsNonzeroWithoutRunningTheBody) {
  // --thread=8 is the classic typo; --pack=/--manifest= are not suite
  // flags (scenario packs run through lowsense_cli), and the pack is
  // never opened; a malformed number takes the same path.
  for (const char* bad :
       {"--thread=8", "--pack=/no/such/file.pack", "--manifest=/tmp/x.jsonl", "--reps=abc"}) {
    bool ran = false;
    BenchDef def = mini_def();
    def.body = [&ran](BenchContext&) { ran = true; };
    std::vector<const char*> argv{"prog", bad};
    EXPECT_EQ(run_bench_suite(def, 2, const_cast<char**>(argv.data())), 2) << bad;
    EXPECT_FALSE(ran) << bad;
  }
}

// Numbers are read whole, and --threads=/--shards= are capped at 4096:
// each of these used to run (--reps=abc as 0 replicates, --threads=-1 as a
// pool of 2^32-1 workers). Parsed only, never run: a broken check would
// try to start that many threads.
TEST(SuiteOptionsTest, MalformedOrHugeNumbersAreRejectedAtParseTime) {
  for (const char* bad :
       {"--reps=abc", "--reps=3x", "--seed=-1", "--seed=1e3", "--jam-seed=0x10", "--threads=-1",
        "--shards=-1", "--threads=4097", "--shards=18446744073709551615", "--shards=2.5",
        "--n=1e3", "--n=-4", "--rate=0.25x", "--rate= 1", "--reps=4294967296"}) {
    SuiteOptions opts;
    std::string error;
    EXPECT_FALSE(parse_suite_options(mini_def(), make_args({bad}), &opts, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  SuiteOptions opts;
  std::string error;
  ASSERT_TRUE(parse_suite_options(mini_def(), make_args({"--threads=4096", "--shards=4096"}),
                                  &opts, &error))
      << error;
  EXPECT_EQ(opts.threads, 4096u);
  EXPECT_EQ(opts.shards, 4096u);
}

TEST(SuiteRunnerTest, ListPrintsDeclarationAndSkipsTheBody) {
  bool ran = false;
  BenchDef def = mini_def();
  def.body = [&ran](BenchContext&) { ran = true; };
  std::vector<const char*> argv{"prog", "--list"};
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(run_bench_suite(def, 2, const_cast<char**>(argv.data())), 0);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_FALSE(ran);
  EXPECT_NE(out.find("bench: TX"), std::string::npos);
  EXPECT_NE(out.find("anchor: test anchor"), std::string::npos);
  EXPECT_NE(out.find("param: n kind=u64 default=64"), std::string::npos);
  EXPECT_NE(out.find("param: rate kind=f64 default=0.25"), std::string::npos);
  EXPECT_NE(out.find("flags:"), std::string::npos);
  EXPECT_EQ(out.find("simd"), std::string::npos);
}

TEST(SuiteRunnerTest, EndToEndWritesSchemaStableJson) {
  const std::string path = ::testing::TempDir() + "/BENCH_TX.json";
  BenchDef def = mini_def();
  const std::string json_flag = "--json=" + path;
  std::vector<const char*> argv{"prog", "--reps=2", "--n=32", json_flag.c_str()};
  ::testing::internal::CaptureStdout();
  const int rc = run_bench_suite(def, static_cast<int>(argv.size()),
                                 const_cast<char**>(argv.data()));
  const std::string out = ::testing::internal::GetCapturedStdout();
  ASSERT_EQ(rc, 0);
  EXPECT_NE(out.find("=== TX · test anchor ==="), std::string::npos);
  EXPECT_NE(out.find("[PASS] always true"), std::string::npos);

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string doc(1 << 16, '\0');
  doc.resize(std::fread(doc.data(), 1, doc.size(), f));
  std::fclose(f);

  for (const char* needle :
       {"\"schema\":\"lowsense-bench/v1\"", "\"bench\":\"TX\"", "\"paper_anchor\":\"test anchor\"",
        "\"options\":{\"reps\":\"2\"", "\"params\":{\"n\":\"32\"", "\"scenarios\":[",
        "\"name\":\"cell\"", "\"metrics\":{\"throughput\":{\"count\":2,", "\"median\":",
        "\"slots_per_sec\":", "\"checks\":[{\"what\":\"always true\",\"pass\":true",
        "\"passed\":true"}) {
    EXPECT_NE(doc.find(needle), std::string::npos) << "missing " << needle << " in:\n" << doc;
  }
  EXPECT_EQ(doc.find("\"simd\""), std::string::npos) << doc;
}

// --------------------------------------------------------- JSON (golden)

TEST(JsonSinkTest, GoldenDocumentWithoutTiming) {
  JsonSink sink("", /*include_timing=*/false);
  BenchMeta meta;
  meta.id = "TX";
  meta.paper_anchor = "anchor";
  meta.claim = "claim";
  meta.options = {{"reps", "2"}};
  meta.params = {{"n", "64"}};
  sink.begin(meta);

  ScenarioResult res;
  res.name = "cell";
  res.params = {{"n", "64"}};
  res.engine = "event";
  res.reps = 2;
  res.metrics = {{"throughput", Summary::of({2.0, 2.0})}};
  res.total_active_slots = 100;
  sink.scenario(res);

  sink.check({"w", true, "d"});
  sink.end(123.0);  // ignored: timing disabled

  const std::string expected =
      "{\"schema\":\"lowsense-bench/v1\",\"bench\":\"TX\",\"paper_anchor\":\"anchor\","
      "\"claim\":\"claim\",\"options\":{\"reps\":\"2\"},\"params\":{\"n\":\"64\"},"
      "\"scenarios\":[{\"name\":\"cell\",\"params\":{\"n\":\"64\"},\"engine\":\"event\","
      "\"reps\":2,\"metrics\":{\"throughput\":{\"count\":2,\"mean\":2,\"stddev\":0,"
      "\"min\":2,\"p25\":2,\"median\":2,\"p75\":2,\"p99\":2,\"max\":2}},"
      "\"total_active_slots\":100}],"
      "\"checks\":[{\"what\":\"w\",\"pass\":true,\"detail\":\"d\"}],\"passed\":true,"
      "\"total_active_slots\":100}\n";
  EXPECT_EQ(sink.rendered(), expected);
}

TEST(JsonSinkTest, FailedCheckFlipsPassed) {
  JsonSink sink("", false);
  sink.begin({});
  sink.check({"ok", true, ""});
  sink.check({"broken", false, ""});
  sink.end(0.0);
  EXPECT_NE(sink.rendered().find("\"passed\":false"), std::string::npos);
}

TEST(JsonWriterTest, EscapesAndNesting) {
  JsonWriter w;
  w.begin_object();
  w.member("s", "a\"b\\c\nd");
  w.key("arr");
  w.begin_array().value(std::uint64_t{1}).value(2.5).value(true).value_null().end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\",\"arr\":[1,2.5,true,null]}");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::nan(""));
  w.value(1.0 / 0.0);
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

// ----------------------------------------------------------- parallel_map

TEST(ParallelMapTest, PreservesIndexOrder) {
  const auto serial = parallel_map(1u, 50, [](std::size_t i) { return i * i; });
  const auto parallel = parallel_map(8u, 50, [](std::size_t i) { return i * i; });
  ASSERT_EQ(serial.size(), 50u);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial[7], 49u);
}

TEST(ParallelMapTest, ReusesACallerOwnedPool) {
  ParallelExecutor pool(4);
  const auto a = parallel_map(&pool, 20, [](std::size_t i) { return i + 1; });
  const auto b = parallel_map(&pool, 20, [](std::size_t i) { return i + 2; });
  EXPECT_EQ(a[19], 20u);
  EXPECT_EQ(b[0], 2u);
}

TEST(ParallelMapTest, PropagatesExceptions) {
  EXPECT_THROW(parallel_map(4u, 16,
                            [](std::size_t i) -> int {
                              if (i == 3) throw std::runtime_error("boom");
                              return 0;
                            }),
               std::runtime_error);
}

// ----------------------------------------------- context execution rules

TEST(BenchContextTest, EngineOverrideRespectsLockedScenarios) {
  const Args args = make_args({"--engine=slot"});
  SuiteOptions opts;
  std::string error;
  const BenchDef def = mini_def();
  ASSERT_TRUE(parse_suite_options(def, args, &opts, &error));
  BenchContext ctx(def, args, opts, {}, nullptr);

  Scenario s;
  s.name = "x";
  s.protocol = [] { return make_protocol("low-sensing"); };
  s.arrivals = [](std::uint64_t) { return std::make_unique<BatchArrivals>(16); };
  // Unlocked: run() applies --engine=slot; locked: the pinned engine wins.
  // Trace equivalence makes the counters identical either way, so pin a
  // probe on the engine via run_one + the context's accessor instead.
  EXPECT_EQ(ctx.engine(), EngineKind::kSlot);
  const RunResult unlocked = ctx.run_one(s, 1);
  s.engine = EngineKind::kEvent;
  s.engine_locked = true;
  const RunResult locked = ctx.run_one(s, 1);
  // Both engines resolve the same trace; the real assertion is that
  // neither path throws and results agree.
  EXPECT_EQ(first_difference(unlocked, locked), "");
}

TEST(BenchContextTest, JammerOverrideAppliesToEveryScenario) {
  const Args args = make_args({"--jammer=burst:4,2"});
  SuiteOptions opts;
  std::string error;
  const BenchDef def = mini_def();
  ASSERT_TRUE(parse_suite_options(def, args, &opts, &error));
  BenchContext ctx(def, args, opts, {}, nullptr);

  Scenario s;
  s.protocol = [] { return make_protocol("low-sensing"); };
  s.arrivals = [](std::uint64_t) { return std::make_unique<BatchArrivals>(32); };
  const RunResult r = ctx.run_one(s, 3);
  EXPECT_GT(r.counters.jammed_active_slots, 0u);
}

TEST(BenchContextTest, DeclaredParamsResolveWithOverridesAndDefaults) {
  const Args args = make_args({"--n=128", "--mode=beta"});
  SuiteOptions opts;
  std::string error;
  const BenchDef def = mini_def();
  ASSERT_TRUE(parse_suite_options(def, args, &opts, &error));
  BenchContext ctx(def, args, opts, {}, nullptr);
  EXPECT_EQ(ctx.u64("n"), 128u);
  EXPECT_DOUBLE_EQ(ctx.f64("rate"), 0.25);
  EXPECT_EQ(ctx.str("mode"), "beta");
  EXPECT_THROW(ctx.u64("undeclared"), std::logic_error);
}

// ------------------------------------------------------------- Args guard

TEST(ArgsUnknownKeys, FlagsNeitherKnownNorQueriedAreReported) {
  const Args args = make_args({"--n=1", "--thread=8", "--n=2"});
  EXPECT_EQ(args.unknown_keys({"n"}), std::vector<std::string>{"--thread"});
}

TEST(ArgsUnknownKeys, QueryingMarksAKeyKnown) {
  const Args args = make_args({"--n=1", "--fast"});
  (void)args.u64("n", 0);
  EXPECT_EQ(args.unknown_keys(), std::vector<std::string>{"--fast"});
  (void)args.flag("fast");
  EXPECT_TRUE(args.unknown_keys().empty());
}

TEST(ArgsUnknownKeys, MalformedTokensAreAlwaysReported) {
  // Single-dash and bare key=value typos never reach the accessors, so
  // no key list can bless them.
  const Args args = make_args({"-threads=8", "n=99", "--n=1"});
  (void)args.u64("n", 0);
  (void)args.u64("threads", 1);
  EXPECT_EQ(args.unknown_keys({"threads"}),
            (std::vector<std::string>{"-threads=8", "n=99"}));
}

TEST(ArgsUnknownKeys, SingleDashTypoFailsTheSuiteRunner) {
  BenchDef def = mini_def();
  bool ran = false;
  def.body = [&ran](BenchContext&) { ran = true; };
  std::vector<const char*> argv{"prog", "-threads=8"};
  EXPECT_EQ(run_bench_suite(def, 2, const_cast<char**>(argv.data())), 2);
  EXPECT_FALSE(ran);
}

TEST(ArgsUnknownKeys, ValuesTheAccessorsRejectAreReported) {
  const Args args = make_args({"--reps=abc", "--rate=0.5x", "--threads=-1", "--shards=4097",
                               "--seed=7", "--fast"});
  EXPECT_EQ(args.u64("reps", 3), 3u);
  EXPECT_EQ(args.f64("rate", 0.25), 0.25);
  EXPECT_EQ(args.workers("threads"), 1u);
  EXPECT_EQ(args.workers("shards"), 1u);
  EXPECT_EQ(args.u64("seed", 1), 7u);
  EXPECT_EQ(args.unknown_keys({"fast"}),
            (std::vector<std::string>{"--reps=abc", "--rate=0.5x", "--threads=-1",
                                      "--shards=4097"}));
}

TEST(ArgsUnknownKeys, KeysListsEverythingParsed) {
  const Args args = make_args({"--a=1", "--b", "--a=2"});
  EXPECT_EQ(args.keys(), (std::vector<std::string>{"a", "b", "a"}));
}

}  // namespace
}  // namespace lowsense
