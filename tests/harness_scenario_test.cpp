// Scenario-pack DSL tests: parse round-trip, eager malformed-spec
// rejection with origin:line positions, digest stability across engine x
// shards, the run_scenario_pack sink report, and the checked-in golden
// fixture under tests/data/.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "protocols/registry.hpp"

namespace lowsense {
namespace {

ScenarioPack parse_ok(const std::string& text) {
  std::istringstream in(text);
  ScenarioPack pack;
  std::string error;
  EXPECT_TRUE(parse_scenario_pack(in, "test.pack", &pack, &error)) << error;
  return pack;
}

std::string parse_error(const std::string& text) {
  std::istringstream in(text);
  ScenarioPack pack;
  std::string error;
  EXPECT_FALSE(parse_scenario_pack(in, "test.pack", &pack, &error));
  EXPECT_FALSE(error.empty());
  return error;
}

std::string golden_path(const std::string& name) {
  return std::string(LOWSENSE_TEST_DATA_DIR) + "/" + name;
}

// ------------------------------------------------------------ round-trip

TEST(ScenarioPackParse, RoundTripsEveryKey) {
  const ScenarioPack pack = parse_ok(
      "pack = round-trip\n"
      "description = every key once  # trailing comment\n"
      "\n"
      "[first]\n"
      "protocol = low-sensing\n"
      "arrivals = poisson:0.02,0\n"
      "jammer   = random:0.05,500\n"
      "jam-seed = 11\n"
      "seed     = 42\n"
      "budget   = 9000\n"
      "horizon  = 20000\n"
      "shards   = 2\n"
      "window   = 2000\n"
      "warmup   = 2\n"
      "digest   = 0123456789abcdef\n"
      "expect   = throughput >= 0.01\n"
      "expect   = steady_peak_backlog <= 64\n"
      "expect   = drained\n"
      "\n"
      "[second]\n"
      "protocol = beb\n"
      "arrivals = batch:32\n"
      "budget   = 5000\n");
  EXPECT_EQ(pack.name, "round-trip");
  EXPECT_EQ(pack.description, "every key once");
  ASSERT_EQ(pack.entries.size(), 2u);

  const PackEntry& e = pack.entries[0];
  EXPECT_EQ(e.name, "first");
  EXPECT_EQ(e.protocol, "low-sensing");
  EXPECT_EQ(e.arrivals, "poisson:0.02,0");
  EXPECT_EQ(e.jammer, "random:0.05,500");
  EXPECT_EQ(e.jam_seed, 11u);
  EXPECT_EQ(e.seed, 42u);
  EXPECT_EQ(e.budget, 9000u);
  EXPECT_EQ(e.horizon, 20000u);
  EXPECT_EQ(e.shards, 2u);
  EXPECT_EQ(e.window, 2000u);
  EXPECT_EQ(e.warmup, 2u);
  EXPECT_EQ(e.digest, "0123456789abcdef");
  ASSERT_EQ(e.expects.size(), 3u);
  EXPECT_EQ(e.expects[0].metric, "throughput");
  EXPECT_EQ(e.expects[0].op, PackExpectation::Op::kGe);
  EXPECT_DOUBLE_EQ(e.expects[0].value, 0.01);
  EXPECT_EQ(e.expects[1].metric, "steady_peak_backlog");
  EXPECT_EQ(e.expects[1].op, PackExpectation::Op::kLe);
  EXPECT_DOUBLE_EQ(e.expects[1].value, 64.0);
  EXPECT_EQ(e.expects[2].metric, "drained");
  EXPECT_EQ(e.expects[2].op, PackExpectation::Op::kTruthy);

  // Unset keys keep their documented defaults.
  const PackEntry& e2 = pack.entries[1];
  EXPECT_EQ(e2.jammer, "none");
  EXPECT_EQ(e2.jam_seed, 0u);
  EXPECT_EQ(e2.seed, 1u);
  EXPECT_EQ(e2.horizon, 0u);
  EXPECT_EQ(e2.shards, 0u);
  EXPECT_EQ(e2.window, 0u);
  EXPECT_TRUE(e2.digest.empty());
  EXPECT_TRUE(e2.expects.empty());

  EXPECT_EQ(pack.find("second"), &pack.entries[1]);
  EXPECT_EQ(pack.find("nope"), nullptr);
}

TEST(ScenarioPackParse, PinnedShardsLockTheScenario) {
  const ScenarioPack pack = parse_ok(
      "[pinned]\n"
      "protocol = lsb\n"
      "arrivals = batch:8\n"
      "shards   = 3\n"
      "budget   = 100\n"
      "\n"
      "[free]\n"
      "protocol = lsb\n"
      "arrivals = batch:8\n"
      "budget   = 100\n");
  const Scenario pinned = make_pack_scenario(pack.entries[0]);
  EXPECT_TRUE(pinned.shards_locked);
  EXPECT_EQ(pinned.config.shards, 3u);
  EXPECT_FALSE(pinned.engine_locked);  // packs are engine-invariant
  const Scenario free_entry = make_pack_scenario(pack.entries[1]);
  EXPECT_FALSE(free_entry.shards_locked);
}

// ------------------------------------------------- eager rejection lanes

TEST(ScenarioPackReject, UnknownKeyCarriesOriginAndLine) {
  const std::string err = parse_error(
      "[a]\n"
      "protocol = lsb\n"
      "bogus    = 1\n");
  EXPECT_NE(err.find("test.pack:3"), std::string::npos) << err;
  EXPECT_NE(err.find("unknown key 'bogus'"), std::string::npos) << err;
}

TEST(ScenarioPackReject, UnknownProtocol) {
  const std::string err = parse_error(
      "[a]\n"
      "protocol = warp-drive\n"
      "arrivals = batch:8\n"
      "budget   = 100\n");
  EXPECT_NE(err.find("test.pack:2: unknown protocol 'warp-drive'"), std::string::npos) << err;
}

TEST(ScenarioPackReject, MalformedArrivalsSpec) {
  const std::string err = parse_error(
      "[a]\n"
      "protocol = lsb\n"
      "arrivals = poisson:not-a-rate\n"
      "budget   = 100\n");
  EXPECT_NE(err.find("malformed arrivals spec"), std::string::npos) << err;
}

TEST(ScenarioPackReject, MalformedJammerSpec) {
  const std::string err = parse_error(
      "[a]\n"
      "protocol = lsb\n"
      "arrivals = batch:8\n"
      "jammer   = sometimes\n"
      "budget   = 100\n");
  EXPECT_NE(err.find("malformed jammer spec"), std::string::npos) << err;
}

// Numbers inside arrival and jammer specs are parsed whole: an exponent
// in an integer, a sign on a count, a space, or a trailing character is
// an error — not a truncation ("batch:1e3" -> 1 packet), a wrap
// ("batch:-1" -> 2^64-1 packets), or a prefix ("random:0.3x" -> 0.3).
// Values the constructors reject are errors at parse time too, not an
// exception when the run starts. An empty argument (a trailing comma) is
// an error, not a missing optional one.
const char* const kBadArrivals[] = {
    "batch:1e3",           "batch:-1",           "batch:+5",
    "batch: 5",            "poisson:0.05x,100",  "poisson:0.05,1e2",
    "aqt:0.5,8x,front,10", "aqt:0.5,8,front,-1", "batch:18446744073709551616",
    "poisson:0,100",       "aqt:2,8,front,10",   "aqt:0.5,1,front,10",
    "batch:8,",
};
const char* const kBadJammers[] = {
    "random:0.3x",  "random:0.3,-1", "random: 0.3", "burst:10,2.5",
    "victim:1e2,5", "blanket:-3",    "band:0,1x,5", "randband:0,1,0.5,10,0.1z",
    "randband:0,1,0.5,1.5", "random:1.5", "band:2,1,5", "random:0.3,",
    "randband:0.1,0.5,0.3,,",
};

TEST(SpecNumbers, SpecParsersRejectLooseNumbersAndBadValues) {
  for (const char* spec : kBadArrivals) EXPECT_FALSE(parse_arrivals_spec(spec)) << spec;
  for (const char* spec : kBadJammers) EXPECT_FALSE(parse_jammer_spec(spec)) << spec;
  // Their well-formed neighbours still parse.
  for (const char* spec :
       {"batch:1000", "poisson:0.05,100", "poisson:5e-2,0", "aqt:0.5,8,front,10"}) {
    EXPECT_TRUE(parse_arrivals_spec(spec)) << spec;
  }
  for (const char* spec : {"random:0.3", "random:3e-1,100", "burst:10,2", "victim:100,5",
                           "blanket:3", "band:0,1.5,5", "randband:0,1,0.5,10,0.1"}) {
    EXPECT_TRUE(parse_jammer_spec(spec)) << spec;
  }
}

TEST(SpecNumbers, WholeStringParsersRejectPartialAndOutOfRangeInput) {
  std::uint64_t u = 7;
  double d = 7.0;
  EXPECT_TRUE(parse_u64_full("18446744073709551615", &u));
  EXPECT_EQ(u, 18446744073709551615ULL);
  for (const char* text : {"", "-1", "+1", " 1", "1 ", "1e3", "0x10", "18446744073709551616"}) {
    u = 7;
    EXPECT_FALSE(parse_u64_full(text, &u)) << "'" << text << "'";
    EXPECT_EQ(u, 7u) << "'" << text << "'";
  }
  EXPECT_TRUE(parse_f64_full("1e3", &d));
  EXPECT_EQ(d, 1000.0);
  for (const char* text : {"", "0.3x", " 0.3", "0.3 ", "1e999", "."}) {
    d = 7.0;
    EXPECT_FALSE(parse_f64_full(text, &d)) << "'" << text << "'";
    EXPECT_EQ(d, 7.0) << "'" << text << "'";
  }
}

TEST(SpecNumbers, PackWithABadSpecFailsToLoadAtItsEntry) {
  // The bad entry is the second one, so the position must be the bad
  // key's own line (arrivals on test.pack:7, jammer on test.pack:8), not
  // the start of the file or the entry's header.
  const std::string ok_entry =
      "[ok]\n"
      "protocol = lsb\n"
      "arrivals = batch:8\n"
      "budget   = 100\n";
  for (const char* spec : kBadArrivals) {
    const std::string err = parse_error(ok_entry +
                                        "[bad]\n"
                                        "protocol = lsb\n"
                                        "arrivals = " +
                                        spec + "\nbudget   = 100\n");
    EXPECT_NE(err.find("test.pack:7: malformed arrivals spec '" + std::string(spec) + "'"),
              std::string::npos)
        << err;
  }
  for (const char* spec : kBadJammers) {
    const std::string err = parse_error(ok_entry +
                                        "[bad]\n"
                                        "protocol = lsb\n"
                                        "arrivals = batch:8\n"
                                        "jammer   = " +
                                        spec + "\nbudget   = 100\n");
    EXPECT_NE(err.find("test.pack:8: malformed jammer spec '" + std::string(spec) + "'"),
              std::string::npos)
        << err;
  }
}

TEST(ScenarioPackReject, OpenEndedRunNeedsBudgetOrHorizon) {
  const std::string err = parse_error(
      "[a]\n"
      "protocol = lsb\n"
      "arrivals = batch:8\n");
  EXPECT_NE(err.find("needs a budget or a horizon"), std::string::npos) << err;
}

TEST(ScenarioPackReject, DigestMustBeSixteenLowercaseHex) {
  for (const char* bad : {"0123", "0123456789ABCDEF", "0123456789abcdefg"}) {
    const std::string err = parse_error(std::string("[a]\n"
                                                    "protocol = lsb\n"
                                                    "arrivals = batch:8\n"
                                                    "budget   = 100\n"
                                                    "digest   = ") +
                                        bad + "\n");
    EXPECT_NE(err.find("16 lowercase hex"), std::string::npos) << bad << ": " << err;
  }
}

TEST(ScenarioPackReject, SteadyExpectationNeedsWindow) {
  const std::string err = parse_error(
      "[a]\n"
      "protocol = lsb\n"
      "arrivals = batch:8\n"
      "budget   = 100\n"
      "expect   = steady_rate >= 0.1\n");
  EXPECT_NE(err.find("needs a window"), std::string::npos) << err;
}

TEST(ScenarioPackReject, WarmupWithoutWindow) {
  const std::string err = parse_error(
      "[a]\n"
      "protocol = lsb\n"
      "arrivals = batch:8\n"
      "budget   = 100\n"
      "warmup   = 2\n");
  EXPECT_NE(err.find("warmup without a window"), std::string::npos) << err;
}

TEST(ScenarioPackReject, UnknownExpectMetric) {
  const std::string err = parse_error(
      "[a]\n"
      "protocol = lsb\n"
      "arrivals = batch:8\n"
      "budget   = 100\n"
      "expect   = vibes >= 1\n");
  EXPECT_NE(err.find("unknown metric 'vibes'"), std::string::npos) << err;
}

TEST(ScenarioPackReject, BadNumber) {
  const std::string err = parse_error(
      "[a]\n"
      "protocol = lsb\n"
      "arrivals = batch:8\n"
      "budget   = lots\n");
  EXPECT_NE(err.find("test.pack:4"), std::string::npos) << err;
  EXPECT_NE(err.find("bad number 'lots'"), std::string::npos) << err;
}

TEST(ScenarioPackReject, DuplicateScenarioName) {
  const std::string err = parse_error(
      "[a]\n"
      "protocol = lsb\n"
      "arrivals = batch:8\n"
      "budget   = 100\n"
      "[a]\n"
      "protocol = lsb\n");
  EXPECT_NE(err.find("duplicate scenario 'a'"), std::string::npos) << err;
}

TEST(ScenarioPackReject, KeyBeforeAnySection) {
  const std::string err = parse_error("protocol = lsb\n");
  EXPECT_NE(err.find("before any [scenario] section"), std::string::npos) << err;
}

TEST(ScenarioPackReject, EmptyPackHasNoScenarios) {
  const std::string err = parse_error("# just a comment\n");
  EXPECT_NE(err.find("no scenarios"), std::string::npos) << err;
}

// ---------------------------------------------- digest engine invariance

TEST(ScenarioPackDigest, StableAcrossEngineAndShardGrid) {
  const ScenarioPack pack = parse_ok(
      "[probe]\n"
      "protocol = low-sensing\n"
      "arrivals = poisson:0.05,600\n"
      "jammer   = random:0.05,2000\n"
      "jam-seed = 7\n"
      "seed     = 12\n"
      "budget   = 30000\n"
      "window   = 4000\n"
      "warmup   = 1\n");
  const PackEntry& entry = pack.entries[0];

  std::vector<std::string> digests;
  std::vector<std::string> manifests;
  for (const EngineKind engine : {EngineKind::kSlot, EngineKind::kEvent}) {
    for (const unsigned shards : {1u, 4u}) {
      const PackEntryOutcome out = run_pack_entry(
          entry, [&](Scenario sc, std::uint64_t seed, const std::vector<Observer*>& obs) {
            if (!sc.engine_locked) sc.engine = engine;
            if (!sc.shards_locked) sc.config.shards = shards;
            return run_scenario(sc, seed, obs);
          });
      EXPECT_GT(out.digest_events, 0u);
      EXPECT_TRUE(out.has_steady);
      digests.push_back(out.digest);
      manifests.push_back(out.manifest_line("grid"));
    }
  }
  ASSERT_EQ(digests.size(), 4u);
  for (std::size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i], digests[0]) << "combination " << i << " drifted";
    // Manifest lines carry only engine/shard-invariant fields, so they
    // must match byte for byte — the same property pack-verify CIs.
    EXPECT_EQ(manifests[i], manifests[0]) << "combination " << i << " drifted";
  }
}

// ------------------------------------------------------- golden fixture

TEST(ScenarioPackGolden, CheckedInFixtureDigestHolds) {
  ScenarioPack pack;
  std::string error;
  ASSERT_TRUE(load_scenario_pack(golden_path("golden_scenario.pack"), &pack, &error)) << error;
  ASSERT_FALSE(pack.entries.empty());
  for (const PackEntry& entry : pack.entries) {
    ASSERT_FALSE(entry.digest.empty()) << entry.name << ": fixture entries must pin a digest";
    const PackEntryOutcome out = run_pack_entry(
        entry, [](Scenario sc, std::uint64_t seed, const std::vector<Observer*>& obs) {
          return run_scenario(sc, seed, obs);
        });
    EXPECT_TRUE(out.digest_ok) << entry.name << ": digest " << out.digest << " != pinned "
                               << out.expected_digest
                               << " (an intentional behavior change must re-pin the fixture)";
    EXPECT_TRUE(out.ok()) << entry.name;
    for (const auto& [text, pass] : out.expect_results) {
      EXPECT_TRUE(pass) << entry.name << ": expect " << text;
    }
  }
}

TEST(ScenarioPackGolden, RefFilterSelectsOneEntry) {
  ScenarioPack pack;
  std::string error;
  ASSERT_TRUE(
      load_scenario_pack_ref(golden_path("golden_scenario.pack") + ":golden-lsb", &pack, &error))
      << error;
  ASSERT_EQ(pack.entries.size(), 1u);
  EXPECT_EQ(pack.entries[0].name, "golden-lsb");

  ScenarioPack missing;
  EXPECT_FALSE(
      load_scenario_pack_ref(golden_path("golden_scenario.pack") + ":nope", &missing, &error));
  EXPECT_NE(error.find("no scenario 'nope'"), std::string::npos) << error;
}

// ------------------------------------------------------ sink reporting

// run_scenario_pack reports one lowsense-bench/v1 scenario per entry and
// one check per pinned digest and per `expect` (what lowsense_cli --json=
// writes in pack mode); a failed check flips "passed" and the outcome.
TEST(ScenarioPackReport, OneScenarioPerEntryWithItsDigestAndExpectChecks) {
  const PackRunner runner = [](Scenario sc, std::uint64_t seed, const std::vector<Observer*>& obs) {
    return run_scenario(sc, seed, obs);
  };
  const struct {
    const char* file;
    std::vector<const char*> needles;
    bool passed;
  } cases[] = {
      {"golden_scenario.pack",
       {"\"name\":\"golden-lsb\",\"section\":\"pack: golden-fixture\"",
        "\"name\":\"golden-beb-poisson\"", "\"engine\":\"slot\",\"reps\":1",
        "\"what\":\"golden-lsb: digest\",\"pass\":true,\"detail\":\"got 1ab883aa32a06418\"",
        "\"what\":\"golden-lsb: drained\",\"pass\":true",
        "\"what\":\"golden-beb-poisson: departures >= 1\",\"pass\":true",
        "\"steady_rate\":"},
       true},
      {"failing_checks.pack",
       {"\"name\":\"wrong-digest\"", "\"name\":\"failing-expect\"",
        "\"what\":\"wrong-digest: digest\",\"pass\":false,\"detail\":\"got ",
        " want 0000000000000000\"",
        "\"what\":\"failing-expect: departures >= 17\",\"pass\":false"},
       false},
  };
  for (const auto& c : cases) {
    ScenarioPack pack;
    std::string error;
    ASSERT_TRUE(load_scenario_pack(golden_path(c.file), &pack, &error)) << error;
    JsonSink json("", /*include_timing=*/false);
    json.begin({});
    json.section("pack: " + pack.name);
    const std::vector<PackEntryOutcome> outcomes =
        run_scenario_pack(pack, runner, EngineKind::kSlot, {&json});
    json.end(0.0);

    ASSERT_EQ(outcomes.size(), pack.entries.size());
    const std::string& doc = json.rendered();
    for (const char* needle : c.needles) {
      EXPECT_NE(doc.find(needle), std::string::npos) << c.file << ": missing " << needle << "\n"
                                                     << doc;
    }
    EXPECT_NE(doc.find(c.passed ? "\"passed\":true" : "\"passed\":false"), std::string::npos)
        << doc;
    for (const PackEntryOutcome& o : outcomes) EXPECT_EQ(o.ok(), c.passed) << o.scenario;
  }
}

}  // namespace
}  // namespace lowsense
