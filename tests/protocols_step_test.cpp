// Protocol::step bit-identity: every built-in protocol's devirtualized
// step (BuiltinProtocol) must equal the interface's default sequence —
// on_observation, window, access_prob × send_prob_given_access, draw_gap —
// bit for bit, on the same observations and same-seeded gap streams.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "protocols/binary_exponential.hpp"
#include "protocols/low_sensing.hpp"
#include "protocols/registry.hpp"
#include "protocols/windowed_ethernet.hpp"

namespace lowsense {
namespace {

struct Case {
  std::string label;
  std::shared_ptr<ProtocolFactory> factory;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  for (std::string name : protocol_names()) {
    if (name == "aloha:<p>") name = "aloha:0.01";
    std::shared_ptr<ProtocolFactory> f = make_protocol(name);
    if (f) out.push_back({name, f});
  }
  auto lsb = [&](const std::string& label, auto&& tweak) {
    LowSensingParams p;
    tweak(p);
    out.push_back({label, std::make_shared<LowSensingFactory>(p)});
  };
  lsb("lsb/no-collision-detection", [](LowSensingParams& p) { p.no_collision_detection = true; });
  lsb("lsb/no-floor", [](LowSensingParams& p) { p.backon_floor = false; });
  for (int e : {0, 3, 8}) {
    // e = 8 at the default w_min clamps the listen probability to 1.
    lsb("lsb/listen-exponent-" + std::to_string(e),
        [e](LowSensingParams& p) { p.listen_exponent = e; });
  }
  BinaryExponentialParams capped;
  capped.max_window = 64.0;
  out.push_back({"beb/capped-64", std::make_shared<BinaryExponentialFactory>(capped)});
  WindowedEthernetParams eth;
  eth.max_attempts = 5;  // the gap becomes kNoSlot after five collisions
  out.push_back({"ethernet/max-attempts-5", std::make_shared<WindowedEthernetFactory>(eth)});
  return out;
}

void expect_bit_equal(const ProtocolStep& a, const ProtocolStep& b, const std::string& where) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.window), std::bit_cast<std::uint64_t>(b.window))
      << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.send_prob), std::bit_cast<std::uint64_t>(b.send_prob))
      << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.send_given_access),
            std::bit_cast<std::uint64_t>(b.send_given_access))
      << where;
  EXPECT_EQ(a.gap, b.gap) << where;
}

TEST(ProtocolStep, BuiltinStepEqualsDefaultSequenceBitForBit) {
  // Fresh pairs every kEpisode observations, so both the early windows
  // and long random walks (windows far from w_min, aborted Ethernet
  // stations, overflowing BEB windows) are covered.
  constexpr int kEpisodes = 40;
  constexpr int kEpisode = 256;
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.label);
    Rng feedback(0x5eed);
    bool saw_no_slot = false;
    const bool memoryless = c.factory->name() != "windowed-ethernet";
    for (int ep = 0; ep < kEpisodes; ++ep) {
      std::unique_ptr<Protocol> fast = c.factory->create();
      std::unique_ptr<Protocol> twin = c.factory->create();
      Rng fast_rng = Rng::stream(17, static_cast<std::uint64_t>(ep));
      Rng twin_rng = Rng::stream(17, static_cast<std::uint64_t>(ep));
      Rng plain_rng = Rng::stream(17, static_cast<std::uint64_t>(ep));
      for (int i = 0; i < kEpisode; ++i) {
        const Observation obs{static_cast<Feedback>(feedback.next_below(3)),
                              feedback.next_below(2) == 1};
        ProtocolStep a;
        ProtocolStep b;
        fast->step(obs, fast_rng, &a);
        twin->Protocol::step(obs, twin_rng, &b);
        saw_no_slot |= a.gap == kNoSlot;
        const std::string where = "episode " + std::to_string(ep) + " step " + std::to_string(i);
        expect_bit_equal(a, b, where);
        // A cached log (LowSensingBackoff) must not move the plain
        // geometric draw of access_prob().
        if (memoryless) {
          EXPECT_EQ(a.gap, plain_rng.geometric_gap(twin->access_prob())) << where;
        }
        if (::testing::Test::HasFailure()) return;
      }
    }
    if (c.label == "ethernet/max-attempts-5") {
      EXPECT_TRUE(saw_no_slot);  // the abort path ran
    }
  }
}

TEST(ProtocolStep, SettleReportsTheFreshState) {
  // settle() is step() without an observation: injection's read of a new
  // packet. It must agree with the individual queries.
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.label);
    std::unique_ptr<Protocol> p = c.factory->create();
    Rng rng(3);
    Rng twin(3);
    ProtocolStep s;
    p->settle(rng, &s);
    EXPECT_EQ(s.window, p->window());
    EXPECT_EQ(s.send_prob, p->send_prob());
    EXPECT_EQ(s.send_given_access, p->send_prob_given_access());
    EXPECT_EQ(s.gap, p->draw_gap(twin));
  }
}

TEST(ProtocolStep, LowSensingFactoryCopiesAFreshState) {
  // create() copies a precomputed state; it must be the state a freshly
  // constructed LowSensingBackoff has.
  LowSensingParams params;
  params.c = 0.75;
  params.w_min = 40.0;
  LowSensingFactory factory(params);
  const std::unique_ptr<Protocol> made = factory.create();
  const LowSensingBackoff direct(params);
  EXPECT_EQ(made->window(), direct.window());
  EXPECT_EQ(made->access_prob(), direct.access_prob());
  EXPECT_EQ(made->send_prob_given_access(), direct.send_prob_given_access());
  EXPECT_EQ(factory.params().w_min, 40.0);
}

}  // namespace
}  // namespace lowsense
