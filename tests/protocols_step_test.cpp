// Protocol::step bit-identity: every built-in protocol's devirtualized
// step (BuiltinProtocol) must equal the interface's default sequence —
// on_observation, window, access_prob × send_prob_given_access, draw_gap —
// bit for bit, on the same observations and same-seeded gap streams; and
// every factory's step_batch (the built-ins' loop-split BuiltinFactory
// override, and the default a wrapper keeps) must equal one step per
// object, protocol state and gap streams included.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "protocols/binary_exponential.hpp"
#include "protocols/fixed_probability.hpp"
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
  // The gap's draw-free ends: p >= 1 (gap 1) and p <= 0 (never).
  out.push_back({"aloha/p-1", std::make_shared<FixedProbabilityFactory>(1.0)});
  out.push_back({"aloha/p-0", std::make_shared<FixedProbabilityFactory>(0.0)});
  return out;
}

/// Forwards every query to a built-in's object; keeps the default step()
/// and step_batch(), as a tracing wrapper does.
class Forwarding final : public Protocol {
 public:
  explicit Forwarding(std::unique_ptr<Protocol> inner) : inner_(std::move(inner)) {}
  double access_prob() const noexcept override { return inner_->access_prob(); }
  double send_prob_given_access() const noexcept override {
    return inner_->send_prob_given_access();
  }
  void on_observation(const Observation& obs) override { inner_->on_observation(obs); }
  double window() const noexcept override { return inner_->window(); }
  const char* name() const noexcept override { return inner_->name(); }
  std::uint64_t draw_gap(Rng& rng) const override { return inner_->draw_gap(rng); }

 private:
  std::unique_ptr<Protocol> inner_;
};

class ForwardingFactory final : public ProtocolFactory {
 public:
  explicit ForwardingFactory(std::shared_ptr<ProtocolFactory> inner) : inner_(std::move(inner)) {}
  std::unique_ptr<Protocol> create() const override {
    return std::make_unique<Forwarding>(inner_->create());
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<ProtocolFactory> inner_;
};

/// The next draw of a copy: equal for equal stream states.
std::uint64_t peek(const Rng& rng) {
  Rng copy = rng;
  return copy.next_u64();
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

TEST(ProtocolStep, StepBatchEqualsPerObjectStepBitForBit) {
  // A population stepped in batches against a twin population stepped
  // one object at a time through the interface's default step(). Batch
  // sizes cross the kStepChunk boundaries; each round's feedback is
  // mixed across the batch, and some rounds hear only silence, which
  // pins LSB windows at the floor.
  constexpr int kRounds = 300;
  const std::size_t sizes[] = {1, 31, 32, 33, 96};
  std::vector<Case> all = cases();
  for (std::size_t i = 0, n = all.size(); i < n; ++i) {
    all.push_back({"forwarding/" + all[i].label,
                   std::make_shared<ForwardingFactory>(all[i].factory)});
  }
  for (const Case& c : all) {
    SCOPED_TRACE(c.label);
    for (const std::size_t n : sizes) {
      SCOPED_TRACE("batch of " + std::to_string(n));
      std::vector<std::unique_ptr<Protocol>> batched;
      std::vector<std::unique_ptr<Protocol>> twins;
      std::vector<Rng> batched_rngs;
      std::vector<Rng> twin_rngs;
      for (std::size_t k = 0; k < n; ++k) {
        batched.push_back(c.factory->create());
        twins.push_back(c.factory->create());
        batched_rngs.push_back(Rng::stream(23, k));
        twin_rngs.push_back(Rng::stream(23, k));
      }
      Rng feedback(0xfeed + n);
      std::vector<StepItem> items(n);
      for (int round = 0; round < kRounds; ++round) {
        const bool silent = round % 7 == 3;
        for (std::size_t k = 0; k < n; ++k) {
          const auto fb = silent ? Feedback::kEmpty : static_cast<Feedback>(feedback.next_below(3));
          items[k] = StepItem{batched[k].get(), &batched_rngs[k],
                              Observation{fb, feedback.next_below(2) == 1}, {}};
        }
        c.factory->step_batch(items);
        for (std::size_t k = 0; k < n; ++k) {
          ProtocolStep want;
          twins[k]->Protocol::step(items[k].obs, twin_rngs[k], &want);
          const std::string where = "round " + std::to_string(round) + " item " + std::to_string(k);
          expect_bit_equal(items[k].out, want, where);
          EXPECT_EQ(peek(batched_rngs[k]), peek(twin_rngs[k])) << where;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(batched[k]->access_prob()),
                    std::bit_cast<std::uint64_t>(twins[k]->access_prob()))
              << where;
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

TEST(ProtocolStep, LowSensingWindowFollowsFigureOneBitForBit) {
  // A reference model of Fig. 1 that computes the factor on every
  // observation, heard successes included: skipping it where the window
  // cannot change must not move a bit, on either step path.
  for (const bool no_cd : {false, true}) {
    SCOPED_TRACE(no_cd ? "no collision detection" : "ternary feedback");
    LowSensingParams params;
    params.no_collision_detection = no_cd;
    const LowSensingFactory factory(params);
    std::unique_ptr<Protocol> single = factory.create();
    std::unique_ptr<Protocol> batched = factory.create();
    Rng single_rng(5);
    Rng batched_rng(5);
    Rng feedback(77);
    double w = params.w_min;
    for (int i = 0; i < 20000; ++i) {
      const auto fb = static_cast<Feedback>(feedback.next_below(3));
      const Observation obs{fb, false};
      const double factor = 1.0 + 1.0 / (params.c * std::max(std::log(w), 1.0));
      const bool back_on = no_cd ? fb == Feedback::kSuccess : fb == Feedback::kEmpty;
      const bool back_off = no_cd ? fb != Feedback::kSuccess : fb == Feedback::kNoisy;
      if (back_on) w = std::max(std::max(w / factor, params.w_min), 2.0);
      if (back_off) w *= factor;
      ProtocolStep a;
      single->step(obs, single_rng, &a);
      StepItem item{batched.get(), &batched_rng, obs, {}};
      factory.step_batch({&item, 1});
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.window), std::bit_cast<std::uint64_t>(w)) << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(item.out.window), std::bit_cast<std::uint64_t>(w))
          << i;
    }
  }
}

TEST(ProtocolStep, BuiltinStepBatchRejectsForeignObjectsInDebugBuilds) {
#ifdef NDEBUG
  GTEST_SKIP() << "the dynamic-type check is compiled out with NDEBUG";
#else
  // A wrapper that forwards step_batch to a built-in factory with its own
  // objects would have them statically cast to the built-in type.
  const LowSensingFactory lsb;
  const BinaryExponentialFactory beb;
  std::unique_ptr<Protocol> foreign = beb.create();
  Rng rng(1);
  StepItem item{foreign.get(), &rng, Observation{}, {}};
  EXPECT_DEATH(lsb.step_batch({&item, 1}), "typeid");
#endif
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
