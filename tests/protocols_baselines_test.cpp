// Unit tests for the baseline protocols and the registry.
#include <gtest/gtest.h>

#include <cmath>

#include "protocols/binary_exponential.hpp"
#include "protocols/fixed_probability.hpp"
#include "protocols/log_backoff.hpp"
#include "protocols/mw_full_sensing.hpp"
#include "protocols/polynomial_backoff.hpp"
#include "protocols/registry.hpp"

namespace lowsense {
namespace {

// ------------------------------------------------------------------- BEB

TEST(BinaryExponential, DoublesOnOwnCollisionOnly) {
  BinaryExponentialBackoff beb;
  const double w0 = beb.window();
  beb.on_observation({Feedback::kNoisy, false});  // overheard noise: ignore
  EXPECT_DOUBLE_EQ(beb.window(), w0);
  beb.on_observation({Feedback::kNoisy, true});  // own collision: double
  EXPECT_DOUBLE_EQ(beb.window(), 2.0 * w0);
  beb.on_observation({Feedback::kNoisy, true});
  EXPECT_DOUBLE_EQ(beb.window(), 4.0 * w0);
}

TEST(BinaryExponential, AccessEqualsSend) {
  BinaryExponentialBackoff beb;
  EXPECT_DOUBLE_EQ(beb.send_prob_given_access(), 1.0);
  EXPECT_DOUBLE_EQ(beb.access_prob(), 1.0 / beb.window());
  EXPECT_DOUBLE_EQ(beb.send_prob(), beb.access_prob());
}

TEST(BinaryExponential, NeverBacksOn) {
  BinaryExponentialBackoff beb;
  beb.on_observation({Feedback::kNoisy, true});
  const double w = beb.window();
  beb.on_observation({Feedback::kEmpty, false});
  beb.on_observation({Feedback::kSuccess, false});
  EXPECT_DOUBLE_EQ(beb.window(), w);  // oblivious: silence changes nothing
}

TEST(BinaryExponential, CapClampsWindow) {
  BinaryExponentialParams p;
  p.max_window = 8.0;
  BinaryExponentialBackoff beb(p);
  for (int i = 0; i < 10; ++i) beb.on_observation({Feedback::kNoisy, true});
  EXPECT_DOUBLE_EQ(beb.window(), 8.0);
}

TEST(BinaryExponential, CustomGrowthFactor) {
  BinaryExponentialParams p;
  p.growth = 1.5;
  BinaryExponentialBackoff beb(p);
  const double w0 = beb.window();
  beb.on_observation({Feedback::kNoisy, true});
  EXPECT_DOUBLE_EQ(beb.window(), 1.5 * w0);
}

// ------------------------------------------------------------ polynomial

TEST(PolynomialBackoff, WindowGrowsPolynomially) {
  PolynomialBackoffParams p;
  p.initial_window = 2.0;
  p.alpha = 2.0;
  PolynomialBackoff poly(p);
  EXPECT_DOUBLE_EQ(poly.window(), 2.0);
  for (int k = 1; k <= 5; ++k) {
    poly.on_observation({Feedback::kNoisy, true});
    EXPECT_DOUBLE_EQ(poly.window(), 2.0 * std::pow(k + 1, 2.0));
  }
}

TEST(PolynomialBackoff, IgnoresOverheardTraffic) {
  PolynomialBackoff poly;
  const double w = poly.window();
  poly.on_observation({Feedback::kNoisy, false});
  poly.on_observation({Feedback::kEmpty, false});
  EXPECT_DOUBLE_EQ(poly.window(), w);
}

// ------------------------------------------------------------------ slow

TEST(SlowBackoff, GrowsByLsbFactor) {
  SlowBackoffParams p;
  SlowBackoff sb(p);
  const double w0 = sb.window();
  const double factor = 1.0 + 1.0 / (p.c * std::log(w0));
  sb.on_observation({Feedback::kNoisy, true});
  EXPECT_NEAR(sb.window(), w0 * factor, 1e-12);
}

TEST(SlowBackoff, ObliviousToChannel) {
  SlowBackoff sb;
  const double w = sb.window();
  sb.on_observation({Feedback::kEmpty, false});
  sb.on_observation({Feedback::kNoisy, false});
  EXPECT_DOUBLE_EQ(sb.window(), w);
}

// ----------------------------------------------------------------- fixed

TEST(FixedProbability, ClampsAndNeverAdapts) {
  FixedProbability f(0.25);
  EXPECT_DOUBLE_EQ(f.access_prob(), 0.25);
  EXPECT_DOUBLE_EQ(f.window(), 4.0);
  f.on_observation({Feedback::kNoisy, true});
  f.on_observation({Feedback::kEmpty, false});
  EXPECT_DOUBLE_EQ(f.access_prob(), 0.25);

  FixedProbability hi(2.0);
  EXPECT_DOUBLE_EQ(hi.access_prob(), 1.0);
  FixedProbability lo(-1.0);
  EXPECT_DOUBLE_EQ(lo.access_prob(), 0.0);
}

// -------------------------------------------------------------------- MW

TEST(MwFullSensing, ListensEverySlot) {
  MwFullSensing mw;
  EXPECT_DOUBLE_EQ(mw.access_prob(), 1.0);
  mw.on_observation({Feedback::kNoisy, false});
  EXPECT_DOUBLE_EQ(mw.access_prob(), 1.0);  // still every slot
}

TEST(MwFullSensing, MultiplicativeUpdates) {
  MwFullSensingParams p;
  p.w_min = 2.0;
  p.growth = 2.0;
  MwFullSensing mw(p);
  EXPECT_DOUBLE_EQ(mw.window(), 2.0);
  mw.on_observation({Feedback::kNoisy, false});
  EXPECT_DOUBLE_EQ(mw.window(), 4.0);
  mw.on_observation({Feedback::kEmpty, false});
  EXPECT_DOUBLE_EQ(mw.window(), 2.0);
  mw.on_observation({Feedback::kEmpty, false});
  EXPECT_DOUBLE_EQ(mw.window(), 2.0);  // floored at w_min
  mw.on_observation({Feedback::kSuccess, false});
  EXPECT_DOUBLE_EQ(mw.window(), 2.0);  // success: unchanged
}

// -------------------------------------------------------------- registry

TEST(Registry, KnownNamesResolve) {
  for (const char* name : {"low-sensing", "lsb", "binary-exponential", "beb",
                           "capped-exponential", "polynomial", "slow-oblivious",
                           "mw-full-sensing", "mw", "aloha:0.1"}) {
    EXPECT_NE(make_protocol(name), nullptr) << name;
  }
}

TEST(Registry, UnknownNamesReturnNull) {
  EXPECT_EQ(make_protocol("nope"), nullptr);
  EXPECT_EQ(make_protocol("aloha:0"), nullptr);
  EXPECT_EQ(make_protocol("aloha:2.0"), nullptr);
  EXPECT_EQ(make_protocol(""), nullptr);
  // p is read as the whole rest of the name.
  for (const char* name : {"aloha:0.5x", "aloha:", "aloha: 0.5", "aloha:0.5 "}) {
    EXPECT_EQ(make_protocol(name), nullptr) << '"' << name << '"';
  }
}

TEST(Registry, FactoriesProduceWorkingProtocols) {
  for (const char* name : {"low-sensing", "beb", "polynomial", "mw"}) {
    auto factory = make_protocol(name);
    ASSERT_NE(factory, nullptr);
    auto proto = factory->create();
    ASSERT_NE(proto, nullptr);
    EXPECT_GT(proto->access_prob(), 0.0);
    EXPECT_LE(proto->access_prob(), 1.0);
  }
}

TEST(Registry, NameListNonEmpty) {
  EXPECT_GE(protocol_names().size(), 6u);
}

}  // namespace
}  // namespace lowsense
