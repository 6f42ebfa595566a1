// Fixed-probability sender ("genie-aided slotted ALOHA"): sends with a
// constant probability p every slot and never adapts. With p = 1/N on a
// batch of N packets this is the classical slotted-ALOHA benchmark whose
// throughput tends to 1/e [33] — the best-case reference line for T1.
#pragma once

#include "protocols/protocol.hpp"

namespace lowsense {

class FixedProbability final : public BuiltinProtocol<FixedProbability> {
 public:
  explicit FixedProbability(double p) : p_(p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p)) {}

  double access_prob() const noexcept override { return p_; }
  double send_prob_given_access() const noexcept override { return 1.0; }
  void on_observation(const Observation&) override {}  // oblivious by design
  double window() const noexcept override { return p_ > 0.0 ? 1.0 / p_ : 1e18; }
  const char* name() const noexcept override { return "fixed-probability"; }

 private:
  double p_;
};

class FixedProbabilityFactory final : public BuiltinFactory<FixedProbability> {
 public:
  explicit FixedProbabilityFactory(double p) : p_(p) {}
  std::unique_ptr<Protocol> create() const override {
    return std::make_unique<FixedProbability>(p_);
  }
  std::string name() const override { return "aloha-genie"; }

 private:
  double p_;
};

}  // namespace lowsense
