// Full-sensing multiplicative-weights backoff, in the style of Chang, Jin,
// and Pettie [36]: the packet LISTENS IN EVERY SLOT (the short feedback
// loop) and multiplicatively adjusts its window on every observation —
// silence shrinks the window, noise grows it. It achieves Θ(1) throughput
// under adversarial arrivals, but a packet alive for t slots pays t channel
// accesses: sending-efficient, not listening-efficient. This is the main
// short-feedback-loop contrast for the energy experiments (T2, T3).
#pragma once

#include "protocols/protocol.hpp"

namespace lowsense {

struct MwFullSensingParams {
  double w_min = 2.0;
  double growth = 2.0;  ///< window multiplier on noise, divisor on silence
};

class MwFullSensing final : public BuiltinProtocol<MwFullSensing> {
 public:
  explicit MwFullSensing(const MwFullSensingParams& params = {});

  double access_prob() const noexcept override { return 1.0; }  // every slot
  double send_prob_given_access() const noexcept override { return 1.0 / w_; }
  void on_observation(const Observation& obs) override;
  double window() const noexcept override { return w_; }
  const char* name() const noexcept override { return "mw-full-sensing"; }

 private:
  MwFullSensingParams params_;
  double w_;
};

class MwFullSensingFactory final : public BuiltinFactory<MwFullSensing> {
 public:
  explicit MwFullSensingFactory(const MwFullSensingParams& params = {}) : params_(params) {}
  std::unique_ptr<Protocol> create() const override;
  std::string name() const override { return "mw-full-sensing"; }

 private:
  MwFullSensingParams params_;
};

}  // namespace lowsense
