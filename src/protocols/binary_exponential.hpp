// Binary exponential backoff (Metcalfe–Boggs [124]) in its probability
// form: a packet with window w sends with probability 1/w in each slot and
// doubles w after every collision. It is *oblivious* — it never listens,
// learning only from its own transmission outcomes — which is exactly why
// its batch throughput degrades to O(1/ln N) [23]; bench T1 reproduces
// that decay against LOW-SENSING BACKOFF.
#pragma once

#include "protocols/protocol.hpp"

namespace lowsense {

struct BinaryExponentialParams {
  double initial_window = 2.0;
  double growth = 2.0;          ///< multiplicative factor per collision
  double max_window = 0.0;      ///< 0 = uncapped; >0 = Ethernet-style cap
};

class BinaryExponentialBackoff final : public BuiltinProtocol<BinaryExponentialBackoff> {
 public:
  explicit BinaryExponentialBackoff(const BinaryExponentialParams& params = {});

  /// BEB accesses the channel only to send: access == send.
  double access_prob() const noexcept override { return 1.0 / w_; }
  double send_prob_given_access() const noexcept override { return 1.0; }
  void on_observation(const Observation& obs) override;
  double window() const noexcept override { return w_; }
  const char* name() const noexcept override { return "binary-exponential"; }

 private:
  BinaryExponentialParams params_;
  double w_;
};

class BinaryExponentialFactory final : public BuiltinFactory<BinaryExponentialBackoff> {
 public:
  explicit BinaryExponentialFactory(const BinaryExponentialParams& params = {})
      : params_(params) {}
  std::unique_ptr<Protocol> create() const override;
  std::string name() const override {
    return params_.max_window > 0 ? "capped-exponential" : "binary-exponential";
  }

 private:
  BinaryExponentialParams params_;
};

}  // namespace lowsense
