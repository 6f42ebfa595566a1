// Polynomial backoff: after k collisions the send probability is
// 1/(w0·(k+1)^alpha). Like BEB it is oblivious (send-only). Polynomial
// backoff is known to be stable at higher arrival rates than BEB in the
// stochastic model but pays with higher delay; here it serves as a second
// oblivious baseline between BEB and fixed-probability ALOHA.
#pragma once

#include "protocols/protocol.hpp"

namespace lowsense {

struct PolynomialBackoffParams {
  double initial_window = 2.0;
  double alpha = 2.0;  ///< window growth exponent in the collision count
};

class PolynomialBackoff final : public BuiltinProtocol<PolynomialBackoff> {
 public:
  explicit PolynomialBackoff(const PolynomialBackoffParams& params = {});

  double access_prob() const noexcept override { return 1.0 / w_; }
  double send_prob_given_access() const noexcept override { return 1.0; }
  void on_observation(const Observation& obs) override;
  double window() const noexcept override { return w_; }
  const char* name() const noexcept override { return "polynomial"; }

 private:
  void refresh() noexcept;

  PolynomialBackoffParams params_;
  std::uint64_t collisions_ = 0;
  double w_;
};

class PolynomialBackoffFactory final : public BuiltinFactory<PolynomialBackoff> {
 public:
  explicit PolynomialBackoffFactory(const PolynomialBackoffParams& params = {})
      : params_(params) {}
  std::unique_ptr<Protocol> create() const override;
  std::string name() const override { return "polynomial"; }

 private:
  PolynomialBackoffParams params_;
};

}  // namespace lowsense
