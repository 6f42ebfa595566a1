// Slow (sub-exponential) oblivious backoff: LOW-SENSING BACKOFF's gentle
// multiplicative update 1 + 1/(c·ln w), but applied blindly on every
// collision with no listening and no back-on. This isolates the role of
// sensing: same growth rate as LSB, yet without the feedback loop it can
// neither recover from over-backoff nor stabilize throughput. Used by the
// ablation bench (T9).
#pragma once

#include "protocols/protocol.hpp"

namespace lowsense {

struct SlowBackoffParams {
  double c = 0.5;
  double initial_window = 16.0;
};

class SlowBackoff final : public BuiltinProtocol<SlowBackoff> {
 public:
  explicit SlowBackoff(const SlowBackoffParams& params = {});

  double access_prob() const noexcept override { return 1.0 / w_; }
  double send_prob_given_access() const noexcept override { return 1.0; }
  void on_observation(const Observation& obs) override;
  double window() const noexcept override { return w_; }
  const char* name() const noexcept override { return "slow-oblivious"; }

 private:
  SlowBackoffParams params_;
  double w_;
};

class SlowBackoffFactory final : public BuiltinFactory<SlowBackoff> {
 public:
  explicit SlowBackoffFactory(const SlowBackoffParams& params = {}) : params_(params) {}
  std::unique_ptr<Protocol> create() const override;
  std::string name() const override { return "slow-oblivious"; }

 private:
  SlowBackoffParams params_;
};

}  // namespace lowsense
