// LOW-SENSING BACKOFF — the paper's contribution (Fig. 1).
//
// State: a single window size w, initialized to w_min on injection.
// Each slot, with probability  c·ln³(w)/w  the packet listens, and
// conditioned on listening it sends with probability  1/(c·ln³(w)) —
// so the unconditional send probability is exactly 1/w.
//
//   heard silence:  w ← max( w / (1 + 1/(c·ln w)), w_min )   (back on)
//   heard noise:    w ← w · (1 + 1/(c·ln w))                 (back off)
//   heard success:  w unchanged
//
// The ln³ factor is the "listen more often than you send" boost that buys
// full energy efficiency; `listen_exponent` exposes it for ablation
// (exponent 3 is the paper's choice).
#pragma once

#include "protocols/protocol.hpp"

namespace lowsense {

struct LowSensingParams {
  /// The paper's constant c ("sufficiently large"). Empirically small
  /// values give good constants; throughput is robust across ~an order of
  /// magnitude (see bench_t9_ablation_params).
  double c = 0.5;

  /// Minimum window w_min. Chosen so that c·ln^e(w_min) <= w_min, keeping
  /// the listen probability unclamped at the floor.
  double w_min = 16.0;

  /// Exponent e in the listen-probability boost c·ln^e(w)/w. Paper: 3.
  int listen_exponent = 3;

  /// If false, disables the w_min floor on back-on (ablation only;
  /// the paper's algorithm always floors).
  bool backon_floor = true;

  /// Ablation: simulate the no-collision-detection model of [28,40,62,
  /// 100], where a listener learns only "success" vs "no success" and
  /// cannot tell silence from noise. The only usable update rule is then
  /// back-on on success / back-off otherwise; once contention is low a
  /// lingering packet never hears successes and back-offs forever — the
  /// death spiral that motivates the paper's ternary-feedback model.
  bool no_collision_detection = false;

  bool valid() const noexcept;
};

class LowSensingBackoff final : public BuiltinProtocol<LowSensingBackoff> {
 public:
  explicit LowSensingBackoff(const LowSensingParams& params = {});

  double access_prob() const noexcept override { return listen_prob_; }
  double send_prob_given_access() const noexcept override { return send_given_listen_; }
  void on_observation(const Observation& obs) override;
  double window() const noexcept override { return w_; }
  const char* name() const noexcept override { return "low-sensing"; }
  /// The geometric gap of access_prob(), with ln(1 - p) cached.
  std::uint64_t draw_gap(Rng& rng) const override {
    return rng.geometric_gap(listen_prob_, log1m_listen_);
  }

  const LowSensingParams& params() const noexcept { return params_; }

  /// BuiltinProtocol::step_chunk with refresh_probs() and the gap split
  /// further: ln w, ln(1 - listen_prob) and the gap's ln U each run as
  /// their own pass over the chunk (at most kStepChunk items).
  static void step_chunk(std::span<StepItem> items);

 private:
  /// Fig. 1's window update for one observation; true iff w_ changed.
  bool update_window(const Observation& obs) noexcept;
  /// Recomputes everything derived from w_; called whenever w_ changes.
  void refresh_probs() noexcept;
  /// refresh_probs() given ln_w = std::log(w_), except log1m_listen_.
  void refresh_from_ln_w(double ln_w) noexcept;
  double ln_boost() const noexcept;  ///< ln^e(w), floored at 1

  LowSensingParams params_;
  double w_;
  double ln_w_ = 0.0;  ///< std::log(w_)
  double listen_prob_ = 0.0;
  double log1m_listen_ = 0.0;  ///< std::log1p(-listen_prob_)
  double send_given_listen_ = 0.0;
};

class LowSensingFactory final : public BuiltinFactory<LowSensingBackoff> {
 public:
  explicit LowSensingFactory(const LowSensingParams& params = {}) : initial_(params) {}
  /// A copy of one precomputed fresh state (w = w_min): the logs are
  /// taken once per factory, not once per packet.
  std::unique_ptr<Protocol> create() const override;
  std::string name() const override { return "low-sensing"; }
  const LowSensingParams& params() const noexcept { return initial_.params(); }

 private:
  LowSensingBackoff initial_;
};

}  // namespace lowsense
