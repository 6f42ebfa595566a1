#include "protocols/low_sensing.hpp"

#include <algorithm>
#include <cmath>

namespace lowsense {

bool LowSensingParams::valid() const noexcept {
  if (!(c > 0.0)) return false;
  if (!(w_min > 2.0)) return false;
  if (listen_exponent < 0 || listen_exponent > 8) return false;
  return true;
}

LowSensingBackoff::LowSensingBackoff(const LowSensingParams& params)
    : params_(params), w_(params.w_min) {
  refresh_probs();
}

double LowSensingBackoff::ln_boost() const noexcept {
  double b = 1.0;
  for (int i = 0; i < params_.listen_exponent; ++i) b *= ln_w_;
  return std::max(b, 1.0);
}

void LowSensingBackoff::refresh_probs() noexcept {
  ln_w_ = std::log(w_);
  const double boost = params_.c * ln_boost();
  listen_prob_ = std::min(boost / w_, 1.0);
  log1m_listen_ = std::log1p(-listen_prob_);
  send_given_listen_ = std::min(1.0 / boost, 1.0);
}

void LowSensingBackoff::on_observation(const Observation& obs) {
  // Fig. 1: multiplicative window update keyed on what was heard. A packet
  // that sent and collided hears noise (it is still in the system), so the
  // `sent` flag needs no special-casing here.
  const double factor = 1.0 + 1.0 / (params_.c * std::max(ln_w_, 1.0));
  const double w_before = w_;
  // Back on (divide, floor at w_min unless ablated) or back off (multiply).
  // Even without the floor, never let the window collapse below 2 — the
  // analysis (Lemma 5.1) requires w >= 2.
  const auto back_on = [&] {
    w_ /= factor;
    if (params_.backon_floor) w_ = std::max(w_, params_.w_min);
    w_ = std::max(w_, 2.0);
  };
  if (params_.no_collision_detection) {
    // Binary feedback: success => back on, anything else => back off.
    if (obs.feedback == Feedback::kSuccess) {
      back_on();
    } else {
      w_ *= factor;
    }
  } else {
    switch (obs.feedback) {
      case Feedback::kEmpty:
        back_on();
        break;
      case Feedback::kNoisy:
        w_ *= factor;
        break;
      case Feedback::kSuccess:
        break;  // someone else's success: no update (Fig. 1)
    }
  }
  // Everything derived from w is a pure function of it: an unchanged
  // window (a success, or a back-on pinned at the floor) keeps its cache.
  if (w_ != w_before) refresh_probs();
}

std::unique_ptr<Protocol> LowSensingFactory::create() const {
  return std::make_unique<LowSensingBackoff>(initial_);
}

}  // namespace lowsense
