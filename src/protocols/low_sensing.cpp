#include "protocols/low_sensing.hpp"

#include <algorithm>
#include <array>
#include <cassert>
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
  refresh_from_ln_w(std::log(w_));
  refresh_log1m();
}

void LowSensingBackoff::refresh_from_ln_w(double ln_w) noexcept {
  ln_w_ = ln_w;
  const double boost = params_.c * ln_boost();
  listen_prob_ = std::min(boost / w_, 1.0);
  send_given_listen_ = std::min(1.0 / boost, 1.0);
}

bool LowSensingBackoff::update_window(const Observation& obs) noexcept {
  // Fig. 1: multiplicative window update keyed on what was heard. A packet
  // that sent and collided hears noise (it is still in the system), so the
  // `sent` flag needs no special-casing here.
  bool back_on = false;
  if (params_.no_collision_detection) {
    // Binary feedback: success => back on, anything else => back off.
    back_on = obs.feedback == Feedback::kSuccess;
  } else if (obs.feedback == Feedback::kSuccess) {
    return false;  // someone else's success: no update (Fig. 1)
  } else {
    back_on = obs.feedback == Feedback::kEmpty;  // silence; noise backs off
  }
  // A back-on at the floor stays there: factor >= 1 puts w / factor at or
  // below w_min, the floor restores w_min, and w_min >= 2 survives the
  // collapse guard — the same result without the division.
  if (back_on && params_.backon_floor && w_ == params_.w_min && w_ >= 2.0) return false;
  const double factor = 1.0 + 1.0 / (params_.c * std::max(ln_w_, 1.0));
  const double w_before = w_;
  if (back_on) {
    // Divide, floor at w_min unless ablated. Even without the floor, never
    // let the window collapse below 2 — the analysis (Lemma 5.1) requires
    // w >= 2.
    w_ /= factor;
    if (params_.backon_floor) w_ = std::max(w_, params_.w_min);
    w_ = std::max(w_, 2.0);
  } else {
    w_ *= factor;
  }
  // Everything derived from w is a pure function of it: an unchanged
  // window (a back-on pinned at the floor) keeps its cache.
  return w_ != w_before;
}

void LowSensingBackoff::on_observation(const Observation& obs) {
  if (update_window(obs)) refresh_probs();
}

void LowSensingBackoff::step_chunk(std::span<StepItem> items) {
  assert(items.size() <= LowSensingFactory::kStepChunk);
  // Stack scratch (step_batch runs concurrently across shards): the
  // chunk positions that need a libm call, and that call's argument or
  // result.
  std::array<std::uint8_t, LowSensingFactory::kStepChunk> at;
  std::array<double, LowSensingFactory::kStepChunk> x;
  std::size_t m = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (as_derived(items[i]).update_window(items[i].obs)) at[m++] = static_cast<std::uint8_t>(i);
  }
  for (std::size_t j = 0; j < m; ++j) x[j] = std::log(as_derived(items[at[j]]).w_);
  for (std::size_t j = 0; j < m; ++j) as_derived(items[at[j]]).refresh_from_ln_w(x[j]);
  for (std::size_t j = 0; j < m; ++j) as_derived(items[at[j]]).refresh_log1m();
  // The state reads, and a uniform from each packet that needs one; the
  // threshold stage decides most gaps here, the rest keep their uniform.
  m = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    StepItem& it = items[i];
    const LowSensingBackoff& d = as_derived(it);
    it.out.window = d.w_;
    it.out.send_given_access = d.send_given_listen_;
    it.out.send_prob = d.listen_prob_ * d.send_given_listen_;
    it.out.gap = Rng::geometric_gap_without_draw(d.listen_prob_);
    if (it.out.gap == 0) {
      const double u = it.rng->next_double_pos();
      it.out.gap = Rng::geometric_gap_by_threshold(d.listen_prob_, u);
      if (it.out.gap == 0) {
        x[m] = u;
        at[m++] = static_cast<std::uint8_t>(i);
      }
    }
  }
  for (std::size_t j = 0; j < m; ++j) x[j] = std::log(x[j]);
  for (std::size_t j = 0; j < m; ++j) {
    StepItem& it = items[at[j]];
    it.out.gap = Rng::geometric_gap_from_log(x[j], as_derived(it).log1m_listen());
  }
}

std::unique_ptr<Protocol> LowSensingFactory::create() const {
  return std::make_unique<LowSensingBackoff>(initial_);
}

}  // namespace lowsense
