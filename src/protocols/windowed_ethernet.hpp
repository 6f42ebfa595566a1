// Windowed binary exponential backoff — Ethernet's ACTUAL semantics
// (Metcalfe–Boggs [124], IEEE 802.3): after the k-th collision the
// station waits a UNIFORM number of slots in {1, ..., w} before
// retransmitting, with w doubling per collision up to a cap, and the
// whole attempt aborted after `max_attempts` collisions.
//
// This is a non-memoryless schedule, so it overrides Protocol::draw_gap
// instead of exposing a per-slot probability. It complements the
// probability-form BEB used in the theory comparisons: the paper's
// O(1/ln N) batch-throughput critique applies to both, and having the
// deployed variant in the library lets the examples speak about real
// Ethernet/WiFi behaviour.
#pragma once

#include "protocols/protocol.hpp"

namespace lowsense {

struct WindowedEthernetParams {
  double initial_window = 2.0;
  double growth = 2.0;
  double max_window = 1024.0;      ///< 802.3 truncates at 2^10
  std::uint32_t max_attempts = 0;  ///< 0 = retry forever (802.3 uses 16)
};

class WindowedEthernet final : public BuiltinProtocol<WindowedEthernet> {
 public:
  explicit WindowedEthernet(const WindowedEthernetParams& params = {});

  /// Mean access rate, ~2/(w+1) — diagnostic only; scheduling goes
  /// through draw_gap.
  double access_prob() const noexcept override { return 2.0 / (w_ + 1.0); }
  double send_prob_given_access() const noexcept override { return 1.0; }
  void on_observation(const Observation& obs) override;
  double window() const noexcept override { return w_; }
  const char* name() const noexcept override { return "windowed-ethernet"; }

  /// Uniform in {1, ..., ceil(w)} — the windowed schedule. After the
  /// attempt limit, never accesses again (the 802.3 "excessive
  /// collisions" abort).
  std::uint64_t draw_gap(Rng& rng) const override;

  std::uint32_t collisions() const noexcept { return collisions_; }
  bool aborted() const noexcept;

 private:
  WindowedEthernetParams params_;
  double w_;
  std::uint32_t collisions_ = 0;
};

class WindowedEthernetFactory final : public BuiltinFactory<WindowedEthernet> {
 public:
  explicit WindowedEthernetFactory(const WindowedEthernetParams& params = {})
      : params_(params) {}
  std::unique_ptr<Protocol> create() const override;
  std::string name() const override { return "windowed-ethernet"; }

 private:
  WindowedEthernetParams params_;
};

}  // namespace lowsense
