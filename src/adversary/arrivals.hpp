// Packet arrival processes (the adversary's injection side, §1.1).
//
// An ArrivalProcess is a pull-stream of bursts at strictly increasing
// slots: nothing is pre-expanded, so a schedule is O(1) memory no matter
// how long the horizon — the open-system engines pull one burst ahead as
// the run advances. Both engines consume the same stream representation,
// so any process works with either engine. Stochastic processes
// (Poisson, AQT) take a `max_packets` truncation; 0 means UNBOUNDED —
// the stream never exhausts and the run is bounded by its slot budgets
// instead (steady-state mode). Adaptivity in this library lives in the
// jammers; arrival schedules are fixed per run (each adversarial pattern
// is a concrete worst-case schedule from the paper's discussion).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/types.hpp"

namespace lowsense {

struct ArrivalBurst {
  Slot slot = 0;
  std::uint64_t count = 0;
};

class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// Next burst, at a slot strictly greater than any previously returned.
  /// std::nullopt once the stream is exhausted (infinite processes never
  /// return nullopt but engines bound runs by horizon / packet budget).
  virtual std::optional<ArrivalBurst> next() = 0;

  virtual std::string name() const = 0;
};

/// All N packets arrive in slot 0 — the classical batch instance on which
/// BEB's throughput is Θ(1/log N) [23].
class BatchArrivals final : public ArrivalProcess {
 public:
  explicit BatchArrivals(std::uint64_t n, Slot slot = 0) : n_(n), slot_(slot) {}
  std::optional<ArrivalBurst> next() override;
  std::string name() const override { return "batch"; }

 private:
  std::uint64_t n_;
  Slot slot_;
  bool done_ = false;
};

/// Fixed schedule of bursts (must be strictly increasing in slot).
class ScheduleArrivals final : public ArrivalProcess {
 public:
  explicit ScheduleArrivals(std::vector<ArrivalBurst> bursts);
  std::optional<ArrivalBurst> next() override;
  std::string name() const override { return "schedule"; }

 private:
  std::vector<ArrivalBurst> bursts_;
  std::size_t idx_ = 0;
};

/// Poisson arrivals at `rate` packets/slot (iid per slot), optionally
/// truncated after `max_packets` (0 = unbounded stream). Generated
/// lazily: a geometric gap to the next nonempty slot, then a Poisson
/// count conditioned on being nonzero.
///
/// COST. The nonzero count is drawn by rejection: Poisson(rate) draws
/// until one is positive, about 1 / (1 - e^-rate) ≈ 1/rate draws per
/// burst, each at least one uniform. That is ~20 draws at rate 0.05, but
/// O(1/rate) in general: measured before the constants below were
/// cached, the first burst took 0.029 s at rate 1e-7, and at rate 1e-12
/// it did not finish in 150 s. A direct draw from the zero-truncated
/// distribution would be O(1), but it changes the stream (and every
/// pinned digest of a Poisson workload), so it is left for a change
/// that re-pins them.
class PoissonArrivals final : public ArrivalProcess {
 public:
  PoissonArrivals(double rate, std::uint64_t max_packets, Rng rng);
  std::optional<ArrivalBurst> next() override;
  std::string name() const override { return "poisson"; }

 private:
  double rate_;
  // Per-burst constants of `rate_`, computed once with the exact
  // expressions the draws would otherwise evaluate every time.
  double p_nonempty_;    ///< -expm1(-rate): P(Poisson(rate) > 0)
  double log1m_p_;       ///< log1p(-p_nonempty_), for geometric_gap
  double exp_neg_rate_;  ///< exp(-rate), for poisson
  bool unbounded_;
  std::uint64_t remaining_;
  Rng rng_;
  Slot cur_ = 0;
  bool first_ = true;
};

/// In-window placement patterns for adversarial-queuing arrivals.
enum class AqtPattern {
  kSpread,  ///< budget spaced evenly through each window
  kFront,   ///< whole budget as one burst at the window start
  kRandom,  ///< half the budget at uniform random offsets per window (half
            ///< so that sliding windows straddling a boundary stay legal)
  kPulse,   ///< alternating loaded/empty windows, double budget when loaded
};

/// Adversarial-queuing arrivals (granularity S, rate λ): at most λ·S
/// packets in any window of S consecutive slots, placed adversarially
/// (§1.1). `kPulse` drops the whole λ·S budget as one burst at the start
/// of every other window (maximum burstiness at half the average rate);
/// all patterns satisfy the sliding-window constraint, which the
/// AqtConstraintChecker (aqt.hpp) verifies in tests.
/// `max_packets` of 0 means an unbounded stream (steady-state mode).
class AqtArrivals final : public ArrivalProcess {
 public:
  AqtArrivals(double lambda, Slot granularity, AqtPattern pattern, std::uint64_t max_packets,
              Rng rng);
  std::optional<ArrivalBurst> next() override;
  std::string name() const override;

 private:
  void fill_window();

  double lambda_;
  Slot s_;
  AqtPattern pattern_;
  bool unbounded_;
  std::uint64_t remaining_;
  Rng rng_;
  Slot window_start_ = 0;
  std::uint64_t window_index_ = 0;
  std::vector<ArrivalBurst> pending_;  // bursts of the current window
  std::size_t pending_idx_ = 0;
};

}  // namespace lowsense
