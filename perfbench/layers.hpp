// Outside-in layer tracing for the traced driver: transparent wrappers
// around the public interfaces of the `protocols` (ProtocolFactory,
// Protocol), `adversary` (Jammer, ArrivalProcess) and `metrics` (Observer)
// layers, plus an untimed tap on the observer stream for `sim` counts.
//
// Every wrapped call is COUNTED (exact, deterministic). Times are SAMPLED:
// one call in 64 per layer is bracketed by steady_clock reads,
// the cost of an empty bracket taken right before it is subtracted, and
// the mean is scaled by the call count. Timing every call would cost more
// than the calls themselves. Layer times are therefore estimates; counts
// are exact.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "workload.hpp"

namespace perfbench {

enum class Count : std::size_t {
  kOnObservation,
  kDrawGap,
  kSendProbGivenAccess,
  kAccessProb,
  kWindow,
  kCreate,
  kJamCalls,
  kJams,  ///< jam() == true plus the jams count_quiet_range returned
  kQuietRangeCalls,
  kQuietRangeSlots,
  kArrivalsNext,
  kBursts,
  kPackets,
  kCallbacks,
  kN,
};

enum class Layer : std::size_t { kProtocols, kAdversary, kMetrics, kN };

inline constexpr std::size_t kCounts = static_cast<std::size_t>(Count::kN);
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kN);

/// Everything one traced repetition recorded.
struct LayerTotals {
  std::array<std::uint64_t, kCounts> counts{};
  std::array<std::uint64_t, kLayers> calls{};
  std::array<std::uint64_t, kLayers> samples{};
  std::array<double, kLayers> sampled_ns{};
  // From the observer tap (sim layer).
  std::uint64_t access_slots = 0;
  std::uint64_t heavy_slots = 0;  ///< access slots the sharded resolve may fork
  std::uint64_t quiet_spans = 0;
  std::vector<std::uint64_t> accessors_hist;  ///< [k] = access slots with k accessors

  std::uint64_t count(Count c) const { return counts[static_cast<std::size_t>(c)]; }
  /// Estimated seconds spent inside `layer`.
  double self_s(Layer layer) const;
  /// Accessors-per-access-slot quantile q in [0, 1].
  std::uint64_t accessors_quantile(double q) const;
};

class LayerTracer final : public Instrument {
 public:
  LayerTracer();
  ~LayerTracer() override;
  LayerTracer(const LayerTracer&) = delete;
  LayerTracer& operator=(const LayerTracer&) = delete;

  /// Zeroes every counter. Call between repetitions, with no run active.
  void reset();
  /// Sums the per-thread counters. Call after a repetition has finished.
  LayerTotals totals() const;

  std::unique_ptr<lowsense::ProtocolFactory> wrap(
      std::unique_ptr<lowsense::ProtocolFactory> factory) override;
  std::unique_ptr<lowsense::ArrivalProcess> wrap(
      std::unique_ptr<lowsense::ArrivalProcess> arrivals) override;
  std::unique_ptr<lowsense::Jammer> wrap(std::unique_ptr<lowsense::Jammer> jammer) override;
  std::vector<lowsense::Observer*> wrap(
      const std::vector<lowsense::Observer*>& observers) override;

 private:
  class Tap;
  std::unique_ptr<Tap> tap_;
  std::vector<std::unique_ptr<lowsense::Observer>> owned_;
};

}  // namespace perfbench
