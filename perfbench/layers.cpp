#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "sim/sim_core.hpp"

namespace perfbench {
namespace {

using lowsense::Observer;

// One call in 64 per layer is timed. A power of two, so the
// sampling test is a mask.
constexpr std::uint64_t kSampleEvery = 64;
// A sample longer than this was preempted, not working; it is dropped so
// one context switch (scaled by kSampleEvery) cannot dominate.
constexpr std::chrono::milliseconds kMaxSample{1};

// Traced repetitions run serially, so the wrappers are only ever called from
// the driver's thread and one unsynchronised tally suffices. A sharded
// traced run would call protocols from pool workers and race on it.
static_assert(kTimedShards == 1, "traced repetitions must stay serial");

struct Tally {
  std::array<std::uint64_t, kCounts> counts{};
  std::array<std::uint64_t, kLayers> calls{};
  std::array<std::uint64_t, kLayers> samples{};
  std::array<std::int64_t, kLayers> sampled_ns{};
};

Tally g_tally;

/// Counts `what`, and times every kSampleEvery-th call of `layer`. A
/// sample is (c - b) - (b - a) for clock reads a, b, f(), c: the empty
/// bracket [a, b] taken in the same place cancels the clock's own cost,
/// cache state included, which a calibration loop would not.
template <class F>
decltype(auto) traced(Layer layer, Count what, F&& f) {
  Tally& t = g_tally;
  const auto l = static_cast<std::size_t>(layer);
  ++t.counts[static_cast<std::size_t>(what)];
  if ((++t.calls[l] & (kSampleEvery - 1)) != 0) return f();
  const Clock::time_point a = Clock::now();
  const Clock::time_point b = Clock::now();
  auto record = [&] {
    const Clock::time_point c = Clock::now();
    if (c - a <= kMaxSample) {
      t.sampled_ns[l] += std::chrono::duration_cast<std::chrono::nanoseconds>((c - b) - (b - a))
                             .count();
      ++t.samples[l];
    }
  };
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    record();
  } else {
    auto r = f();
    record();
    return r;
  }
}

void add(Count c, std::uint64_t n) { g_tally.counts[static_cast<std::size_t>(c)] += n; }

class TracedProtocol final : public lowsense::Protocol {
 public:
  explicit TracedProtocol(std::unique_ptr<lowsense::Protocol> inner) : inner_(std::move(inner)) {}
  double access_prob() const noexcept override {
    return traced(Layer::kProtocols, Count::kAccessProb, [&] { return inner_->access_prob(); });
  }
  double send_prob_given_access() const noexcept override {
    return traced(Layer::kProtocols, Count::kSendProbGivenAccess,
                  [&] { return inner_->send_prob_given_access(); });
  }
  void on_observation(const lowsense::Observation& obs) override {
    traced(Layer::kProtocols, Count::kOnObservation, [&] { inner_->on_observation(obs); });
  }
  double window() const noexcept override {
    return traced(Layer::kProtocols, Count::kWindow, [&] { return inner_->window(); });
  }
  const char* name() const noexcept override { return inner_->name(); }
  std::uint64_t draw_gap(lowsense::Rng& rng) const override {
    return traced(Layer::kProtocols, Count::kDrawGap, [&] { return inner_->draw_gap(rng); });
  }

 private:
  std::unique_ptr<lowsense::Protocol> inner_;
};

class TracedFactory final : public lowsense::ProtocolFactory {
 public:
  explicit TracedFactory(std::unique_ptr<lowsense::ProtocolFactory> inner)
      : inner_(std::move(inner)) {}
  std::unique_ptr<lowsense::Protocol> create() const override {
    auto made = traced(Layer::kProtocols, Count::kCreate, [&] { return inner_->create(); });
    return std::make_unique<TracedProtocol>(std::move(made));
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<lowsense::ProtocolFactory> inner_;
};

class TracedJammer final : public lowsense::Jammer {
 public:
  explicit TracedJammer(std::unique_ptr<lowsense::Jammer> inner) : inner_(std::move(inner)) {}
  bool jam(lowsense::Slot slot, const lowsense::SystemView& view,
           std::span<const lowsense::PacketId> senders) override {
    const bool hit = traced(Layer::kAdversary, Count::kJamCalls,
                            [&] { return inner_->jam(slot, view, senders); });
    add(Count::kJams, hit ? 1 : 0);
    return hit;
  }
  std::uint64_t count_quiet_range(lowsense::Slot lo, lowsense::Slot hi,
                                  const lowsense::SystemView& view) override {
    const std::uint64_t jams = traced(Layer::kAdversary, Count::kQuietRangeCalls,
                                      [&] { return inner_->count_quiet_range(lo, hi, view); });
    add(Count::kQuietRangeSlots, hi - lo + 1);
    add(Count::kJams, jams);
    return jams;
  }
  std::uint64_t jams_used() const noexcept override { return inner_->jams_used(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<lowsense::Jammer> inner_;
};

class TracedArrivals final : public lowsense::ArrivalProcess {
 public:
  explicit TracedArrivals(std::unique_ptr<lowsense::ArrivalProcess> inner)
      : inner_(std::move(inner)) {}
  std::optional<lowsense::ArrivalBurst> next() override {
    auto burst = traced(Layer::kAdversary, Count::kArrivalsNext, [&] { return inner_->next(); });
    if (burst) {
      add(Count::kBursts, 1);
      add(Count::kPackets, burst->count);
    }
    return burst;
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<lowsense::ArrivalProcess> inner_;
};

class TracedObserver final : public Observer {
 public:
  explicit TracedObserver(Observer* inner) : inner_(inner) {}
  void on_arrival(lowsense::Slot slot, lowsense::PacketId id,
                  const lowsense::Protocol& proto) override {
    call([&] { inner_->on_arrival(slot, id, proto); });
  }
  void on_departure(lowsense::Slot slot, lowsense::PacketId id, lowsense::Slot arrival_slot,
                    std::uint64_t accesses, std::uint64_t sends, double final_window) override {
    call([&] { inner_->on_departure(slot, id, arrival_slot, accesses, sends, final_window); });
  }
  void on_window_change(lowsense::Slot slot, lowsense::PacketId id, double old_window,
                        double new_window) override {
    call([&] { inner_->on_window_change(slot, id, old_window, new_window); });
  }
  void on_slot(const lowsense::SlotInfo& info, const lowsense::Counters& counters) override {
    call([&] { inner_->on_slot(info, counters); });
  }
  void on_quiet_span(lowsense::Slot from, lowsense::Slot to, std::uint64_t jams,
                     const lowsense::Counters& counters) override {
    call([&] { inner_->on_quiet_span(from, to, jams, counters); });
  }
  void on_run_end(const lowsense::Counters& counters) override {
    call([&] { inner_->on_run_end(counters); });
  }

 private:
  template <class F>
  void call(F&& f) {
    traced(Layer::kMetrics, Count::kCallbacks, std::forward<F>(f));
  }
  Observer* inner_;
};

}  // namespace

/// Untimed observer-stream tap for the sim layer's slot statistics. It is
/// benchmark instrumentation, not part of the `metrics` layer.
class LayerTracer::Tap final : public Observer {
 public:
  void on_slot(const lowsense::SlotInfo& info, const lowsense::Counters&) override {
    if (info.accessors == 0) return;
    ++totals.access_slots;
    if (info.accessors >= lowsense::detail::SimCore::kParallelMinAccessors) ++totals.heavy_slots;
    if (info.accessors >= totals.accessors_hist.size()) {
      totals.accessors_hist.resize(info.accessors + 1);
    }
    ++totals.accessors_hist[info.accessors];
  }
  void on_quiet_span(lowsense::Slot, lowsense::Slot, std::uint64_t,
                     const lowsense::Counters&) override {
    ++totals.quiet_spans;
  }
  LayerTotals totals;
};

double LayerTotals::self_s(Layer layer) const {
  const auto l = static_cast<std::size_t>(layer);
  if (samples[l] == 0) return 0.0;
  // Not clamped: for calls cheaper than the clock's jitter the unbiased
  // estimate may come out slightly negative.
  const double per_call = sampled_ns[l] / static_cast<double>(samples[l]);
  return per_call * static_cast<double>(calls[l]) * 1e-9;
}

std::uint64_t LayerTotals::accessors_quantile(double q) const {
  if (access_slots == 0) return 0;
  // Smallest k with at least ceil(q * n) access slots at <= k accessors.
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(access_slots))));
  std::uint64_t seen = 0;
  for (std::size_t k = 0; k < accessors_hist.size(); ++k) {
    seen += accessors_hist[k];
    if (seen >= rank) return k;
  }
  return accessors_hist.size() - 1;
}

LayerTracer::LayerTracer() : tap_(std::make_unique<Tap>()) {}
LayerTracer::~LayerTracer() = default;

void LayerTracer::reset() {
  g_tally = Tally{};
  tap_->totals = LayerTotals{};
  owned_.clear();
}

LayerTotals LayerTracer::totals() const {
  LayerTotals out = tap_->totals;
  out.counts = g_tally.counts;
  out.calls = g_tally.calls;
  out.samples = g_tally.samples;
  for (std::size_t l = 0; l < kLayers; ++l) {
    out.sampled_ns[l] = static_cast<double>(g_tally.sampled_ns[l]);
  }
  return out;
}

std::unique_ptr<lowsense::ProtocolFactory> LayerTracer::wrap(
    std::unique_ptr<lowsense::ProtocolFactory> factory) {
  return std::make_unique<TracedFactory>(std::move(factory));
}

std::unique_ptr<lowsense::ArrivalProcess> LayerTracer::wrap(
    std::unique_ptr<lowsense::ArrivalProcess> arrivals) {
  return std::make_unique<TracedArrivals>(std::move(arrivals));
}

std::unique_ptr<lowsense::Jammer> LayerTracer::wrap(std::unique_ptr<lowsense::Jammer> jammer) {
  return std::make_unique<TracedJammer>(std::move(jammer));
}

std::vector<Observer*> LayerTracer::wrap(const std::vector<Observer*>& observers) {
  owned_.clear();
  std::vector<Observer*> out;
  for (Observer* o : observers) {
    owned_.push_back(std::make_unique<TracedObserver>(o));
    out.push_back(owned_.back().get());
  }
  out.push_back(tap_.get());
  return out;
}

}  // namespace perfbench
