// Contention bookkeeping: the engine's incrementally maintained
// C(t) = Σ_u send_prob_u must track the ground truth (recomputed from
// scratch) and, for LOW-SENSING BACKOFF with unclamped probabilities,
// equal the paper's Σ_u 1/w_u exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "adversary/arrivals.hpp"
#include "adversary/jammer.hpp"
#include "protocols/low_sensing.hpp"
#include "protocols/registry.hpp"
#include "sim/event_engine.hpp"
#include "sim/slot_engine.hpp"

namespace lowsense {
namespace {

TEST(Contention, BatchInitialContentionIsNOverWmin) {
  // Immediately after a batch of N injections, C = N / w_min.
  struct Probe final : Observer {
    double first_contention = -1.0;
    void on_slot(const SlotInfo&, const Counters& c) override {
      if (first_contention < 0.0) first_contention = c.contention;
    }
  } probe;

  LowSensingFactory factory;
  BatchArrivals arrivals(64);
  NoJammer none;
  RunConfig cfg;
  cfg.seed = 5;
  cfg.max_active_slots = 1;  // stop after the very first slot
  EventEngine engine(factory, arrivals, none, cfg);
  engine.add_observer(&probe);
  engine.run();

  const double w_min = LowSensingParams{}.w_min;
  // The first slot's counters include that slot's own backoffs (most
  // packets hear noise and shrink 1/w), so the observed value sits a
  // multiplicative notch below N/w_min but the same order of magnitude.
  EXPECT_LE(probe.first_contention, 64.0 / w_min + 1e-9);
  EXPECT_GE(probe.first_contention, 64.0 / w_min * 0.4);
}

/// Per-slot cross-check of the engine's cached state against the protocol
/// objects: the incremental contention against an O(n) recompute, and
/// every live packet's window / send_prob / send_given_access lanes
/// against its protocol's virtual queries (which must match exactly).
struct CrossCheck final : Observer {
  const detail::SimCore* core = nullptr;
  double worst = 0.0;
  std::uint64_t lanes_checked = 0;
  std::uint64_t lane_mismatches = 0;
  void on_slot(const SlotInfo&, const Counters& c) override {
    const double truth = core->recompute_contention();
    worst = std::max(worst, std::fabs(truth - c.contention));
    core->for_each_live([this](const detail::PacketStore& store, std::uint32_t slab) {
      const Protocol& proto = *store.at(slab).proto;
      ++lanes_checked;
      if (store.window(slab) != proto.window() || store.send_prob(slab) != proto.send_prob() ||
          store.send_given_access(slab) != proto.send_prob_given_access()) {
        ++lane_mismatches;
      }
    });
  }
};

TEST(Contention, IncrementalMatchesRecomputeThroughoutRun) {
  // Drive the slot engine manually via an observer that cross-checks the
  // incremental contention against an O(n) recompute every slot.
  CrossCheck check;

  LowSensingFactory factory;
  BatchArrivals arrivals(100);
  NoJammer none;
  RunConfig cfg;
  cfg.seed = 9;
  SlotEngine engine(factory, arrivals, none, cfg);
  check.core = &engine.core();
  engine.add_observer(&check);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.drained);
  EXPECT_LT(check.worst, 1e-9);
}

template <typename Engine>
void expect_lanes_coherent(const std::string& protocol, unsigned shards) {
  SCOPED_TRACE(protocol + " shards=" + std::to_string(shards));
  const auto factory = make_protocol(protocol);
  ASSERT_NE(factory, nullptr);
  BatchArrivals arrivals(300);  // heavy enough that shards=4 forks
  RandomJammer jammer(0.1, 0, CounterRng(7));
  RunConfig cfg;
  cfg.seed = 31;
  cfg.shards = shards;
  cfg.max_active_slots = 4000;
  Engine engine(*factory, arrivals, jammer, cfg);
  CrossCheck check;
  check.core = &engine.core();
  engine.add_observer(&check);
  engine.run();
  EXPECT_GT(check.lanes_checked, 0u);
  EXPECT_EQ(check.lane_mismatches, 0u);
  EXPECT_LT(check.worst, 1e-9);
}

TEST(Contention, LanesMatchProtocolObjectsOnBothEnginesAndShardCounts) {
  // The engine caches each packet's window and send probabilities in its
  // PacketStore lanes and never asks the protocol object between
  // accesses; the cache must equal the object exactly, every slot.
  for (const char* protocol : {"low-sensing", "mw-full-sensing", "windowed-ethernet"}) {
    for (unsigned shards : {1u, 4u}) {
      expect_lanes_coherent<SlotEngine>(protocol, shards);
      expect_lanes_coherent<EventEngine>(protocol, shards);
    }
  }
}

/// Forwards every query to an inner protocol and keeps Protocol's default
/// step() — the shape of a third-party wrapper such as a tracing layer.
class Forwarding final : public Protocol {
 public:
  explicit Forwarding(std::unique_ptr<Protocol> inner) : inner_(std::move(inner)) {}
  double access_prob() const noexcept override { return inner_->access_prob(); }
  double send_prob_given_access() const noexcept override {
    return inner_->send_prob_given_access();
  }
  void on_observation(const Observation& obs) override { inner_->on_observation(obs); }
  double window() const noexcept override { return inner_->window(); }
  const char* name() const noexcept override { return inner_->name(); }
  std::uint64_t draw_gap(Rng& rng) const override { return inner_->draw_gap(rng); }

 private:
  std::unique_ptr<Protocol> inner_;
};

class ForwardingFactory final : public ProtocolFactory {
 public:
  explicit ForwardingFactory(const ProtocolFactory& inner) : inner_(inner) {}
  std::unique_ptr<Protocol> create() const override {
    return std::make_unique<Forwarding>(inner_.create());
  }
  std::string name() const override { return inner_.name(); }

 private:
  const ProtocolFactory& inner_;
};

/// Everything a run lets an observer see, slot by slot.
struct RunTrace final : Observer {
  std::vector<std::tuple<Slot, std::uint32_t, std::uint32_t, bool, double>> slots;
  std::vector<std::tuple<Slot, PacketId, std::uint64_t, std::uint64_t, double>> departures;
  std::vector<std::tuple<Slot, PacketId, double, double>> windows;
  void on_slot(const SlotInfo& info, const Counters& c) override {
    slots.emplace_back(info.slot, info.accessors, info.senders, info.jammed, c.contention);
  }
  void on_departure(Slot slot, PacketId id, Slot, std::uint64_t accesses, std::uint64_t sends,
                    double w) override {
    departures.emplace_back(slot, id, accesses, sends, w);
  }
  void on_window_change(Slot slot, PacketId id, double old_w, double new_w) override {
    windows.emplace_back(slot, id, old_w, new_w);
  }
};

TEST(Contention, WrapperWithDefaultStepEqualsUnwrappedRun) {
  // A wrapper that does not override step() or its factory's step_batch()
  // goes through the default sequence of virtual calls, one object at a
  // time; the run must not move a bit against the built-ins' loop-split
  // batches.
  for (const char* protocol : {"low-sensing", "windowed-ethernet"}) {
    SCOPED_TRACE(protocol);
    const auto inner = make_protocol(protocol);
    const ForwardingFactory wrapped(*inner);
    RunTrace traces[2];
    RunResult results[2];
    const ProtocolFactory* factories[2] = {inner.get(), &wrapped};
    for (int i = 0; i < 2; ++i) {
      BatchArrivals arrivals(400);
      RandomJammer jammer(0.2, 0, CounterRng(11));
      RunConfig cfg;
      cfg.seed = 37;
      cfg.max_active_slots = 20000;
      EventEngine engine(*factories[i], arrivals, jammer, cfg);
      engine.add_observer(&traces[i]);
      results[i] = engine.run();
    }
    EXPECT_EQ(traces[0].slots, traces[1].slots);
    EXPECT_EQ(traces[0].departures, traces[1].departures);
    EXPECT_EQ(traces[0].windows, traces[1].windows);
    EXPECT_GT(traces[0].departures.size(), 0u);
    EXPECT_EQ(results[0].counters.contention, results[1].counters.contention);
    EXPECT_EQ(results[0].max_window_seen, results[1].max_window_seen);
    EXPECT_EQ(results[0].access_stats.sum(), results[1].access_stats.sum());
    EXPECT_EQ(results[0].send_stats.sum(), results[1].send_stats.sum());
  }
}

TEST(Contention, EqualsSumOfInverseWindows) {
  // For LSB with unclamped probabilities, send_prob == 1/w, so the
  // engine's contention is the paper's C(t) = Σ 1/w_u literally.
  struct WindowSum final : Observer {
    double sum_inv_w = 0.0;
    double worst_gap = 0.0;
    void on_arrival(Slot, PacketId, const Protocol& p) override { sum_inv_w += 1.0 / p.window(); }
    void on_departure(Slot, PacketId, Slot, std::uint64_t, std::uint64_t, double w) override {
      sum_inv_w -= 1.0 / w;
    }
    void on_window_change(Slot, PacketId, double old_w, double new_w) override {
      sum_inv_w += 1.0 / new_w - 1.0 / old_w;
    }
    void on_slot(const SlotInfo&, const Counters& c) override {
      worst_gap = std::max(worst_gap, std::fabs(sum_inv_w - c.contention));
    }
  } probe;

  LowSensingFactory factory;
  BatchArrivals arrivals(80);
  NoJammer none;
  RunConfig cfg;
  cfg.seed = 13;
  SlotEngine engine(factory, arrivals, none, cfg);
  engine.add_observer(&probe);
  engine.run();
  EXPECT_LT(probe.worst_gap, 1e-9);
}

TEST(Contention, DropsToZeroOnDrain) {
  LowSensingFactory factory;
  BatchArrivals arrivals(32);
  NoJammer none;
  RunConfig cfg;
  cfg.seed = 17;
  EventEngine engine(factory, arrivals, none, cfg);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.drained);
  EXPECT_NEAR(r.counters.contention, 0.0, 1e-9);
}

TEST(Contention, HighContentionSelfRegulates) {
  // The multiplicative-weights loop must bring contention from N/w_min
  // down into O(1) territory and keep it there (this is the mechanism
  // behind Θ(1) throughput). Check that the long-run median contention on
  // a big batch lies in a sane constant band.
  struct Samples final : Observer {
    std::vector<double> contentions;
    void on_slot(const SlotInfo&, const Counters& c) override {
      if (c.active_slots % 16 == 0) contentions.push_back(c.contention);
    }
  } probe;

  LowSensingFactory factory;
  BatchArrivals arrivals(2000);
  NoJammer none;
  RunConfig cfg;
  cfg.seed = 23;
  EventEngine engine(factory, arrivals, none, cfg);
  engine.add_observer(&probe);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.drained);
  ASSERT_GT(probe.contentions.size(), 50u);
  std::sort(probe.contentions.begin(), probe.contentions.end());
  const double median = probe.contentions[probe.contentions.size() / 2];
  EXPECT_GT(median, 0.05);
  EXPECT_LT(median, 20.0);
}

TEST(Contention, JammingPushesContentionDown) {
  // Persistent jamming makes listeners back off, so contention after a
  // long fully jammed stretch must be far below the initial N/w_min.
  LowSensingFactory factory;
  BatchArrivals arrivals(100);
  RandomJammer jammer(1.0, 0, CounterRng(3));
  RunConfig cfg;
  cfg.seed = 29;
  cfg.max_active_slots = 20000;
  EventEngine engine(factory, arrivals, jammer, cfg);
  const RunResult r = engine.run();
  const double initial = 100.0 / LowSensingParams{}.w_min;
  EXPECT_LT(r.counters.contention, initial / 4.0);
  EXPECT_EQ(r.counters.backlog, 100u);  // nobody ever succeeded
}

}  // namespace
}  // namespace lowsense
