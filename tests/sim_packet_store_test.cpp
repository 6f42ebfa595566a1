// Open-system storage correctness: PacketStore slab/free-list unit checks
// and the load-bearing recycling guarantee — a recycled slab carries NO
// identity, so reclamation (config.reclaim) never moves a bit. Seeded
// fuzz diffs open vs. closed storage across engines, shard counts, and
// arrival processes with expect_same_run (run_identity.hpp: every
// RunResult field but the slab witnesses, plus the trace digest of every
// arrival, departure and access slot), and a lifecycle ledger asserts a
// recycled slab never re-emits (or aliases) the departed packet's
// observer callbacks.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "run_identity.hpp"
#include "sim/packet_store.hpp"

namespace lowsense {
namespace {

using detail::Packet;
using detail::PacketStore;

// ------------------------------------------------------ PacketStore unit

TEST(PacketStore, GrowsWhileFreeListIsEmpty) {
  PacketStore store;
  EXPECT_EQ(store.acquire(10), 0u);
  EXPECT_EQ(store.acquire(11), 1u);
  EXPECT_EQ(store.acquire(12), 2u);
  EXPECT_EQ(store.capacity(), 3u);
  EXPECT_EQ(store.live(), 3u);
  EXPECT_EQ(store.peak_live(), 3u);
  EXPECT_EQ(store.recycled(), 0u);
  EXPECT_EQ(store.free_count(), 0u);
}

TEST(PacketStore, RecyclesReleasedSlabsLifoWithoutGrowing) {
  PacketStore store;
  for (PacketId id = 0; id < 3; ++id) store.acquire(id);
  store.release(1);
  store.release(0);
  EXPECT_EQ(store.free_count(), 2u);
  EXPECT_EQ(store.live(), 1u);

  // LIFO: the most recently released slab is reused first.
  EXPECT_EQ(store.acquire(7), 0u);
  EXPECT_EQ(store.acquire(8), 1u);
  EXPECT_EQ(store.capacity(), 3u);  // no growth
  EXPECT_EQ(store.recycled(), 2u);
  EXPECT_EQ(store.live(), 3u);
  EXPECT_EQ(store.peak_live(), 3u);
  EXPECT_EQ(store.id(0), 7u);
  EXPECT_EQ(store.id(1), 8u);
}

TEST(PacketStore, ReuseBumpsGenerationAndZeroesTheRecord) {
  PacketStore store;
  const std::uint32_t slab = store.acquire(3);
  Packet& pkt = store.at(slab);
  EXPECT_EQ(pkt.generation, 0u);
  pkt.arrival = 42;
  store.accesses(slab) = 9;
  store.sends(slab) = 4;
  store.coin_key(slab) = 0xdeadbeef;
  store.cache(slab, ProtocolStep{64.0, 0.25, 0.5, 0});
  store.release(slab);

  // The departed record keeps its id (and generation) until re-acquired,
  // so late readers can still tell who used to live there.
  EXPECT_EQ(store.id(slab), 3u);
  EXPECT_FALSE(store.at(slab).active);

  ASSERT_EQ(store.acquire(17), slab);
  const Packet& fresh = store.at(slab);
  EXPECT_EQ(store.id(slab), 17u);
  EXPECT_EQ(fresh.generation, 1u);  // reuse is detectable
  EXPECT_EQ(fresh.proto, nullptr);  // heavy state was released
  EXPECT_EQ(fresh.arrival, 0u);
  // Hot SoA lanes are back at their empty values: nothing of the departed
  // tenant (in particular not its coin key) can leak into the new one.
  EXPECT_EQ(store.accesses(slab), 0u);
  EXPECT_EQ(store.sends(slab), 0u);
  EXPECT_EQ(store.coin_key(slab), 0u);
  EXPECT_EQ(store.window(slab), 0.0);
  EXPECT_EQ(store.send_prob(slab), 0.0);
  EXPECT_EQ(store.send_given_access(slab), 0.0);
}

TEST(PacketStore, CoinKeysArePureInTheLogicalIdNotTheSlab) {
  // Two logical packets that will occupy the SAME slab in turn must draw
  // from decorrelated coin streams: the key is a function of (seed, id)
  // only, so slab reuse cannot alias their coins.
  const std::uint64_t seed = 99;
  const std::uint64_t stream_base = 1ULL << 32;  // kPacketCoinStream
  const CounterRng first(seed, stream_base + 5);
  const CounterRng second(seed, stream_base + 6);
  EXPECT_NE(first.key(), second.key());
  int differing = 0;
  for (std::uint64_t slot = 0; slot < 64; ++slot) {
    differing += first.draw(slot) != second.draw(slot);
  }
  EXPECT_GT(differing, 60);
  // And re-deriving the first id's key reproduces it exactly (purity).
  EXPECT_EQ(CounterRng(seed, stream_base + 5).key(), first.key());
}

TEST(PacketStore, PeakLiveTracksTheHighWaterMark) {
  PacketStore store;
  store.acquire(0);
  store.acquire(1);
  store.release(1);
  store.release(0);
  EXPECT_EQ(store.live(), 0u);
  store.acquire(2);
  EXPECT_EQ(store.peak_live(), 2u);  // high-water mark survives the drain
  EXPECT_EQ(store.capacity(), 2u);
}

// ----------------------------------------- open vs. closed bit-identity

/// Asserts each logical id arrives once and departs once, after its
/// arrival: a recycled slab must never re-emit (or alias) its departed
/// tenant's callbacks. The trace digest compares the streams themselves.
struct LifecycleLedger final : Observer {
  std::map<PacketId, Slot> arrivals;
  std::set<PacketId> departures;

  void on_arrival(Slot slot, PacketId id, const Protocol&) override {
    const bool fresh = arrivals.emplace(id, slot).second;
    EXPECT_TRUE(fresh) << "logical id " << id << " arrived twice (slab reuse leaked identity)";
  }

  void on_departure(Slot slot, PacketId id, Slot arrival_slot, std::uint64_t, std::uint64_t,
                    double) override {
    auto it = arrivals.find(id);
    ASSERT_NE(it, arrivals.end()) << "departure for id " << id << " without an arrival";
    EXPECT_EQ(arrival_slot, it->second) << "id " << id;
    EXPECT_GE(slot, arrival_slot) << "id " << id;
    const bool fresh = departures.insert(id).second;
    EXPECT_TRUE(fresh) << "logical id " << id
                       << " departed twice (recycled slab re-emitted callbacks)";
  }
};

struct Outcome {
  LifecycleLedger ledger;
  RecordedRun run;
};

enum class ArrKind { kScheduleWithDrains, kPoisson, kAqt, kRefillTruncated };

std::unique_ptr<ArrivalProcess> make_arrivals(ArrKind kind, std::uint64_t seed) {
  switch (kind) {
    case ArrKind::kScheduleWithDrains: {
      // Bursts far enough apart that the backlog drains between them:
      // with reclaim on, every burst after the first reuses slabs.
      std::vector<ArrivalBurst> bursts;
      for (int b = 0; b < 4; ++b) bursts.push_back({static_cast<Slot>(b) * 40000, 12});
      return std::make_unique<ScheduleArrivals>(bursts);
    }
    case ArrKind::kRefillTruncated:
      return std::make_unique<ScheduleArrivals>(
          std::vector<ArrivalBurst>{{0, 12}, {40000, 12}, {80000, 300}});
    case ArrKind::kPoisson:
      return std::make_unique<PoissonArrivals>(0.01, 48, Rng::stream(seed, 0xa1));
    case ArrKind::kAqt:
      return std::make_unique<AqtArrivals>(0.2, 64, AqtPattern::kRandom, 48,
                                           Rng::stream(seed, 0xa2));
  }
  return nullptr;
}

/// The store fuzz's jammer families, indexed by its `jam` draw.
constexpr JamKind kStoreJams[] = {JamKind::kNone, JamKind::kBurst, JamKind::kRandom};

Outcome run_once(EngineKind engine, const std::string& proto, ArrKind arr_kind, int jam_kind,
                 const RunConfig& cfg) {
  auto factory = make_protocol(proto);
  EXPECT_NE(factory, nullptr) << proto;
  auto arrivals = make_arrivals(arr_kind, cfg.seed);
  auto jammer = make_jammer(kStoreJams[jam_kind], cfg.seed);
  Outcome out;
  out.run = record_run(engine, *factory, *arrivals, *jammer, cfg, {&out.ledger});
  return out;
}

TEST(PacketStoreIdentityFuzz, OpenVsClosedBitIdenticalAcrossEnginesAndShards) {
  std::mt19937_64 gen(20260808);
  auto uniform = [&gen](std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(gen);
  };
  const char* kProtocols[] = {"low-sensing", "binary-exponential", "windowed-ethernet"};
  const ArrKind kArrivals[] = {ArrKind::kScheduleWithDrains, ArrKind::kPoisson, ArrKind::kAqt};

  std::uint64_t total_recycled = 0;
  for (int iter = 0; iter < 18; ++iter) {
    const EngineKind engine = iter % 2 == 0 ? EngineKind::kSlot : EngineKind::kEvent;
    const std::string proto = kProtocols[uniform(0, std::size(kProtocols) - 1)];
    const ArrKind arr = kArrivals[iter % std::size(kArrivals)];
    const int jam = static_cast<int>(uniform(0, 2));

    RunConfig cfg;
    cfg.seed = uniform(1, 1u << 30);
    cfg.max_active_slots = uniform(2000, 20000);

    const std::string label = "fuzz#" + std::to_string(iter) + "/" + proto + "/arr" +
                              std::to_string(static_cast<int>(arr)) + "/jam" +
                              std::to_string(jam) + "/" + engine_name(engine);

    // Reference: closed storage (no reuse), serial.
    RunConfig closed1 = cfg;
    closed1.shards = 1;
    closed1.reclaim = false;
    const Outcome ref = run_once(engine, proto, arr, jam, closed1);
    EXPECT_EQ(ref.run.result.slabs_recycled, 0u) << label;
    EXPECT_EQ(ref.run.result.slab_capacity, ref.run.result.counters.arrivals) << label;

    for (unsigned shards : {1u, 4u}) {
      RunConfig open = cfg;
      open.shards = shards;
      open.reclaim = true;
      const Outcome got = run_once(engine, proto, arr, jam, open);
      expect_same_run(ref.run, got.run, label + "/open-shards" + std::to_string(shards));
      // The memory model: slabs ever allocated never exceed what the
      // closed layout needs, and recycling accounts for the difference.
      EXPECT_LE(got.run.result.slab_capacity, ref.run.result.slab_capacity)
          << label << " shards " << shards;
      EXPECT_EQ(got.run.result.slabs_recycled,
                got.run.result.counters.arrivals - got.run.result.slab_capacity)
          << label << " shards " << shards;
      total_recycled += got.run.result.slabs_recycled;

      RunConfig closed = cfg;
      closed.shards = shards;
      closed.reclaim = false;
      expect_same_run(ref.run, run_once(engine, proto, arr, jam, closed).run,
                      label + "/closed-shards" + std::to_string(shards));
    }
  }
  // The sweep must actually exercise reuse, not vacuously pass on runs
  // whose backlog never drained.
  EXPECT_GT(total_recycled, 0u);
}

// The fuzz above drains its runs, so it has no survivors at finish().
// Here two small bursts drain and free their slabs, and a third, larger
// one lands on the recycled slabs and is cut off by the horizon with most
// of it still live. finish() must fold those survivors in ascending id,
// not in slab order, which recycling and sharding both scramble.
TEST(PacketStoreIdentity, TruncatedRunFoldsSurvivorsInIdOrderAtAnyPlacement) {
  for (const EngineKind engine : {EngineKind::kEvent, EngineKind::kSlot}) {
    RunConfig cfg;
    cfg.seed = 77;
    cfg.max_slot = 80000 + 300;
    RunConfig closed1 = cfg;
    closed1.shards = 1;
    closed1.reclaim = false;
    const Outcome ref = run_once(engine, "low-sensing", ArrKind::kRefillTruncated, 0, closed1);
    ASSERT_GT(ref.run.result.counters.backlog, 100u) << ref.run.result.counters.slot;
    for (const unsigned shards : {1u, 4u}) {
      for (const bool reclaim : {false, true}) {
        RunConfig got_cfg = cfg;
        got_cfg.shards = shards;
        got_cfg.reclaim = reclaim;
        const Outcome got =
            run_once(engine, "low-sensing", ArrKind::kRefillTruncated, 0, got_cfg);
        const std::string label = std::string(engine_name(engine)) + "/shards" +
                                  std::to_string(shards) + (reclaim ? "/open" : "/closed");
        if (reclaim) {
          EXPECT_GT(got.run.result.slabs_recycled, 0u) << label;
        }
        expect_same_run(ref.run, got.run, label);
      }
    }
  }
}

TEST(PacketStoreRecycling, RecycledSlabsNeverReplayDepartedPacketsCallbacks) {
  // Drain-and-refill arrivals force heavy slab reuse; the ledger (with
  // its fire-exactly-once assertions) proves no recycled slab ever
  // aliases the observer stream of its previous tenant.
  for (const EngineKind engine : {EngineKind::kSlot, EngineKind::kEvent}) {
    for (const unsigned shards : {1u, 4u}) {
      RunConfig cfg;
      cfg.seed = 7;
      cfg.shards = shards;
      cfg.reclaim = true;
      const Outcome out =
          run_once(engine, "low-sensing", ArrKind::kScheduleWithDrains, 0, cfg);
      const std::string label = std::string(engine_name(engine)) + "/shards" +
                                std::to_string(shards);
      EXPECT_TRUE(out.run.result.drained) << label;
      EXPECT_EQ(out.run.result.counters.arrivals, 48u) << label;
      EXPECT_EQ(out.ledger.arrivals.size(), 48u) << label;
      EXPECT_EQ(out.ledger.departures.size(), 48u) << label;
      // The run really recycled: resident slabs track the 12-packet
      // bursts, not the 48-packet total.
      EXPECT_GT(out.run.result.slabs_recycled, 0u) << label;
      EXPECT_LT(out.run.result.slab_capacity, 48u) << label;
      EXPECT_GE(out.run.result.slab_capacity, out.run.result.peak_backlog) << label;
    }
  }
}

}  // namespace
}  // namespace lowsense
