// Sharded-execution correctness: PacketShard unit/model checks (the
// sharded counterpart of sim_access_wheel_test.cpp) and the load-bearing
// determinism guarantee of the three-phase resolve — a run with
// config.shards = S is BIT-IDENTICAL to the same run with shards = 1, for
// every engine, protocol family, jammer family, and budget-truncation
// edge. Sharding may only change wall time, never a single counter,
// departure, or floating-point accumulation (the serial shard-merge pins
// the FP order; see sim_core.hpp). "Bit-identical" is expect_same_run
// (run_identity.hpp): first_difference finds no differing RunResult
// field and the trace digests agree.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "protocols/fixed_probability.hpp"
#include "run_identity.hpp"
#include "sim/event_engine.hpp"
#include "sim/packet_shard.hpp"
#include "sim/slot_engine.hpp"

namespace lowsense {
namespace {

using detail::PacketShard;

// ------------------------------------------------------ PacketShard unit

TEST(PacketShard, AcquireAndLookupRoundTrip) {
  PacketShard shard;
  // As shard 1 of 3 would: ids 1, 4, 7, ... in global id order.
  std::vector<std::uint32_t> slabs;
  for (std::uint32_t id : {1u, 4u, 7u, 10u}) {
    const std::uint32_t slab = shard.store().acquire(id);
    shard.store().at(slab).arrival = id;  // marker
    slabs.push_back(slab);
  }
  EXPECT_EQ(shard.store().live(), 4u);
  for (std::size_t i = 0; i < slabs.size(); ++i) {
    EXPECT_EQ(shard.store().at(slabs[i]).arrival, shard.store().id(slabs[i]));
  }
}

TEST(PacketShard, WheelsAreIndependentPerShard) {
  PacketShard a, b;
  a.wheel().schedule(0, 5);
  b.wheel().schedule(1, 3);
  EXPECT_EQ(a.wheel().next_scheduled(), 5u);
  EXPECT_EQ(b.wheel().next_scheduled(), 3u);
  std::vector<std::uint32_t> out;
  b.wheel().pop_slot(3, &out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1}));
  EXPECT_TRUE(b.wheel().empty());
  EXPECT_FALSE(a.wheel().empty());
}

// Randomized model check, mirroring AccessWheel.RandomizedAgainstReferenceMap
// but across a shard set: entries are routed to shard id % S, the popped
// union per slot must equal the reference map's bucket, and the min over
// the shards' next_scheduled must equal the global minimum.
TEST(PacketShard, ShardedWheelsMatchGlobalReferenceMap) {
  constexpr std::uint32_t kShards = 4;
  std::mt19937_64 gen(321);
  auto uniform = [&gen](std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(gen);
  };

  std::vector<PacketShard> shards(kShards);
  std::map<Slot, std::vector<std::uint32_t>> model;
  Slot t = 0;
  std::uint32_t next_id = 0;

  for (int step = 0; step < 3000; ++step) {
    const int k = static_cast<int>(uniform(0, 2));
    for (int i = 0; i < k; ++i) {
      Slot target = t + uniform(0, uniform(0, 1) ? 40 : 20000);
      shards[next_id % kShards].wheel().schedule(next_id, target);
      model[target].push_back(next_id);
      ++next_id;
    }

    Slot expect_next = model.empty() ? kNoSlot : model.begin()->first;
    Slot got_next = kNoSlot;
    for (const PacketShard& s : shards) {
      got_next = std::min(got_next, s.wheel().next_scheduled());
    }
    ASSERT_EQ(got_next, expect_next) << "step " << step;

    Slot target = t + uniform(0, 2);
    if (!model.empty()) {
      target = uniform(0, 1) ? model.begin()->first : std::min(target, model.begin()->first);
    }
    std::vector<std::uint32_t> got;
    for (PacketShard& s : shards) s.wheel().pop_slot(target, &got);
    std::vector<std::uint32_t> want;
    if (auto it = model.find(target); it != model.end()) {
      want = it->second;
      model.erase(it);
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "step " << step << " slot " << target;
    t = target + 1;
  }
}

// ------------------------------------------- sharded-vs-serial identity

/// A batch run at shards = 2, 4 and 8 is the same run as at shards = 1.
void expect_shard_counts_identical(EngineKind engine, const std::string& proto, JamKind jam,
                                   const RunConfig& base, std::uint64_t n_batch,
                                   const std::string& label) {
  auto factory = make_protocol(proto);
  ASSERT_NE(factory, nullptr) << proto;
  const auto run = [&](unsigned shards) {
    BatchArrivals arrivals(n_batch);
    auto jammer = make_jammer(jam, base.seed);
    RunConfig cfg = base;
    cfg.shards = shards;
    return record_run(engine, *factory, arrivals, *jammer, cfg);
  };
  const RecordedRun serial = run(1);
  for (unsigned shards : {2u, 4u, 8u}) {
    expect_same_run(serial, run(shards), label + "/shards" + std::to_string(shards));
  }
}

TEST(ShardIdentity, GridAcrossEnginesProtocolsAndJammers) {
  RunConfig cfg;
  cfg.seed = 11;
  cfg.max_active_slots = 60000;
  for (const char* proto : {"low-sensing", "binary-exponential", "windowed-ethernet"}) {
    for (JamKind jam : {JamKind::kNone, JamKind::kBurst, JamKind::kReactiveBlanket,
                        JamKind::kRandom, JamKind::kRandomBand}) {
      const std::string label =
          std::string(proto) + "/jam" + std::to_string(static_cast<int>(jam));
      expect_shard_counts_identical(EngineKind::kSlot, proto, jam, cfg, 96, "slot/" + label);
      expect_shard_counts_identical(EngineKind::kEvent, proto, jam, cfg, 96, "event/" + label);
    }
  }
}

TEST(ShardIdentity, HeavyBucketsCrossTheParallelThreshold) {
  // A 2048-packet batch puts thousands of accessors in the first slots —
  // far beyond kParallelMinAccessors — so this exercises the REAL
  // fork-join path on the shard pool, not just the inline fallback.
  RunConfig cfg;
  cfg.seed = 3;
  cfg.max_active_slots = 40000;
  expect_shard_counts_identical(EngineKind::kSlot, "low-sensing", JamKind::kNone, cfg, 2048,
                                "slot/heavy");
  expect_shard_counts_identical(EngineKind::kEvent, "low-sensing", JamKind::kRandom, cfg, 2048,
                                "event/heavy");
}

// Seeded fuzz over the budget-truncation edges (max_slot mid-run,
// max_active_slots mid-span, arrivals past the budget): the engine fuzz's
// generated cases (draw_fuzz_case), diffing shard counts instead of
// engines.
TEST(ShardIdentityFuzz, RandomizedScenariosMatchAcrossShardCounts) {
  std::mt19937_64 gen(20260729);
  for (int iter = 0; iter < 32; ++iter) {
    const FuzzCase c = draw_fuzz_case(gen, kAllJamKinds);
    const unsigned shards = 2u << std::uniform_int_distribution<unsigned>(0, 2)(gen);  // 2, 4, 8
    const EngineKind engine =
        std::uniform_int_distribution<int>(0, 1)(gen) ? EngineKind::kSlot : EngineKind::kEvent;
    RunConfig sharded = c.cfg;
    sharded.shards = shards;
    expect_same_run(c.run(engine, c.cfg), c.run(engine, sharded),
                    "fuzz#" + std::to_string(iter) + "/" + c.label + "/shards" +
                        std::to_string(shards) +
                        (engine == EngineKind::kSlot ? "/slot" : "/event"));
  }
}

// The cross-product guarantee: a sharded EVENT engine must still equal a
// serial SLOT engine — sharding and gap-skipping compose.
TEST(ShardIdentity, ShardedEventEngineEqualsSerialSlotEngine) {
  auto factory = make_protocol("low-sensing");
  RunConfig cfg;
  cfg.seed = 17;
  cfg.max_active_slots = 50000;

  BatchArrivals arrA(150), arrB(150);
  auto jamA = make_jammer(JamKind::kRandom, cfg.seed);
  auto jamB = make_jammer(JamKind::kRandom, cfg.seed);

  RunConfig slot_cfg = cfg;
  slot_cfg.shards = 1;
  RunConfig event_cfg = cfg;
  event_cfg.shards = 4;

  const RecordedRun a = record_run(EngineKind::kSlot, *factory, arrA, *jamA, slot_cfg);
  const RecordedRun b = record_run(EngineKind::kEvent, *factory, arrB, *jamB, event_cfg);
  expect_same_run(a, b, "slot1-vs-event4");
}

// A protocol that never accesses again (the silent-backlog regression)
// must terminate identically with per-shard wheels all empty.
TEST(ShardIdentity, PermanentlySilentBacklogTerminatesSharded) {
  FixedProbabilityFactory never_sends(0.0);
  for (unsigned shards : {1u, 4u}) {
    BatchArrivals arr(4);
    NoJammer jam;
    RunConfig cfg;
    cfg.seed = 5;
    cfg.shards = shards;
    SlotEngine engine(never_sends, arr, jam, cfg);
    const RunResult r = engine.run();
    EXPECT_FALSE(r.drained);
    EXPECT_EQ(r.counters.backlog, 4u);
    EXPECT_EQ(r.counters.active_slots, 1u) << "shards " << shards;
  }
}

// ------------------------------------------------- phase-1 send coins

/// Replays phase 1's send decisions from outside the engine: a packet
/// that accesses slot t sends iff CounterRng(seed, 2^32 + id).bernoulli(
/// t, p), where p is its send_given_access lane as of its previous
/// access (or injection). The observer snapshots each live packet's lanes
/// after every slot; a packet whose accesses lane moved by one accessed
/// the slot, and the slot's send tallies are checked against that coin,
/// for accessors and non-accessors alike.
struct SendCoinReplay final : Observer {
  struct Snap {
    std::uint64_t accesses = 0;
    double p = 0.0;
    std::uint64_t sends = 0;
  };
  const detail::SimCore* core = nullptr;
  std::uint64_t seed = 0;
  std::map<PacketId, Snap> snaps;
  std::uint64_t coins = 0;
  std::uint64_t sent = 0;
  std::uint64_t fractional_p = 0;  ///< coins drawn with 0 < p < 1
  std::uint64_t mismatches = 0;
  std::uint64_t slot_senders = 0;  ///< senders of the slot being checked

  bool coin(PacketId id, Slot t, double p) {
    ++coins;
    if (p > 0.0 && p < 1.0) ++fractional_p;
    const bool s = CounterRng(seed, (1ULL << 32) + id).bernoulli(t, p);
    sent += s ? 1 : 0;
    return s;
  }
  static Snap snapshot(const detail::PacketStore& store, std::uint32_t slab) {
    return {store.accesses(slab), store.send_given_access(slab), store.sends(slab)};
  }
  void on_arrival(Slot, PacketId id, const Protocol&) override {
    bool found = false;
    core->for_each_live([&](const detail::PacketStore& store, std::uint32_t slab) {
      if (store.id(slab) != id) return;
      snaps[id] = snapshot(store, slab);
      found = true;
    });
    ASSERT_TRUE(found) << "injected packet " << id << " is not live";
  }
  void on_departure(Slot t, PacketId id, Slot, std::uint64_t accesses, std::uint64_t sends,
                    double) override {
    const Snap snap = snaps.at(id);
    // The winner accessed slot t and sent: its coin must have come up.
    if (accesses != snap.accesses + 1 || !coin(id, t, snap.p) || sends != snap.sends + 1) {
      ++mismatches;
    }
    ++slot_senders;
    snaps.erase(id);
  }
  void on_slot(const SlotInfo& info, const Counters&) override {
    std::size_t live = 0;
    core->for_each_live([&](const detail::PacketStore& store, std::uint32_t slab) {
      ++live;
      const PacketId id = store.id(slab);
      Snap& snap = snaps.at(id);
      const Snap now = snapshot(store, slab);
      const bool accessed = now.accesses == snap.accesses + 1;
      const bool want = accessed && coin(id, info.slot, snap.p);
      slot_senders += want ? 1 : 0;
      if ((!accessed && now.accesses != snap.accesses) ||
          now.sends != snap.sends + (want ? 1 : 0)) {
        ++mismatches;
      }
      snap = now;
    });
    if (live != snaps.size() || slot_senders != info.senders) ++mismatches;
    slot_senders = 0;
  }
};

TEST(SendCoins, PhaseOneDrawsTheSlotKeyedCoinOfEachAccessor) {
  auto factory = make_protocol("low-sensing");
  for (const bool stream : {true, false}) {
    for (const bool slot_engine : {true, false}) {
      for (const unsigned shards : {1u, 4u}) {
        const std::string label = std::string(stream ? "stream" : "batch") + "/" +
                                  (slot_engine ? "slot" : "event") + "/shards" +
                                  std::to_string(shards);
        RunConfig cfg;
        cfg.seed = 23;
        cfg.shards = shards;
        cfg.max_slot = 40000;
        // A jammed Poisson stream (one or two accessors a slot), and a
        // batch whose first buckets take the radix sort and the fork.
        std::unique_ptr<ArrivalProcess> arrivals;
        if (stream) {
          arrivals = std::make_unique<PoissonArrivals>(0.05, 0, Rng(5));
        } else {
          arrivals = std::make_unique<BatchArrivals>(400);
        }
        auto jammer = make_jammer(stream ? JamKind::kRandom : JamKind::kNone, cfg.seed);
        SendCoinReplay replay;
        replay.seed = cfg.seed;
        const auto run = [&](auto& engine) {
          replay.core = &engine.core();
          engine.add_observer(&replay);
          engine.run();
        };
        if (slot_engine) {
          SlotEngine engine(*factory, *arrivals, *jammer, cfg);
          run(engine);
        } else {
          EventEngine engine(*factory, *arrivals, *jammer, cfg);
          run(engine);
        }
        EXPECT_EQ(replay.mismatches, 0u) << label;
        EXPECT_GT(replay.coins, 1000u) << label;
        EXPECT_GT(replay.fractional_p, 100u) << label;
        EXPECT_GT(replay.sent, 100u) << label;
        EXPECT_LT(replay.sent, replay.coins) << label;
      }
    }
  }
}

}  // namespace
}  // namespace lowsense
