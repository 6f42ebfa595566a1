// The simulation core behind both engines: packet storage, arrival
// injection, contention bookkeeping, single-slot resolution, and THE time
// walk (run). The engines are this walk under two names; they differ in
// one line, how a quiet active span is accounted (see EngineKind and
// run). Accessor lookup is the per-shard AccessWheel, registered at every
// point a packet's next access changes, so both walks resolve the same
// accessors in the same slots by construction.
//
// OPEN-SYSTEM STORAGE. Packets live in per-shard PacketStores (slab/SoA
// layout, see packet_store.hpp). Arrivals stream in from the pull-based
// ArrivalProcess as the run advances — nothing is materialized up front —
// and with config.reclaim (the default) a departed packet's slab returns
// to its shard's free list at the end of the slot it departed in, and
// each shard's AccessWheel hands a bucket's chunks back to its pool when
// the bucket is popped or migrated, so resident memory is proportional to
// the live backlog even on unbounded arrival streams. Identity is the
// logical PacketId (injection sequence number, never reused): it keys the
// gap stream and the slot-keyed send coins, decides the owning shard
// (id % S), and defines the canonical order below, so reclamation cannot
// change any observable result. The stores are also the ONLY record of
// which packets are live (Packet::active): SimCore keeps no per-packet
// list of its own, so injection and departure touch only the packet's
// own shard, and finish() finds the survivors by walking the stores
// (for_each_live) and sorting them by id.
//
// SHARDING. A run with config.shards = S splits the packet population
// over S PacketShards (packet id -> shard id % S) and resolves each slot
// in three phases:
//
//   1. send-draw   — parallel per shard: sort the shard's bucket by
//                    logical id (insertion below kSmallBucket; above it
//                    the shard's IdSorter: a bitmap over id - min when
//                    the span is within a small multiple of the bucket
//                    size, sort_by_id otherwise), then per accessor read
//                    its lanes once, tally the access and draw its
//                    slot-keyed send coin inline (one scalar CounterRng
//                    hash).
//   2. arbitration — serial: merge senders in ascending-id order, consult
//                    the jammer, decide the outcome, depart the winner.
//   3. feedback    — parallel per shard: gather the accessors that did
//                    not depart into StepItems and make ONE
//                    factory.step_batch call (observation in, new window
//                    / send probabilities / gap out), then scatter: cache
//                    each step in the lanes, re-register the packet in
//                    the shard's wheel; then a serial shard-merge applies
//                    contention deltas and fires observers in
//                    ascending-id order.
//
// Determinism invariant: every cross-packet effect (the sender list, the
// floating-point contention accumulation, observer callbacks, the
// per-packet stats accumulation) happens in a CANONICAL order — ascending
// logical id within a slot, slot order across slots (departed packets
// fold their stats at departure; survivors are swept in ascending id at
// finish) — and every per-packet random draw comes either from the
// packet's own stream (gaps) or from a slot-keyed coin (sends), both
// keyed on the logical id. So the results of a run are a pure function
// of (scenario, seed), independent of the shard count, the engine, slab
// placement, and reclamation: --shards=S is bit-identical to --shards=1,
// and reclaim on is bit-identical to reclaim off.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "adversary/arrivals.hpp"
#include "adversary/jammer.hpp"
#include "core/executor.hpp"
#include "core/rng.hpp"
#include "core/types.hpp"
#include "protocols/protocol.hpp"
#include "sim/observer.hpp"
#include "sim/packet_shard.hpp"
#include "sim/run.hpp"

namespace lowsense::detail {

class SimCore {
 public:
  SimCore(const ProtocolFactory& factory, ArrivalProcess& arrivals, Jammer& jammer,
          const RunConfig& config);

  void add_observer(Observer* obs) { observers_.push_back(obs); }

  /// THE time walk: runs from slot 0 to drain or budget and returns the
  /// summary. Stretches with no packet in the system are skipped free
  /// (uncounted); every slot holding an arrival or an access is injected
  /// and resolved; the quiet active spans in between are walked as `walk`
  /// says, cut at the exact slot where max_slot or max_active_slots runs
  /// out. The run also ends when no access and no arrival is left to come
  /// (a drained system, or a backlog that will never access again).
  /// Call once.
  RunResult run(EngineKind walk);

  /// Visits every in-system packet as fn(store, slab): shard by shard,
  /// each store's slabs in slab order, skipping those not `active`. That
  /// is placement order, NOT the canonical one; sort by store.id(slab)
  /// wherever the order is observable. O(slabs allocated).
  template <typename Fn>
  void for_each_live(Fn&& fn) const {
    for (const PacketShard& sh : shards_) {
      const PacketStore& store = sh.store();
      for (std::uint32_t slab = 0; slab < store.capacity(); ++slab) {
        if (store.at(slab).active) fn(store, slab);
      }
    }
  }

  /// Recomputation of contention from the protocol objects (not the
  /// cached lanes); tests compare it against the incrementally maintained
  /// value to bound floating-point drift.
  double recompute_contention() const;

  /// Below this many accessors in a slot the phases run inline on the
  /// calling thread (in the same canonical order, so results do not
  /// change): a fork-join costs microseconds, which only pays off on the
  /// heavy buckets of the high-contention phase of a big run.
  static constexpr std::size_t kParallelMinAccessors = 128;

 private:
  /// Slot of the next pending arrival burst (kNoSlot when exhausted).
  Slot next_arrival_slot();
  /// Injects every pending burst with slot == t, registering each new
  /// packet's first access in its shard's wheel.
  void inject_arrivals_at(Slot t);
  /// Smallest slot with a scheduled access across all shards (kNoSlot
  /// when none): with next_arrival_slot, the walk's next-event query.
  Slot next_access_slot() const noexcept;
  /// Resolves one ACTIVE slot: pops every shard's wheel bucket for t
  /// (advancing the cursors) and runs the three phases above. Increments
  /// active_slots. Called with non-decreasing t.
  void resolve_slot(Slot t);
  /// Accounts an access-free active span [lo, hi] in one step.
  void account_quiet_span(Slot lo, Slot hi);
  SystemView view() const noexcept;
  bool arrivals_exhausted() const noexcept { return arrivals_done_ && !pending_; }
  void finish(RunResult* result);

  void depart(Slot t, std::size_t shard_idx, std::uint32_t slab);
  void resolve_phases(Slot t);
  void phase_send_draws(Slot t, PacketShard& shard);
  void phase_feedback(Slot t, Feedback fb, PacketShard& shard);
  /// Runs fn(shard) for every shard: on the pool when the slot is heavy
  /// enough, inline (in shard order) otherwise — same code path, same
  /// canonical results either way.
  template <typename Fn>
  void run_sharded(std::size_t total_accessors, Fn&& fn);
  /// Visits accessor-aligned entries of all shards in canonical
  /// ascending-LOGICAL-id order (the one merge both serial phases use).
  /// `list_of(shard)` selects the per-shard sorted id list; with a single
  /// shard that list is walked directly.
  template <typename GetList, typename Fn>
  void for_each_in_id_order(GetList&& list_of, Fn&& fn);

  const ProtocolFactory& factory_;
  ArrivalProcess& arrivals_;
  Jammer& jammer_;
  RunConfig config_;

  std::vector<PacketShard> shards_;
  std::optional<ParallelExecutor> pool_;  ///< persistent; shards > 1 only
  PacketId next_id_ = 0;                  ///< logical ids handed out so far
  std::vector<PacketId> scratch_sender_pids_;
  std::vector<std::size_t> scratch_pos_;  ///< per-shard merge cursors
  std::optional<ArrivalBurst> pending_;
  bool arrivals_done_ = false;
  /// The slot winner's slab, released (if config_.reclaim) only after
  /// phase 3 and the observers are done with the record.
  std::optional<std::pair<std::size_t, std::uint32_t>> reclaim_pending_;

  Counters counters_;
  std::vector<Observer*> observers_;

  // Result accumulation. Departed packets fold their per-packet stats at
  // departure (canonical: one departure per slot, slot order); survivors
  // are swept in ascending id order at finish().
  std::uint64_t max_accesses_ = 0;
  std::uint64_t peak_backlog_ = 0;
  double max_window_ = 0.0;
  StreamingStats access_stats_;
  StreamingStats send_stats_;
  StreamingStats latency_stats_;
  LogHistogram access_hist_{2.0};
};

}  // namespace lowsense::detail

namespace lowsense {

/// SlotEngine and EventEngine (slot_engine.hpp, event_engine.hpp): a
/// SimCore bound to one walk, with no logic of its own.
template <EngineKind kWalk>
class WalkEngine {
 public:
  WalkEngine(const ProtocolFactory& factory, ArrivalProcess& arrivals, Jammer& jammer,
             const RunConfig& config)
      : core_(factory, arrivals, jammer, config) {}

  void add_observer(Observer* obs) { core_.add_observer(obs); }

  /// Runs to drain or budget; returns the summary.
  RunResult run() { return core_.run(kWalk); }

  const detail::SimCore& core() const noexcept { return core_; }

 private:
  detail::SimCore core_;
};

}  // namespace lowsense
