// Slab/SoA packet storage with free-list id recycling — the open-system
// refactor that lets resident memory track the LIVE backlog instead of
// the arrival horizon. The shard's other per-packet structure, its
// AccessWheel, follows the same rule: its bucket chunks return to a pool
// free list on every pop and migration (see access_wheel.hpp).
//
// IDENTITY VS PLACEMENT. A packet has two distinct numbers:
//
//   * its logical PacketId — the global injection sequence number. It is
//     unique per logical packet forever (never reused), it keys the
//     packet's gap stream Rng::stream(seed, id) and its slot-keyed send
//     coins CounterRng(seed, 2^32 + id) (pure in (seed, id, slot)), it
//     decides the owning shard (id % S), and it defines the CANONICAL
//     ascending-id order every cross-packet effect is applied in;
//
//   * its slab index — where the record currently lives inside its
//     shard's PacketStore. Slabs of departed packets are pushed on a
//     free list and handed to later arrivals, so slab indices are
//     recycled and carry NO identity: nothing observable (coins, shard
//     assignment, merge order, observer callbacks) may ever depend on
//     them. Each slab carries a generation counter, bumped on reuse, so
//     tests and debug assertions can detect stale handles.
//
// LIVENESS. Packet::active is the run's only record of which packets are
// in the system: set at injection, cleared at departure, both on the
// packet's own slab. There is no separate live list to keep in step, so
// anything that needs the live set (the survivor sweep at finish, the
// contention recompute, test probes) walks the slabs, and sorts by
// logical id wherever the order is observable.
//
// Because every observable quantity is keyed on the logical id and never
// on the slab, a run with reclamation enabled is bit-identical to the
// same run with reclamation off (and to the pre-slab dense layout) on
// any finite scenario — which bench_t14's hard cross-check enforces.
//
// LAYOUT. The hot per-access lanes — logical id, slot-keyed coin key,
// the cached protocol outputs (window, send probability, send probability
// given access), and the access/send tallies — live in separate
// parallel arrays (structure-of-arrays), each stored once (a packet's
// next access lives only in its shard's AccessWheel). Phase
// 1 (sort, coins, tallies) and the shard merge read only these lanes and
// never call into the protocol object; the cold remainder (protocol
// state, gap stream, arrival slot, generation, the `active` flag) stays
// in the per-slab record, touched by injection, departure, and once per
// access by the feedback phase.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/rng.hpp"
#include "core/types.hpp"
#include "protocols/protocol.hpp"

namespace lowsense::detail {

/// Cold per-packet record (one slab each; hot lanes are in PacketStore).
struct Packet {
  std::unique_ptr<Protocol> proto;
  Rng rng{0};  ///< per-packet stream: gap draws (geometric / windowed)
  Slot arrival = 0;
  std::uint32_t generation = 0;  ///< slab reuse count (0 = first tenant)
  bool active = false;           ///< in the system: injected, not yet departed
};

class PacketStore {
 public:
  /// Slab for a NEW logical packet: pops the free list when reclamation
  /// has returned one (bumping its generation), grows the arrays
  /// otherwise. The record comes back zeroed except for `generation`; the
  /// id lane holds `id` and the other hot lanes their empty values.
  std::uint32_t acquire(PacketId id) {
    std::uint32_t slab;
    if (!free_.empty()) {
      slab = free_.back();
      free_.pop_back();
      ++recycled_;
      Packet& pkt = recs_[slab];
      const std::uint32_t gen = pkt.generation + 1;
      pkt = Packet{};
      pkt.generation = gen;
    } else {
      slab = static_cast<std::uint32_t>(recs_.size());
      recs_.emplace_back();
      id_.emplace_back();
      coin_key_.emplace_back();
      window_.emplace_back();
      send_prob_.emplace_back();
      send_given_access_.emplace_back();
      accesses_.emplace_back();
      sends_.emplace_back();
    }
    id_[slab] = id;
    coin_key_[slab] = 0;
    window_[slab] = 0.0;
    send_prob_[slab] = 0.0;
    send_given_access_[slab] = 0.0;
    accesses_[slab] = 0;
    sends_[slab] = 0;
    ++live_;
    if (live_ > peak_live_) peak_live_ = live_;
    return slab;
  }

  /// Returns a departed packet's slab to the free list and releases its
  /// heavy state (the protocol instance). The slab keeps its id and
  /// generation until it is re-acquired, so late readers can still
  /// see `active == false` and stale-handle assertions stay meaningful.
  void release(std::uint32_t slab) {
    assert(slab < recs_.size() && !recs_[slab].active);
    recs_[slab].proto.reset();
    free_.push_back(slab);
    assert(live_ > 0);
    --live_;
  }

  Packet& at(std::uint32_t slab) noexcept {
    assert(slab < recs_.size());
    return recs_[slab];
  }
  const Packet& at(std::uint32_t slab) const noexcept {
    assert(slab < recs_.size());
    return recs_[slab];
  }

  // Hot SoA lanes, aligned with the slab index. window, send_prob and
  // send_given_access cache the protocol's outputs as of its last step().
  PacketId id(std::uint32_t slab) const noexcept { return id_[slab]; }
  std::uint64_t& coin_key(std::uint32_t slab) noexcept { return coin_key_[slab]; }
  double window(std::uint32_t slab) const noexcept { return window_[slab]; }
  double send_prob(std::uint32_t slab) const noexcept { return send_prob_[slab]; }
  double send_given_access(std::uint32_t slab) const noexcept {
    return send_given_access_[slab];
  }
  std::uint64_t& accesses(std::uint32_t slab) noexcept { return accesses_[slab]; }
  std::uint64_t accesses(std::uint32_t slab) const noexcept { return accesses_[slab]; }
  std::uint64_t& sends(std::uint32_t slab) noexcept { return sends_[slab]; }
  std::uint64_t sends(std::uint32_t slab) const noexcept { return sends_[slab]; }

  /// Caches a protocol step's outputs in the lanes (window and both send
  /// probabilities; the gap is the caller's to schedule).
  void cache(std::uint32_t slab, const ProtocolStep& step) noexcept {
    window_[slab] = step.window;
    send_prob_[slab] = step.send_prob;
    send_given_access_[slab] = step.send_given_access;
  }

  /// Slabs ever allocated. With reclamation on this tracks the shard's
  /// PEAK live population; without it, the shard's share of all arrivals.
  std::uint32_t capacity() const noexcept { return static_cast<std::uint32_t>(recs_.size()); }
  std::uint64_t live() const noexcept { return live_; }
  std::uint64_t peak_live() const noexcept { return peak_live_; }
  /// Acquisitions served from the free list (slab reuses).
  std::uint64_t recycled() const noexcept { return recycled_; }
  std::uint64_t free_count() const noexcept { return free_.size(); }

 private:
  std::vector<Packet> recs_;
  std::vector<PacketId> id_;               ///< logical id (never recycled)
  std::vector<std::uint64_t> coin_key_;    ///< CounterRng::key() per slab
  std::vector<double> window_;             ///< protocol window()
  std::vector<double> send_prob_;          ///< cached contribution to C(t)
  std::vector<double> send_given_access_;  ///< the phase-1 send-coin bias
  std::vector<std::uint64_t> accesses_;    ///< channel accesses so far
  std::vector<std::uint64_t> sends_;       ///< transmissions so far
  std::vector<std::uint32_t> free_;        ///< reclaimed slabs (LIFO)
  std::uint64_t live_ = 0;
  std::uint64_t peak_live_ = 0;
  std::uint64_t recycled_ = 0;
};

}  // namespace lowsense::detail
