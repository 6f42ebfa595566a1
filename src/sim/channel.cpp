// Implementation of the shared simulation core: the ternary-feedback
// channel semantics of §1.1 live in the three-phase resolve below. See
// sim_core.hpp for the open-system storage, sharding, and determinism
// invariants.
#include "sim/sim_core.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <limits>
#include <tuple>
#include <type_traits>

namespace lowsense::detail {

namespace {

/// Stream offset of the per-packet send-coin keys: the packet with
/// logical id i draws its coins from CounterRng(seed, kPacketCoinStream
/// + i). The offset keeps the packet key space disjoint from the small
/// stream ids the jammers use (0xb1, 0xb2 — see jammer_rng in
/// harness/experiment.hpp). Logical ids are never recycled, so a slab's
/// next tenant always draws from a fresh, decorrelated coin key.
constexpr std::uint64_t kPacketCoinStream = 1ULL << 32;

constexpr PacketId kNoPacket = std::numeric_limits<PacketId>::max();

}  // namespace

void sort_by_id(std::vector<IdSlab>& items, std::vector<IdSlab>& scratch) {
  const std::size_t n = items.size();
  if (n < kRadixSortMinBucket) {
    std::sort(items.begin(), items.end());
    return;
  }
  PacketId lo = items.front().first;
  PacketId hi = lo;
  for (const IdSlab& e : items) {
    lo = std::min(lo, e.first);
    hi = std::max(hi, e.first);
  }
  const PacketId span = hi - lo;
  scratch.resize(n);
  // One stable counting pass per 8-bit digit of (id - lo), low digit
  // first, ping-ponging between the two buffers.
  for (unsigned shift = 0; shift < 64 && (span >> shift) != 0; shift += 8) {
    std::array<std::uint32_t, 256> pos{};
    for (const IdSlab& e : items) ++pos[((e.first - lo) >> shift) & 0xff];
    std::uint32_t sum = 0;
    for (std::uint32_t& c : pos) {
      const std::uint32_t count = c;
      c = sum;
      sum += count;
    }
    for (const IdSlab& e : items) scratch[pos[((e.first - lo) >> shift) & 0xff]++] = e;
    items.swap(scratch);
  }
}

void IdSorter::sort(std::span<PacketId> ids, std::span<std::uint32_t> slabs) {
  const std::size_t k = ids.size();
  assert(slabs.size() == k);
  if (k == 0) return;
  PacketId lo = ids[0];
  PacketId hi = lo;
  for (const PacketId id : ids) {
    lo = std::min(lo, id);
    hi = std::max(hi, id);
  }
  const PacketId span = hi - lo;
  if (span > bitmap_cutoff(k)) {
    tmp_.resize(k);
    for (std::size_t i = 0; i < k; ++i) tmp_[i] = {ids[i], slabs[i]};
    sort_by_id(tmp_, scratch_);
    for (std::size_t i = 0; i < k; ++i) {
      ids[i] = tmp_[i].first;
      slabs[i] = tmp_[i].second;
    }
    return;
  }
  // Grow (never shrink) both arrays to the span, doubling up to the cap so
  // that a slowly widening span does not reallocate every slot.
  const auto need = static_cast<std::size_t>(span) + 1;
  if (slab_at_.size() < need) {
    const std::size_t size =
        std::min<std::size_t>(std::max(need, 2 * slab_at_.size()), kBitmapCap);
    slab_at_.reserve(size);
    slab_at_.resize(size);
    bits_.resize((size + 63) / 64);
  }
  for (std::size_t i = 0; i < k; ++i) {
    const auto off = static_cast<std::size_t>(ids[i] - lo);
    bits_[off / 64] |= std::uint64_t{1} << (off % 64);
    slab_at_[off] = slabs[i];
  }
  std::size_t pos = 0;
  const std::size_t words = static_cast<std::size_t>(span / 64) + 1;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word = bits_[w];
    if (word == 0) continue;
    bits_[w] = 0;
    do {
      const std::size_t off = w * 64 + static_cast<std::size_t>(std::countr_zero(word));
      ids[pos] = lo + off;
      slabs[pos] = slab_at_[off];
      ++pos;
      word &= word - 1;
    } while (word != 0);
  }
  assert(pos == k);  // distinct ids: one bit each
}

SimCore::SimCore(const ProtocolFactory& factory, ArrivalProcess& arrivals, Jammer& jammer,
                 const RunConfig& config)
    : factory_(factory), arrivals_(arrivals), jammer_(jammer), config_(config) {
  unsigned shards = config.shards;
  if (shards == 0) shards = ParallelExecutor::default_threads();
  if (shards < 1) shards = 1;
  shards_.resize(shards);
  scratch_pos_.resize(shards);
  if (shards > 1) {
    // The caller thread works shard 0, so the pool only needs S-1
    // workers. Idle-spin is enabled only when the host can actually run
    // the shards concurrently — the resolve forks twice per heavy slot,
    // so the futex wakeup would otherwise dominate; on an oversubscribed
    // box spinning would steal the cycles the working thread needs.
    // "Oversubscribed" includes running INSIDE a replicate-pool worker
    // (--threads=K x --shards=M spawns K sibling SimCores), not just a
    // host with fewer cores than shards.
    const bool spin = !ParallelExecutor::on_worker_thread() &&
                      ParallelExecutor::default_threads() >= shards;
    pool_.emplace(shards - 1, spin ? 40 : 0);
  }
}

Slot SimCore::next_arrival_slot() {
  if (!pending_ && !arrivals_done_) {
    pending_ = arrivals_.next();
    if (!pending_) arrivals_done_ = true;
  }
  return pending_ ? pending_->slot : kNoSlot;
}

void SimCore::inject_arrivals_at(Slot t) {
  while (next_arrival_slot() == t) {
    const std::uint64_t count = pending_->count;
    pending_.reset();
    for (std::uint64_t i = 0; i < count; ++i) {
      const PacketId id = next_id_++;
      PacketShard& sh = shards_[id % shards_.size()];
      PacketStore& store = sh.store();
      const std::uint32_t slab = store.acquire(id);
      Packet& pkt = store.at(slab);
      pkt.proto = factory_.create();
      pkt.rng = Rng::stream(config_.seed, id);
      store.coin_key(slab) = CounterRng(config_.seed, kPacketCoinStream + id).key();
      pkt.arrival = t;
      pkt.active = true;
      ProtocolStep fresh;
      pkt.proto->settle(pkt.rng, &fresh);
      store.cache(slab, fresh);
      // A packet injected at slot t may act in slot t itself (Fig. 1 sets
      // w_u(t) = w_min at the injection slot), so the first gap is
      // anchored at t, not t+1.
      const Slot first = fresh.gap == kNoSlot ? kNoSlot : t + fresh.gap - 1;
      if (first != kNoSlot) sh.wheel().schedule(slab, first);
      counters_.contention += fresh.send_prob;
      ++counters_.arrivals;
      ++counters_.backlog;
      max_window_ = std::max(max_window_, fresh.window);
      for (auto* obs : observers_) obs->on_arrival(t, id, *pkt.proto);
    }
    peak_backlog_ = std::max(peak_backlog_, counters_.backlog);
  }
}

SystemView SimCore::view() const noexcept {
  SystemView v;
  v.n_active = counters_.backlog;
  v.contention = counters_.contention;
  v.arrivals = counters_.arrivals;
  v.successes = counters_.successes;
  return v;
}

Slot SimCore::next_access_slot() const noexcept {
  Slot next = kNoSlot;
  for (const PacketShard& s : shards_) next = std::min(next, s.wheel().next_scheduled());
  return next;
}

void SimCore::depart(Slot t, std::size_t shard_idx, std::uint32_t slab) {
  PacketStore& store = shards_[shard_idx].store();
  Packet& pkt = store.at(slab);
  assert(pkt.active);
  // No wheel entry to drop: a packet departs only in a slot it accessed,
  // and its entry for that slot was popped before the resolve ran.
  pkt.active = false;
  counters_.contention -= store.send_prob(slab);
  --counters_.backlog;
  ++counters_.successes;
  latency_stats_.add(static_cast<double>(t - pkt.arrival + 1));
  // Fold the departed packet's per-packet stats NOW — its record may be
  // reclaimed at the end of this slot. At most one packet departs per
  // slot, so the accumulation order (departures in slot order, then the
  // survivors in ascending id at finish) is canonical: independent of
  // engine, shard count, slab placement, and reclamation.
  const std::uint64_t accesses = store.accesses(slab);
  const std::uint64_t sends = store.sends(slab);
  access_stats_.add(static_cast<double>(accesses));
  send_stats_.add(static_cast<double>(sends));
  access_hist_.add(static_cast<double>(accesses));
  max_accesses_ = std::max(max_accesses_, accesses);
  for (auto* obs : observers_) {
    obs->on_departure(t, store.id(slab), pkt.arrival, accesses, sends, store.window(slab));
  }
  // The slab is released only after phase 3 — it is still referenced by
  // this slot's accessor list (which checks `active`).
  if (config_.reclaim) reclaim_pending_ = {shard_idx, slab};
}

template <typename Fn>
void SimCore::run_sharded(std::size_t total_accessors, Fn&& fn) {
  if (pool_ && total_accessors >= kParallelMinAccessors) {
    try {
      for (std::size_t s = 1; s < shards_.size(); ++s) {
        // Two references (16 bytes, trivially copyable): fits
        // std::function's small-object buffer, so the twice-per-slot fork
        // never mallocs. `fn` outlives the wait below.
        PacketShard& shard = shards_[s];
        auto task = [&fn, &shard] { fn(shard); };
        static_assert(sizeof(task) == 2 * sizeof(void*) &&
                      std::is_trivially_copyable_v<decltype(task)>);
        pool_->submit(task);
      }
      fn(shards_[0]);  // the calling thread takes shard 0
    } catch (...) {
      // In-flight workers still mutate shard scratch: they MUST drain
      // before this frame unwinds (whether submit or our own share
      // threw). The caller's exception wins over any worker one.
      try {
        pool_->wait();
      } catch (...) {
      }
      throw;
    }
    pool_->wait();
  } else {
    for (PacketShard& shard : shards_) fn(shard);
  }
}

// Visits every accessor-aligned entry across the shards in canonical
// ascending-LOGICAL-id order: `list_of(shard)` selects the (sorted)
// per-shard id list, fn(id, shard_index, pos) handles one entry. Both
// serial phases use THIS loop, so they cannot disagree on the canonical
// order — which is the determinism contract. A single shard's list is
// already in that order and is walked directly.
template <typename GetList, typename Fn>
void SimCore::for_each_in_id_order(GetList&& list_of, Fn&& fn) {
  if (shards_.size() == 1) {
    const std::vector<PacketId>& ids = list_of(shards_.front());
    for (std::size_t pos = 0; pos < ids.size(); ++pos) fn(ids[pos], 0, pos);
    return;
  }
  std::fill(scratch_pos_.begin(), scratch_pos_.end(), 0);
  for (;;) {
    PacketId best = kNoPacket;
    std::size_t best_shard = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const std::vector<PacketId>& ids = list_of(shards_[s]);
      if (scratch_pos_[s] < ids.size() && ids[scratch_pos_[s]] < best) {
        best = ids[scratch_pos_[s]];
        best_shard = s;
      }
    }
    if (best == kNoPacket) break;
    fn(best, best_shard, scratch_pos_[best_shard]++);
  }
}

// Phase 1 — parallel per shard: canonicalize the bucket (ascending
// LOGICAL id — slab order is placement, not identity, and recycling
// makes it non-monotone), then one pass that tallies each access and
// draws its slot-keyed send coin inline — a scalar CounterRng hash,
// since a slot usually has one or two accessors. Reads and writes only
// shard-owned lanes; the protocol objects are not touched.
void SimCore::phase_send_draws(Slot t, PacketShard& shard) {
  PacketStore& store = shard.store();
  auto& acc = shard.accessors;
  auto& ids = shard.accessor_ids;
  const std::size_t k = acc.size();
  ids.resize(k);
  if (k < kSmallBucket) {
    // Insertion sort in place on the two aligned lists: no (id, slab)
    // pair round trip, and a one-accessor bucket costs one id load.
    for (std::size_t i = 0; i < k; ++i) {
      const std::uint32_t slab = acc[i];
      const PacketId id = store.id(slab);
      std::size_t j = i;
      for (; j > 0 && ids[j - 1] > id; --j) {
        ids[j] = ids[j - 1];
        acc[j] = acc[j - 1];
      }
      ids[j] = id;
      acc[j] = slab;
    }
  } else {
    for (std::size_t i = 0; i < k; ++i) ids[i] = store.id(acc[i]);
    shard.sorter.sort(ids, acc);
  }
  shard.senders.clear();
  shard.sender_ids.clear();
  shard.coin_out.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint32_t slab = acc[i];
    assert(store.at(slab).active);  // a reclaimed slab can never sit in the wheel
    ++store.accesses(slab);
    const bool sent =
        CounterRng::bernoulli_with_key(store.coin_key(slab), t, store.send_given_access(slab));
    shard.coin_out[i] = static_cast<std::uint8_t>(sent);
    if (sent) {
      ++store.sends(slab);
      shard.senders.push_back(slab);
      shard.sender_ids.push_back(ids[i]);
    }
  }
}

// Phase 3 — parallel per shard: gather every accessor that did not
// depart into one batch, step it with a single factory_.step_batch call
// (deliver the observation, read back the new state, redraw the gap;
// see ProtocolFactory), then scatter: cache each step in the lanes and
// re-register the packet in the shard's own wheel. The cross-shard
// effects (contention, max window, observer callbacks) are only RECORDED
// here, in `outcomes`, and applied by the serial shard-merge in
// resolve_phases. Entry i is rewritten for every accessor i (the merge
// reads a departed entry's flag only), so `outcomes` only grows and is
// never zero-filled.
void SimCore::phase_feedback(Slot t, Feedback fb, PacketShard& shard) {
  PacketStore& store = shard.store();
  const auto& acc = shard.accessors;
  if (shard.outcomes.size() < acc.size()) shard.outcomes.resize(acc.size());
  auto& steps = shard.steps;
  steps.clear();
  steps.reserve(acc.size());  // one exact growth, not a doubling copy
  for (std::size_t i = 0; i < acc.size(); ++i) {
    Packet& pkt = store.at(acc[i]);
    shard.outcomes[i].departed = !pkt.active;
    if (!pkt.active) continue;  // the slot's winner: no feedback, no redraw
    const Observation obs{fb, shard.coin_out[i] != 0};
    steps.push_back(StepItem{pkt.proto.get(), &pkt.rng, obs, {}});
  }
  factory_.step_batch(steps);
  std::size_t j = 0;
  for (std::size_t i = 0; i < acc.size(); ++i) {
    PacketShard::Outcome& out = shard.outcomes[i];
    if (out.departed) continue;
    const std::uint32_t slab = acc[i];
    const ProtocolStep& step = steps[j++].out;
    out.old_window = store.window(slab);
    out.new_window = step.window;
    out.contention_delta = step.send_prob - store.send_prob(slab);
    store.cache(slab, step);
    const Slot next = step.gap == kNoSlot ? kNoSlot : t + step.gap;
    if (next != kNoSlot) shard.wheel().schedule(slab, next);
  }
}

void SimCore::resolve_slot(Slot t) {
  for (PacketShard& shard : shards_) {
    shard.accessors.clear();
    shard.wheel().pop_slot(t, &shard.accessors);
  }
  resolve_phases(t);
}

void SimCore::resolve_phases(Slot t) {
  std::size_t total = 0;
  for (const PacketShard& shard : shards_) total += shard.accessors.size();

  // 1. Send decisions: one slot-keyed coin per accessor, drawn per
  //    shard. Pure in (seed, id, t), so shard scheduling cannot matter.
  run_sharded(total, [this, t](PacketShard& shard) { phase_send_draws(t, shard); });

  // 2. Arbitration (serial). Merge the shards' sender lists in ascending
  //    id order; adaptive jammers see `view` (state through slot t-1 plus
  //    this slot's injections, which are the adversary's own); reactive
  //    jammers additionally see the sender list.
  scratch_sender_pids_.clear();
  for_each_in_id_order(
      [](PacketShard& s) -> const std::vector<PacketId>& { return s.sender_ids; },
      [this](PacketId id, std::size_t, std::size_t) { scratch_sender_pids_.push_back(id); });
  const bool jammed = jammer_.jam(t, view(), scratch_sender_pids_);

  //    Outcome (§1.1): jam => noisy; two senders => noisy; one sender and
  //    no jam => success; else empty.
  const bool success = !jammed && scratch_sender_pids_.size() == 1;
  Feedback fb = Feedback::kNoisy;
  if (success) {
    fb = Feedback::kSuccess;
  } else if (!jammed && scratch_sender_pids_.empty()) {
    fb = Feedback::kEmpty;
  }

  //    Departure of the winner (it learns its success implicitly and never
  //    receives an on_observation callback). The lone sender is its
  //    shard's only one.
  if (success) {
    const std::size_t sh = scratch_sender_pids_.front() % shards_.size();
    depart(t, sh, shards_[sh].senders.front());
  }

  // 3. Feedback to every other accessor + gap redraw + wheel
  //    re-registration, parallel per shard ...
  run_sharded(total, [this, t, fb](PacketShard& shard) { phase_feedback(t, fb, shard); });

  //    ... then the serial shard-merge: apply the recorded contention
  //    deltas and fire the window-change observers in ascending-id order
  //    (the FP accumulation order is part of the determinism contract).
  for_each_in_id_order(
      [](PacketShard& s) -> const std::vector<PacketId>& { return s.accessor_ids; },
      [this, t](PacketId id, std::size_t shard, std::size_t pos) {
        const PacketShard::Outcome& out = shards_[shard].outcomes[pos];
        if (out.departed) return;
        counters_.contention += out.contention_delta;
        max_window_ = std::max(max_window_, out.new_window);
        if (out.new_window != out.old_window) {
          for (auto* o : observers_) o->on_window_change(t, id, out.old_window, out.new_window);
        }
      });

  // 4. Counters + observers.
  ++counters_.active_slots;
  if (jammed) ++counters_.jammed_active_slots;
  counters_.slot = t;

  SlotInfo info;
  info.slot = t;
  info.accessors = static_cast<std::uint32_t>(total);
  info.senders = static_cast<std::uint32_t>(scratch_sender_pids_.size());
  info.jammed = jammed;
  info.success = success;
  info.feedback = fb;
  for (auto* obs : observers_) obs->on_slot(info, counters_);

  // 5. Open-system reclamation: the winner's slab goes back to its
  //    shard's free list now that phase 3 and every observer are done
  //    with the record. The NEXT arrival may reuse it — under a fresh
  //    logical id, so nothing observable changes (see sim_core.hpp).
  if (reclaim_pending_) {
    shards_[reclaim_pending_->first].store().release(reclaim_pending_->second);
    reclaim_pending_.reset();
  }
}

void SimCore::account_quiet_span(Slot lo, Slot hi) {
  const std::uint64_t len = hi - lo + 1;
  const std::uint64_t jams = jammer_.count_quiet_range(lo, hi, view());
  counters_.active_slots += len;
  counters_.jammed_active_slots += jams;
  counters_.slot = hi;
  for (auto* obs : observers_) obs->on_quiet_span(lo, hi, jams, counters_);
}

RunResult SimCore::run(EngineKind walk) {
  const auto budget_spent = [this](Slot t) {
    return (config_.max_slot != 0 && t > config_.max_slot) ||
           (config_.max_active_slots != 0 &&
            counters_.active_slots >= config_.max_active_slots);
  };
  Slot t = 0;
  while (!budget_spent(t)) {
    const Slot next_ev = std::min(next_arrival_slot(), next_access_slot());
    if (next_ev == kNoSlot) break;  // nothing will ever happen again

    if (counters_.backlog == 0) {
      t = next_ev;  // inactive stretch: free skip, no slots counted
    } else if (next_ev > t) {
      // Quiet ACTIVE span [t, next_ev-1]: no access, no arrival, so the
      // state is constant. The walk's one choice is how to account it.
      Slot hi = next_ev - 1;
      if (config_.max_slot != 0) hi = std::min(hi, config_.max_slot);
      if (config_.max_active_slots != 0) {
        const std::uint64_t remaining = config_.max_active_slots - counters_.active_slots;
        if (hi - t + 1 > remaining) hi = t + remaining - 1;
      }
      if (walk == EngineKind::kEvent) {
        account_quiet_span(t, hi);
      } else {
        for (Slot s = t; s <= hi; ++s) resolve_slot(s);
      }
      t = hi + 1;
      if (t != next_ev) break;  // a budget truncated the span
    }
    if (budget_spent(t)) break;

    // Event slot t: injections first (they may access immediately and
    // register themselves in their shard's wheel), then pop the shards'
    // buckets for t and resolve the union.
    inject_arrivals_at(t);
    resolve_slot(t);
    ++t;
  }

  RunResult result;
  finish(&result);
  return result;
}

double SimCore::recompute_contention() const {
  double c = 0.0;
  for_each_live([&c](const PacketStore& store, std::uint32_t slab) {
    c += store.at(slab).proto->send_prob();
  });
  return c;
}

void SimCore::finish(RunResult* result) {
  // Departed packets folded their stats at departure (slot order); the
  // survivors are swept here in ascending LOGICAL id — the accumulation
  // order, and therefore every derived statistic bit for bit, is
  // independent of the shard count, the engine, and slab placement.
  std::vector<std::tuple<PacketId, std::uint64_t, std::uint64_t>> live;  // id, accesses, sends
  live.reserve(counters_.backlog);
  for_each_live([&live](const PacketStore& store, std::uint32_t slab) {
    live.emplace_back(store.id(slab), store.accesses(slab), store.sends(slab));
  });
  std::sort(live.begin(), live.end());  // ids are distinct: ascending id
  for (const auto& [id, accesses, sends] : live) {
    access_stats_.add(static_cast<double>(accesses));
    send_stats_.add(static_cast<double>(sends));
    access_hist_.add(static_cast<double>(accesses));
    max_accesses_ = std::max(max_accesses_, accesses);
  }
  result->counters = counters_;
  result->drained = arrivals_exhausted() && counters_.backlog == 0;
  result->max_accesses = max_accesses_;
  result->peak_backlog = peak_backlog_;
  result->max_window_seen = max_window_;
  result->jams_total = jammer_.jams_used();
  for (const PacketShard& s : shards_) {
    result->slab_capacity += s.store().capacity();
    result->slabs_recycled += s.store().recycled();
  }
  result->access_stats = access_stats_;
  result->send_stats = send_stats_;
  result->latency_stats = latency_stats_;
  result->access_hist = access_hist_;
  for (auto* obs : observers_) obs->on_run_end(counters_);
}

}  // namespace lowsense::detail
