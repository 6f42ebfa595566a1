// Slot-level trace capture: records every resolved slot (and quiet span)
// of a run, exports CSV for external plotting, and supports bounded
// in-memory retention so long executions don't exhaust memory.
//
// This is the debugging/figure-generation companion to Recorder: Recorder
// samples cumulative counters at checkpoints; TraceCapture keeps the raw
// per-slot event stream.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/observer.hpp"

namespace lowsense {

/// One trace event: either a resolved slot or a compressed quiet span.
struct TraceEvent {
  Slot slot = 0;          ///< slot (or span start)
  Slot span_end = 0;      ///< == slot for single-slot events
  std::uint32_t accessors = 0;
  std::uint32_t senders = 0;
  bool jammed = false;    ///< for spans: true iff any slot in span jammed
  bool success = false;
  std::uint64_t jams_in_span = 0;  ///< spans only
  std::uint64_t backlog = 0;
  double contention = 0.0;

  bool is_span() const noexcept { return span_end != slot; }
};

class TraceCapture final : public Observer {
 public:
  /// Retains at most `max_events` events; older events are dropped from
  /// the FRONT (the tail of a run is usually what one debugs). 0 keeps
  /// everything.
  explicit TraceCapture(std::size_t max_events = 0) : max_events_(max_events) {}

  void on_slot(const SlotInfo& info, const Counters& c) override;
  void on_quiet_span(Slot from, Slot to, std::uint64_t jams, const Counters& c) override;

  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// CSV with one row per event:
  /// slot,span_end,accessors,senders,jammed,success,jams,backlog,contention
  void write_csv(std::ostream& out) const;
  std::string to_csv() const;

  /// Aggregates the retained trace into slot-outcome counts (for tests
  /// and quick sanity summaries).
  struct OutcomeCounts {
    std::uint64_t empty = 0;
    std::uint64_t success = 0;
    std::uint64_t collision = 0;  ///< noisy without jam
    std::uint64_t jammed = 0;     ///< jammed slots (incl. spans' jams)
    std::uint64_t quiet = 0;      ///< access-free slots inside spans (unjammed)
  };
  OutcomeCounts tally() const;

 private:
  void push(TraceEvent ev);

  std::size_t max_events_;
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
};

/// Order-sensitive 64-bit digest (FNV-1a over tagged words) of a run's
/// engine-exact observable stream. Two runs produce the same digest iff
/// they observed the same arrivals, departures, access-bearing slots, and
/// final integer counters — the quantities the determinism contract makes
/// a pure function of (scenario, seed), independent of engine, shard
/// count, and storage reclamation.
///
/// What the digest deliberately EXCLUDES keeps it engine-invariant:
///  * on_slot events with zero accessors — the slot engine reports every
///    active slot, the event engine compresses access-free stretches into
///    quiet spans, so only access-bearing slots are common ground (their
///    jam totals still reach the digest via the final counters);
///  * every floating-point observable (contention, windows, latency
///    stats). They are bit-identical across engines and shard counts too
///    (tests/sim_equivalence_test.cpp compares them exactly), but their
///    last bits also follow the protocols' arithmetic, which a compiler,
///    its flags (FMA contraction) or the math library can move without
///    changing the discrete execution the digest is meant to pin.
class TraceDigest final : public Observer {
 public:
  void on_arrival(Slot slot, PacketId id, const Protocol& proto) override;
  void on_departure(Slot slot, PacketId id, Slot arrival_slot, std::uint64_t accesses,
                    std::uint64_t sends, double final_window) override;
  void on_slot(const SlotInfo& info, const Counters& counters) override;
  void on_run_end(const Counters& counters) override;

  /// Digest of the stream so far (stable across platforms and builds).
  std::uint64_t value() const noexcept { return hash_; }

  /// `value()` as exactly 16 lowercase hex digits — the form packs and
  /// manifests check in.
  std::string hex() const;

  /// Events folded in so far (arrivals + departures + access slots + end).
  std::uint64_t events() const noexcept { return events_; }

 private:
  void mix(std::uint64_t word) noexcept;

  std::uint64_t hash_ = 14695981039346656037ULL;  // FNV-1a 64-bit offset basis
  std::uint64_t events_ = 0;
};

}  // namespace lowsense
