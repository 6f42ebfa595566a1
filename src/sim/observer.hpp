// Observer hooks: how metrics, potential trackers, and tests watch a run
// without the engines knowing anything about them.
//
// Both engines run one time walk (SimCore::run) and emit on_slot for every
// slot holding an access or an arrival. For the quiet active spans in
// between, the slot engine emits on_slot per slot and the event engine one
// on_quiet_span per span — the two views carry identical cumulative
// information.
#pragma once

#include "core/types.hpp"
#include "protocols/protocol.hpp"
#include "sim/types.hpp"

namespace lowsense {

class Observer {
 public:
  virtual ~Observer() = default;

  virtual void on_arrival(Slot slot, PacketId id, const Protocol& proto) {
    (void)slot, (void)id, (void)proto;
  }

  virtual void on_departure(Slot slot, PacketId id, Slot arrival_slot, std::uint64_t accesses,
                            std::uint64_t sends, double final_window) {
    (void)slot, (void)id, (void)arrival_slot, (void)accesses, (void)sends, (void)final_window;
  }

  /// Fired after a packet's protocol changed its window in on_observation.
  virtual void on_window_change(Slot slot, PacketId id, double old_window, double new_window) {
    (void)slot, (void)id, (void)old_window, (void)new_window;
  }

  /// One resolved active slot, with counters as of the end of that slot.
  virtual void on_slot(const SlotInfo& info, const Counters& counters) {
    (void)info, (void)counters;
  }

  /// A run of active slots [from, to] with no channel access and no
  /// arrival (event engine only). `jams` of them were jammed. Counters are
  /// as of the end of the span.
  virtual void on_quiet_span(Slot from, Slot to, std::uint64_t jams, const Counters& counters) {
    (void)from, (void)to, (void)jams, (void)counters;
  }

  virtual void on_run_end(const Counters& counters) { (void)counters; }
};

}  // namespace lowsense
