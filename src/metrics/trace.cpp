#include "metrics/trace.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <ostream>
#include <sstream>

namespace lowsense {

void TraceCapture::push(TraceEvent ev) {
  if (max_events_ != 0 && events_.size() >= max_events_) {
    // Drop the oldest half in one go to amortize the erase cost, and at
    // least enough that the push below keeps size <= max_events_.
    const std::size_t drop = std::max(events_.size() / 2, events_.size() + 1 - max_events_);
    events_.erase(events_.begin(), events_.begin() + static_cast<std::ptrdiff_t>(drop));
    dropped_ += drop;
  }
  events_.push_back(ev);
}

void TraceCapture::on_slot(const SlotInfo& info, const Counters& c) {
  TraceEvent ev;
  ev.slot = info.slot;
  ev.span_end = info.slot;
  ev.accessors = info.accessors;
  ev.senders = info.senders;
  ev.jammed = info.jammed;
  ev.success = info.success;
  ev.jams_in_span = info.jammed ? 1 : 0;
  ev.backlog = c.backlog;
  ev.contention = c.contention;
  push(ev);
}

void TraceCapture::on_quiet_span(Slot from, Slot to, std::uint64_t jams, const Counters& c) {
  TraceEvent ev;
  ev.slot = from;
  ev.span_end = to;
  ev.jammed = jams > 0;
  ev.jams_in_span = jams;
  ev.backlog = c.backlog;
  ev.contention = c.contention;
  push(ev);
}

void TraceCapture::write_csv(std::ostream& out) const {
  out << "slot,span_end,accessors,senders,jammed,success,jams,backlog,contention\n";
  for (const auto& ev : events_) {
    out << ev.slot << ',' << ev.span_end << ',' << ev.accessors << ',' << ev.senders << ','
        << (ev.jammed ? 1 : 0) << ',' << (ev.success ? 1 : 0) << ',' << ev.jams_in_span << ','
        << ev.backlog << ',' << ev.contention << '\n';
  }
}

std::string TraceCapture::to_csv() const {
  std::ostringstream out;
  write_csv(out);
  return out.str();
}

TraceCapture::OutcomeCounts TraceCapture::tally() const {
  OutcomeCounts t;
  for (const auto& ev : events_) {
    if (ev.is_span()) {
      const std::uint64_t len = ev.span_end - ev.slot + 1;
      t.jammed += ev.jams_in_span;
      t.quiet += len - ev.jams_in_span;
      continue;
    }
    if (ev.jammed) {
      ++t.jammed;
    } else if (ev.success) {
      ++t.success;
    } else if (ev.senders >= 2) {
      ++t.collision;
    } else {
      ++t.empty;
    }
  }
  return t;
}

namespace {

// Event tags keep distinct callback kinds from aliasing under FNV: a
// departure at slot s must never hash like an arrival at slot s.
constexpr std::uint64_t kTagArrival = 0xA1;
constexpr std::uint64_t kTagDeparture = 0xD2;
constexpr std::uint64_t kTagSlot = 0x51;
constexpr std::uint64_t kTagEnd = 0xE0;

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;  // FNV 64-bit prime

// kFnvPrimePow[z] = kFnvPrime^z mod 2^64.
constexpr std::array<std::uint64_t, 9> kFnvPrimePow = [] {
  std::array<std::uint64_t, 9> pow{};
  pow[0] = 1;
  for (std::size_t z = 1; z < pow.size(); ++z) pow[z] = pow[z - 1] * kFnvPrime;
  return pow;
}();

}  // namespace

void TraceDigest::mix(std::uint64_t word) noexcept {
  // FNV-1a over the word's 8 little-endian bytes (byte order is fixed by
  // the shifts, not by the host, so the digest is platform-stable). A
  // zero byte's xor is a no-op, so the word's z zero HIGH bytes fold into
  // one multiply by kFnvPrime^z — exact mod 2^64, and most words the
  // engines report (slots, ids, counts) are one to three bytes long.
  const int bytes = word == 0 ? 0 : (71 - __builtin_clzll(word)) / 8;
  for (int i = 0; i < bytes; ++i) {
    hash_ ^= (word >> (8 * i)) & 0xFF;
    hash_ *= kFnvPrime;
  }
  hash_ *= kFnvPrimePow[static_cast<std::size_t>(8 - bytes)];
}

void TraceDigest::on_arrival(Slot slot, PacketId id, const Protocol&) {
  mix(kTagArrival);
  mix(slot);
  mix(id);
  ++events_;
}

void TraceDigest::on_departure(Slot slot, PacketId id, Slot arrival_slot, std::uint64_t accesses,
                               std::uint64_t sends, double /*final_window*/) {
  mix(kTagDeparture);
  mix(slot);
  mix(id);
  mix(arrival_slot);
  mix(accesses);
  mix(sends);
  ++events_;
}

void TraceDigest::on_slot(const SlotInfo& info, const Counters& counters) {
  // Access-free active slots are visible one by one to the slot engine
  // but only as quiet-span summaries to the event engine; skip them so
  // both engines fold the identical filtered stream.
  if (info.accessors == 0) return;
  mix(kTagSlot);
  mix(info.slot);
  mix(info.accessors);
  mix(info.senders);
  mix((info.jammed ? 1u : 0u) | (info.success ? 2u : 0u) |
      (static_cast<std::uint64_t>(info.feedback) << 2));
  mix(counters.backlog);
  ++events_;
}

void TraceDigest::on_run_end(const Counters& counters) {
  // Final cumulative integers: these fold in the jam/active totals of the
  // access-free slots the per-slot stream skipped.
  mix(kTagEnd);
  mix(counters.slot);
  mix(counters.active_slots);
  mix(counters.arrivals);
  mix(counters.successes);
  mix(counters.jammed_active_slots);
  mix(counters.backlog);
  ++events_;
}

std::string TraceDigest::hex() const {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(i)] = digits[(hash_ >> (60 - 4 * i)) & 0xF];
  }
  return out;
}

}  // namespace lowsense
