// Unit tests for the slot-level trace capture.
#include <gtest/gtest.h>

#include <initializer_list>
#include <sstream>
#include <vector>

#include "adversary/arrivals.hpp"
#include "adversary/jammer.hpp"
#include "metrics/trace.hpp"
#include "protocols/low_sensing.hpp"
#include "sim/event_engine.hpp"
#include "sim/slot_engine.hpp"

namespace lowsense {
namespace {

RunResult run_with_trace(TraceCapture& trace, std::uint64_t n, std::uint64_t seed,
                         Jammer* jammer = nullptr, bool slot_engine = false) {
  LowSensingFactory factory;
  BatchArrivals arrivals(n);
  NoJammer none;
  RunConfig cfg;
  cfg.seed = seed;
  Jammer& jam = jammer ? *jammer : static_cast<Jammer&>(none);
  if (slot_engine) {
    SlotEngine engine(factory, arrivals, jam, cfg);
    engine.add_observer(&trace);
    return engine.run();
  }
  EventEngine engine(factory, arrivals, jam, cfg);
  engine.add_observer(&trace);
  return engine.run();
}

TEST(TraceCapture, EventsCoverEveryActiveSlotExactlyOnce) {
  TraceCapture trace;
  const RunResult r = run_with_trace(trace, 100, 3);
  std::uint64_t covered = 0;
  Slot prev_end = 0;
  bool first = true;
  for (const auto& ev : trace.events()) {
    covered += ev.span_end - ev.slot + 1;
    if (!first) {
      ASSERT_GT(ev.slot, prev_end);  // disjoint, ordered
    }
    prev_end = ev.span_end;
    first = false;
  }
  EXPECT_EQ(covered, r.counters.active_slots);
}

TEST(TraceCapture, TallyMatchesRunCounters) {
  TraceCapture trace;
  BurstJammer jammer(100, 10);
  const RunResult r = run_with_trace(trace, 200, 5, &jammer);
  const auto t = trace.tally();
  EXPECT_EQ(t.success, r.counters.successes);
  EXPECT_EQ(t.jammed, r.counters.jammed_active_slots);
  EXPECT_EQ(t.empty + t.success + t.collision + t.jammed + t.quiet, r.counters.active_slots);
}

TEST(TraceCapture, SlotEngineTallyMatchesEventEngine) {
  TraceCapture a, b;
  BurstJammer ja(50, 5), jb(50, 5);
  run_with_trace(a, 80, 7, &ja, /*slot_engine=*/true);
  run_with_trace(b, 80, 7, &jb, /*slot_engine=*/false);
  const auto ta = a.tally(), tb = b.tally();
  EXPECT_EQ(ta.success, tb.success);
  EXPECT_EQ(ta.jammed, tb.jammed);
  EXPECT_EQ(ta.collision, tb.collision);
  // Slot engine has no spans: its quiet slots appear as 'empty'.
  EXPECT_EQ(ta.empty, tb.empty + tb.quiet);
}

TEST(TraceCapture, CsvHasHeaderAndOneRowPerEvent) {
  TraceCapture trace;
  run_with_trace(trace, 20, 9);
  const std::string csv = trace.to_csv();
  std::size_t lines = 0;
  for (char ch : csv) lines += ch == '\n';
  EXPECT_EQ(lines, trace.events().size() + 1);
  EXPECT_EQ(csv.rfind("slot,span_end", 0), 0u);
}

TEST(TraceCapture, BoundedRetentionDropsOldest) {
  TraceCapture trace(64);
  run_with_trace(trace, 500, 11);
  EXPECT_LE(trace.events().size(), 64u);
  EXPECT_GT(trace.dropped(), 0u);
  // Events remain ordered after dropping.
  for (std::size_t i = 1; i < trace.events().size(); ++i) {
    ASSERT_GT(trace.events()[i].slot, trace.events()[i - 1].span_end);
  }
}

TEST(TraceCapture, TinyCapsNeverExceedTheirBound) {
  // Halving a one-event trace drops nothing, so the cap must bound the drop.
  for (const std::size_t cap : {1u, 2u, 3u}) {
    TraceCapture trace(cap);
    const Counters c;
    for (Slot t = 0; t < 9; ++t) {
      SlotInfo info;
      info.slot = t;
      trace.on_slot(info, c);
      ASSERT_LE(trace.events().size(), cap) << "cap " << cap << " after slot " << t;
      ASSERT_EQ(trace.events().size() + trace.dropped(), t + 1) << "cap " << cap;
      EXPECT_EQ(trace.events().back().slot, t) << "cap " << cap;
    }
  }
}

TEST(TraceCapture, SuccessEventsHaveOneSender) {
  TraceCapture trace;
  run_with_trace(trace, 50, 13);
  for (const auto& ev : trace.events()) {
    if (ev.success) {
      ASSERT_EQ(ev.senders, 1u);
      ASSERT_FALSE(ev.jammed);
    }
  }
}

// ------------------------------------------------------------ TraceDigest

// Byte-at-a-time FNV-1a over each word's 8 little-endian bytes: the
// definition TraceDigest::mix must reproduce however it folds the bytes.
std::uint64_t fnv1a_words(std::initializer_list<std::uint64_t> words) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::uint64_t w : words) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

TEST(TraceDigest, MixEqualsByteAtATimeFnv1aForEveryByteLength) {
  // on_arrival folds exactly (tag 0xA1, slot, id), so it exposes mix() on
  // two chosen words. Cover every significant-byte length 0..8, at both
  // ends of each length, plus zero bytes in the middle of a word.
  std::vector<std::uint64_t> words{0, ~0ULL, 0x0100000000000001ULL, 0x00ff0000ff000000ULL};
  for (int bytes = 1; bytes <= 8; ++bytes) {
    const int shift = 8 * (bytes - 1);
    words.push_back(1ULL << shift);                                 // smallest
    words.push_back(bytes == 8 ? ~0ULL : (1ULL << (shift + 8)) - 1);  // largest
    words.push_back((0x5aULL << shift) | 0x3c);
  }
  const LowSensingBackoff proto;
  for (const std::uint64_t slot : words) {
    for (const std::uint64_t id : {std::uint64_t{0}, std::uint64_t{0xff}, slot, ~slot}) {
      TraceDigest d;
      d.on_arrival(slot, id, proto);
      EXPECT_EQ(d.value(), fnv1a_words({0xA1, slot, id})) << std::hex << slot << " " << id;
    }
  }
}

TEST(TraceDigest, FixedCallbackSequenceHasPinnedDigest) {
  // Pinned before mix() folded zero high bytes: the fold must not move a
  // single bit of any digest. Covers every callback kind, a skipped
  // access-free slot, and words from 0 to 8 significant bytes.
  TraceDigest d;
  const LowSensingBackoff proto;
  d.on_arrival(0, 0, proto);
  d.on_arrival(0, 1, proto);
  Counters c;
  c.backlog = 2;
  SlotInfo collision;
  collision.accessors = 2;
  collision.senders = 2;
  collision.feedback = Feedback::kNoisy;
  d.on_slot(collision, c);
  SlotInfo quiet;
  quiet.slot = 3;
  d.on_slot(quiet, c);  // zero accessors: not folded
  c.backlog = 1;
  d.on_departure(0x100, 1, 0, 3, 2, 4.0);
  SlotInfo win;
  win.slot = 0x100;
  win.accessors = 1;
  win.senders = 1;
  win.success = true;
  win.feedback = Feedback::kSuccess;
  d.on_slot(win, c);
  d.on_arrival(0xffffffffffULL, 0x123456789aULL, proto);
  SlotInfo jammed;
  jammed.slot = 0x0123456789abcdefULL;
  jammed.accessors = 0xff;
  jammed.jammed = true;
  jammed.feedback = Feedback::kNoisy;
  c.backlog = ~0ULL;
  d.on_slot(jammed, c);
  Counters end;
  end.slot = 0x0123456789abcdefULL;
  end.active_slots = 1ULL << 56;
  end.arrivals = 3;
  end.successes = 1;
  end.jammed_active_slots = 0x10000;
  end.backlog = 2;
  d.on_run_end(end);
  EXPECT_EQ(d.events(), 8u);
  EXPECT_EQ(d.hex(), "d99e5587f38cee0a");
}

}  // namespace
}  // namespace lowsense
