// Event-driven engine (the default): SimCore::run with EngineKind::kEvent.
//
// Every supported protocol changes state only when it accesses the
// channel (see the Protocol contract), so between accesses and arrivals
// the whole system is constant. The walk therefore accounts each such
// quiet active span in one step (active slots, plus the jams the jammer's
// count_quiet_range reports) and fires one on_quiet_span instead of one
// on_slot per slot. That is the only difference from SlotEngine: both run
// the same walk, pop the same wheels and resolve every access slot with
// the same code. So for any jammer whose count_quiet_range counts exactly
// the jams its per-slot jam calls would (every jammer in src/adversary
// does; the randomized ones replay their slot-keyed coins) the two
// engines give bit-identical results; see tests/sim_equivalence_test.cpp.
#pragma once

#include "sim/sim_core.hpp"

namespace lowsense {

using EventEngine = WalkEngine<EngineKind::kEvent>;

}  // namespace lowsense
