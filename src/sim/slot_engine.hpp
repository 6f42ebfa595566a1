// Reference engine: SimCore::run with EngineKind::kSlot. It resolves
// every active slot individually, so it is the model of §1.1 verbatim and
// the one engine that consults the jammer (jam) on literally every active
// slot, and observers see on_slot for each of them.
//
// Stretches with no packet in the system are skipped in both engines:
// nothing can happen there and they are not counted.
#pragma once

#include "sim/sim_core.hpp"

namespace lowsense {

using SlotEngine = WalkEngine<EngineKind::kSlot>;

}  // namespace lowsense
