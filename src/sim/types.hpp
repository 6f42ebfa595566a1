// Slot-level outcome and progress-counter types shared by engines,
// observers, and the metrics layer.
#pragma once

#include <cstdint>

#include "core/types.hpp"
#include "protocols/protocol.hpp"

namespace lowsense {

/// Ground-truth description of one resolved slot (the omniscient view;
/// packets themselves only ever see the derived ternary Feedback).
struct SlotInfo {
  Slot slot = 0;
  std::uint32_t accessors = 0;  ///< packets that listened and/or sent
  std::uint32_t senders = 0;
  bool jammed = false;
  bool success = false;                       ///< exactly one sender, not jammed
  Feedback feedback = Feedback::kEmpty;       ///< what listeners heard
};

/// Cumulative run counters, as of the END of the slot they accompany.
/// These are exactly the quantities in the paper's metrics:
///   implicit throughput = (arrivals + jammed_active_slots) / active_slots
///   throughput          = (successes + jammed_active_slots) / active_slots
struct Counters {
  Slot slot = 0;                          ///< last slot processed
  std::uint64_t active_slots = 0;         ///< S_t
  std::uint64_t arrivals = 0;             ///< N_t
  std::uint64_t successes = 0;            ///< T_t
  std::uint64_t jammed_active_slots = 0;  ///< J_t (jams during active slots)
  std::uint64_t backlog = 0;              ///< packets currently in the system
  double contention = 0.0;                ///< C(t) = Σ_u send_prob_u

  bool operator==(const Counters&) const = default;

  double implicit_throughput() const noexcept {
    return active_slots == 0
               ? 1.0
               : static_cast<double>(arrivals + jammed_active_slots) /
                     static_cast<double>(active_slots);
  }
  double throughput() const noexcept {
    return active_slots == 0
               ? 1.0
               : static_cast<double>(successes + jammed_active_slots) /
                     static_cast<double>(active_slots);
  }
};

}  // namespace lowsense
