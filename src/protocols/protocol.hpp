// Contention-resolution protocol interface (ternary-feedback model, §1.1).
//
// A protocol instance is the per-packet state machine. In every slot the
// packet either sleeps, listens, or sends (sending subsumes listening for
// accounting purposes: a sender learns the slot outcome from whether it
// departed). The protocol is described by two probabilities and one
// notification:
//
//   access_prob()            P(packet accesses the channel this slot)
//   send_prob_given_access() P(packet sends | it accesses)
//   on_observation(obs)      channel feedback, delivered only on access
//
// Contract (load-bearing for the event-driven engine): protocol state — and
// therefore both probabilities — may change ONLY inside on_observation().
// Between channel accesses the packet is dormant and its per-slot access
// probability is constant, which is what allows geometric gap-skipping.
//
// The engine drives a packet through ONE step per access and caches what
// it returns (window, send probabilities, next gap) in its packet lanes
// until the packet's next access. The contract above is what makes that
// cache sound: nothing the engine cached can change before the next
// on_observation(), which only a step delivers. A slot's steps reach the
// protocols as one batch per shard, ProtocolFactory::step_batch(), which
// by default is a loop over Protocol::step().
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <typeinfo>

#include "core/rng.hpp"
#include "core/types.hpp"

namespace lowsense {

/// What a listener hears in a slot (ternary feedback, §1.1).
enum class Feedback : std::uint8_t {
  kEmpty = 0,    ///< no packet sent, slot not jammed
  kSuccess = 1,  ///< exactly one packet sent, slot not jammed
  kNoisy = 2,    ///< two or more senders, or the slot was jammed
};

/// Everything a packet learns when it accesses the channel.
struct Observation {
  Feedback feedback = Feedback::kEmpty;
  bool sent = false;  ///< whether this packet itself transmitted
};

/// What step() leaves behind: the state after the observation, which the
/// engine caches in its packet lanes until the packet's next access.
struct ProtocolStep {
  double window = 0.0;
  double send_prob = 0.0;          ///< access_prob() × send_prob_given_access()
  double send_given_access = 0.0;  ///< send_prob_given_access()
  std::uint64_t gap = 0;           ///< draw_gap(): slots to the next access
};

class Protocol;

/// One access of a batched step: the packet's protocol and gap stream,
/// what it observed, and (filled in by step_batch) what step() returns.
struct StepItem {
  Protocol* proto = nullptr;
  Rng* rng = nullptr;
  Observation obs;
  ProtocolStep out;
};

class Protocol {
 public:
  virtual ~Protocol() = default;

  /// P(access the channel this slot). Must be in [0, 1].
  virtual double access_prob() const noexcept = 0;

  /// P(send | access). Must be in [0, 1].
  virtual double send_prob_given_access() const noexcept = 0;

  /// Feedback delivery; the only place state may change.
  virtual void on_observation(const Observation& obs) = 0;

  /// Current window size (diagnostic; 1/send_prob() for window protocols).
  virtual double window() const noexcept = 0;

  virtual const char* name() const noexcept = 0;

  /// Draws the number of slots until this packet's NEXT channel access
  /// (support {1, 2, ...}; kNoSlot = never). The default is the
  /// memoryless geometric implied by access_prob(); protocols with
  /// non-memoryless schedules (e.g. windowed Ethernet backoff, which
  /// picks a uniform slot within its current window) override this.
  /// Both engines call exactly this, once per access period, so
  /// overriding it preserves slot/event trace equivalence.
  virtual std::uint64_t draw_gap(Rng& rng) const { return rng.geometric_gap(access_prob()); }

  /// Unconditional per-slot send probability; the engine sums these to
  /// maintain the paper's contention C(t) = Σ_u 1/w_u.
  double send_prob() const noexcept { return access_prob() * send_prob_given_access(); }

  /// The per-access entry point: delivers `obs`, then reports the new
  /// state and draws the gap to the next access, in exactly this order —
  /// on_observation, window, access_prob × send_prob_given_access,
  /// draw_gap. Overrides exist only to save the indirect calls and must
  /// equal this default bit for bit (the built-ins get theirs from
  /// BuiltinProtocol); wrappers that forward the queries one by one can
  /// simply keep the default.
  virtual void step(const Observation& obs, Rng& rng, ProtocolStep* out) {
    on_observation(obs);
    settle(rng, out);
  }

  /// The tail of step() without an observation: the current state and a
  /// fresh gap. Injection calls this for a newly created packet.
  void settle(Rng& rng, ProtocolStep* out) {
    out->window = window();
    const double access = access_prob();
    out->send_given_access = send_prob_given_access();
    out->send_prob = access * out->send_given_access;
    out->gap = draw_gap(rng);
  }
};

/// Devirtualized steps for the built-in protocols: `Derived` is a final
/// class, and every query in step_chunk is a qualified (static) call into
/// it. The sequence and every floating-point operation match
/// Protocol::step exactly.
template <class Derived>
class BuiltinProtocol : public Protocol {
 public:
  /// The memoryless geometric gap of access_prob(), statically bound.
  std::uint64_t draw_gap(Rng& rng) const override {
    return rng.geometric_gap(static_cast<const Derived&>(*this).Derived::access_prob());
  }

  /// One indirect call instead of five: step_chunk over this one item.
  void step(const Observation& obs, Rng& rng, ProtocolStep* out) final {
    StepItem item{this, &rng, obs, {}};
    Derived::step_chunk({&item, 1});
    *out = item.out;
  }

  /// Protocol::step over a chunk of items whose protocols are all
  /// `Derived`, one stage per pass: every on_observation, then every
  /// state read, then every gap. Each item's own sequence is step()'s,
  /// and items share no state, so the result is step()'s bit for bit.
  /// Derived classes may hide this with a finer split.
  static void step_chunk(std::span<StepItem> items) {
    for (StepItem& it : items) as_derived(it).Derived::on_observation(it.obs);
    for (StepItem& it : items) {
      const Derived& d = as_derived(it);
      it.out.window = d.Derived::window();
      const double access = d.Derived::access_prob();
      it.out.send_given_access = d.Derived::send_prob_given_access();
      it.out.send_prob = access * it.out.send_given_access;
    }
    for (StepItem& it : items) it.out.gap = as_derived(it).Derived::draw_gap(*it.rng);
  }

 protected:
  static Derived& as_derived(const StepItem& it) { return static_cast<Derived&>(*it.proto); }
};

/// Creates fresh protocol state for each arriving packet.
class ProtocolFactory {
 public:
  virtual ~ProtocolFactory() = default;
  virtual std::unique_ptr<Protocol> create() const = 0;
  virtual std::string name() const = 0;

  /// Steps every item: item.proto->step(item.obs, *item.rng, &item.out).
  /// The engine's feedback phase makes one such call per shard per slot.
  /// Contract:
  ///   * every item's protocol came from THIS factory's create(), and no
  ///     two items share a protocol or an Rng;
  ///   * the call is const and safe to run concurrently on one factory
  ///     (shards step their own items in parallel), so any scratch an
  ///     override needs lives on its stack;
  ///   * the result — each item's `out`, protocol state and Rng state —
  ///     is bit-identical to calling step() on the items one by one.
  /// The default is exactly that loop, so a wrapping factory that keeps
  /// it sees every per-object call its protocols would see unbatched.
  virtual void step_batch(std::span<StepItem> items) const {
    for (StepItem& it : items) it.proto->step(it.obs, *it.rng, &it.out);
  }
};

/// The built-ins' factory base (`P` is the protocol the factory creates):
/// step_batch() runs P::step_chunk over chunks of kStepChunk items — the
/// loop-split form of step(), each stage a pass over the chunk, so the
/// independent per-packet chains overlap instead of running back to
/// back. The chunk bounds a pass's working set and the stack scratch of
/// a step_chunk override.
template <class P>
class BuiltinFactory : public ProtocolFactory {
 public:
  static constexpr std::size_t kStepChunk = 32;

  void step_batch(std::span<StepItem> items) const override {
#ifndef NDEBUG
    // A wrapper that forwards step_batch with its own objects would be
    // statically cast to P below: catch it here.
    for (const StepItem& it : items) assert(typeid(*it.proto) == typeid(P));
#endif
    for (std::size_t i = 0; i < items.size(); i += kStepChunk) {
      P::step_chunk(items.subspan(i, std::min(kStepChunk, items.size() - i)));
    }
  }
};

}  // namespace lowsense
