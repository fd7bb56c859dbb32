/**
 * @file
 * The unified live tuning surface of the event path.
 *
 * Every event-path parameter that used to be a static config field —
 * ship batch, credit window, the shipper's linger cap — is one Knob
 * backed by an atomic slot in the shared region (TuningBlock, embedded
 * in the ControlBlock). Consumers re-read the
 * live value at batch boundaries instead of caching it at
 * construction, so a knob turned mid-run —
 * by an operator through Nvx::tuning(), or by the adaptive controller
 * in src/adapt/ — takes effect without restarting anything: not the
 * engine, not a reconnecting peer, not a promoted shipper.
 *
 * Every knob has a hard floor and ceiling (kKnobRanges); readers clamp
 * on load, so a torn or hostile shared-memory value can never drive a
 * consumer out of its safe range. A knob set explicitly through
 * TuningHandle::set() is *pinned*: the adaptive controller leaves it
 * alone (see docs/TUNING.md).
 *
 * Seeding is first-writer-wins (the seeded mask): the coordinator
 * seeds all knobs from EngineConfig at start; a component constructed
 * later — a promoted shipper on a receiver node —
 * finds the bit set and adopts the live value instead of clobbering a
 * retuned one with its construction-time options.
 */

#ifndef VARAN_CORE_TUNING_H
#define VARAN_CORE_TUNING_H

#include <atomic>
#include <cstdint>

namespace varan::core {

/** The live-tunable event-path parameters, one per TuningBlock slot. */
enum class Knob : std::uint32_t {
    ShipBatch = 0,        ///< events per wire Events frame
    CreditWindow = 1,     ///< max unacked events per tuple per peer
    CoalesceWindowNs = 2, ///< shipper's linger cap for a short run
};

inline constexpr std::uint32_t kNumKnobs = 3;

/** lag_ewma slots; must equal kMaxTuples (asserted in layout.h). */
inline constexpr std::uint32_t kTuningLagSlots = 16;

/** Hard floor/ceiling per knob; every read clamps into this range. */
struct KnobRange {
    std::uint64_t floor;
    std::uint64_t ceiling;
};

inline constexpr KnobRange kKnobRanges[kNumKnobs] = {
    {1, 64},               // ShipBatch   (== wire::Shipper::kMaxShipBatch)
    {64, 1u << 20},        // CreditWindow
    {10000, 100000000},    // CoalesceWindowNs [10 µs, 100 ms]
};

/**
 * Plain seed values for the live knobs — what EngineConfig carries and
 * what seeds the shared TuningBlock at engine start. The defaults are
 * the historical RingConfig/RemoteConfig defaults.
 */
struct Tuning {
    std::uint32_t ship_batch = 16;
    std::uint32_t credit_window = 4096;
    std::uint64_t coalesce_window_ns = 200000;
};

/** Adaptive-controller configuration (EngineConfig::adapt). */
struct AdaptConfig {
    bool enabled = false;          ///< run the AutoTuner thread
    std::uint64_t tick_ns = 10000000; ///< sample/decide cadence (10 ms)
    double hysteresis = 0.10;      ///< dead band around "no change"
    std::uint32_t settle_ticks = 2; ///< ticks between decisions per knob
};

/**
 * The shared-memory home of the live values plus the statistics the
 * adaptive controller feeds on. Lives inside the ControlBlock;
 * value-initialised to zero with the rest of it, then given defaults
 * by EngineLayout::create (without marking anything seeded).
 */
struct TuningBlock {
    std::atomic<std::uint64_t> values[kNumKnobs];
    std::atomic<std::uint32_t> seeded_mask; ///< knob has an explicit value
    std::atomic<std::uint32_t> pinned_mask; ///< knob excluded from adaptation

    // Adaptive-controller bookkeeping (surfaced via StatusReport).
    std::atomic<std::uint32_t> adapt_active;
    std::atomic<std::uint64_t> adapt_samples;   ///< controller ticks taken
    std::atomic<std::uint64_t> adapt_decisions; ///< knob adjustments applied

    /** Per-tuple ring-lag EWMA (16.16 fixed point, in events), written
     *  by the adapt sampler at tick granularity. */
    std::atomic<std::uint64_t> lag_ewma[kTuningLagSlots];
};

inline std::uint64_t
clampKnob(Knob knob, std::uint64_t value)
{
    const KnobRange &range = kKnobRanges[static_cast<std::uint32_t>(knob)];
    if (value < range.floor)
        return range.floor;
    if (value > range.ceiling)
        return range.ceiling;
    return value;
}

/** The live value of a knob, clamped into its hard range. */
inline std::uint64_t
liveKnob(const TuningBlock &block, Knob knob)
{
    return clampKnob(
        knob, block.values[static_cast<std::uint32_t>(knob)].load(
                  std::memory_order_relaxed));
}

/** Write the historical defaults; does NOT mark anything seeded —
 *  layout creation runs this so unseeded knobs still read sane. */
inline void
initTuningDefaults(TuningBlock &block)
{
    const Tuning defaults;
    block.values[static_cast<std::uint32_t>(Knob::ShipBatch)].store(
        defaults.ship_batch, std::memory_order_relaxed);
    block.values[static_cast<std::uint32_t>(Knob::CreditWindow)].store(
        defaults.credit_window, std::memory_order_relaxed);
    block.values[static_cast<std::uint32_t>(Knob::CoalesceWindowNs)].store(
        defaults.coalesce_window_ns, std::memory_order_relaxed);
}

/**
 * First-seeder-wins initialisation: write @p value only if nobody has
 * seeded (or set) this knob yet. A promoted shipper constructed after
 * an operator retuned the node therefore adopts the live value instead
 * of resetting it to its own construction options.
 */
inline void
seedKnob(TuningBlock &block, Knob knob, std::uint64_t value)
{
    const std::uint32_t bit = 1u << static_cast<std::uint32_t>(knob);
    if (block.seeded_mask.fetch_or(bit, std::memory_order_acq_rel) & bit)
        return;
    block.values[static_cast<std::uint32_t>(knob)].store(
        clampKnob(knob, value), std::memory_order_release);
}

inline void
seedTuning(TuningBlock &block, const Tuning &tuning)
{
    seedKnob(block, Knob::ShipBatch, tuning.ship_batch);
    seedKnob(block, Knob::CreditWindow, tuning.credit_window);
    seedKnob(block, Knob::CoalesceWindowNs, tuning.coalesce_window_ns);
}

/** Controller-side write: updates the live value (clamped, marked
 *  seeded) without pinning — operator pins always win over this. */
inline void
applyKnob(TuningBlock &block, Knob knob, std::uint64_t value)
{
    block.values[static_cast<std::uint32_t>(knob)].store(
        clampKnob(knob, value), std::memory_order_release);
    block.seeded_mask.fetch_or(1u << static_cast<std::uint32_t>(knob),
                               std::memory_order_acq_rel);
}

/**
 * The live tuning API handed out by Nvx::tuning(): get/set any knob
 * while the engine runs. set() pins the knob by default — an explicit
 * operator choice should not be fought by the adaptive controller;
 * pass pin = false (or unpin()) to hand it back.
 */
class TuningHandle
{
  public:
    TuningHandle() = default;
    explicit TuningHandle(TuningBlock *block) : block_(block) {}

    bool valid() const { return block_ != nullptr; }

    std::uint64_t get(Knob knob) const { return liveKnob(*block_, knob); }

    void
    set(Knob knob, std::uint64_t value, bool pin = true)
    {
        const std::uint32_t bit =
            1u << static_cast<std::uint32_t>(knob);
        block_->values[static_cast<std::uint32_t>(knob)].store(
            clampKnob(knob, value), std::memory_order_release);
        block_->seeded_mask.fetch_or(bit, std::memory_order_acq_rel);
        if (pin)
            block_->pinned_mask.fetch_or(bit, std::memory_order_acq_rel);
    }

    void
    pin(Knob knob)
    {
        block_->pinned_mask.fetch_or(
            1u << static_cast<std::uint32_t>(knob),
            std::memory_order_acq_rel);
    }

    void
    unpin(Knob knob)
    {
        block_->pinned_mask.fetch_and(
            ~(1u << static_cast<std::uint32_t>(knob)),
            std::memory_order_acq_rel);
    }

    bool
    pinned(Knob knob) const
    {
        return (block_->pinned_mask.load(std::memory_order_acquire) >>
                static_cast<std::uint32_t>(knob)) &
               1u;
    }

    /** Point-in-time snapshot of every live value. */
    Tuning
    snapshot() const
    {
        Tuning t;
        t.ship_batch =
            static_cast<std::uint32_t>(get(Knob::ShipBatch));
        t.credit_window =
            static_cast<std::uint32_t>(get(Knob::CreditWindow));
        t.coalesce_window_ns = get(Knob::CoalesceWindowNs);
        return t;
    }

    // Typed conveniences for the common knobs.
    std::uint32_t
    shipBatch() const
    {
        return static_cast<std::uint32_t>(get(Knob::ShipBatch));
    }
    void shipBatch(std::uint32_t v) { set(Knob::ShipBatch, v); }

    std::uint32_t
    creditWindow() const
    {
        return static_cast<std::uint32_t>(get(Knob::CreditWindow));
    }
    void creditWindow(std::uint32_t v) { set(Knob::CreditWindow, v); }

    std::uint64_t coalesceWindowNs() const
    {
        return get(Knob::CoalesceWindowNs);
    }
    void coalesceWindowNs(std::uint64_t v) { set(Knob::CoalesceWindowNs, v); }

  private:
    TuningBlock *block_ = nullptr;
};

} // namespace varan::core

#endif // VARAN_CORE_TUNING_H
