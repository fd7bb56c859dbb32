/**
 * @file
 * The adaptive feedback controller (the decision half of src/adapt/).
 *
 * Pure and deterministic: step() maps one Sample (what the event path
 * did since the last tick) plus the current live knob values to a list
 * of knob adjustments. No clocks, no threads, no shared memory — the
 * AutoTuner owns those — so unit tests drive it with scripted samples
 * and assert convergence, hysteresis and clamping exactly.
 *
 * Per-knob policy (AIMD hill-climbing with hysteresis, hard
 * floor/ceiling via core::kKnobRanges):
 *
 *  - ShipBatch / CoalesceRun climb their throughput signal: a move
 *    that raised the rate by more than the hysteresis band earns an
 *    additive increase, a move that lowered it costs a multiplicative
 *    (halving) decrease, and a flat plateau probes upward — deeper
 *    batching is free until it is not, and the next regression undoes
 *    an overshoot.
 *  - CreditWindow reacts to pressure: credit-stalled drain passes
 *    double it (the window is what gates the drain), a long clean
 *    streak decays it by a quarter toward its resting default.
 *  - CoalesceWindowNs is derived: a run cap only fills if the
 *    staleness window gives it time, so the window tracks the run
 *    length at ~12.5 µs per event (run 16 = the historical 200 µs).
 */

#ifndef VARAN_ADAPT_CONTROLLER_H
#define VARAN_ADAPT_CONTROLLER_H

#include <cstdint>
#include <vector>

#include "core/tuning.h"

namespace varan::adapt {

/** One sampling tick's view of the event path (rates, not totals). */
struct Sample {
    /** Events published into the tuple rings per second. */
    double events_per_sec = 0;
    /** Max ring occupancy across tuples and consumers, 0..1. */
    double occupancy = 0;
    /** Payload-pool spills to the global arena per second. */
    double spills_per_sec = 0;

    bool wire_active = false;       ///< a shipper is running
    double wire_events_per_sec = 0; ///< events drained to the wire
    /** Credit-stalled share of drain passes with backlog, 0..1. */
    double credit_stall_frac = 0;
};

/** One knob adjustment the controller wants applied. */
struct Decision {
    core::Knob knob;
    std::uint64_t from;
    std::uint64_t to;
};

struct ControllerConfig {
    /** Dead band around "no change": rate moves within ±hysteresis
     *  neither reward nor punish the last adjustment. */
    double hysteresis = 0.10;
    /** Ticks a knob rests between decisions (lets a move settle into
     *  the rate signal before it is judged). */
    std::uint32_t settle_ticks = 2;
};

class Controller
{
  public:
    explicit Controller(ControllerConfig config = {}) : config_(config) {}

    /** One decision round. @p current is the live knob snapshot;
     *  returns the adjustments to apply (empty = hold everything). */
    std::vector<Decision> step(const Sample &sample,
                               const core::Tuning &current);

  private:
    struct KnobState {
        double last_rate = 0; ///< signal when this knob last decided
        std::uint32_t ticks = 0;
    };

    /** AIMD hill-climb for a batch-size knob on a throughput signal. */
    void stepThroughput(core::Knob knob, std::uint64_t value, double rate,
                        std::uint64_t step, KnobState *state,
                        std::vector<Decision> *out);

    ControllerConfig config_;
    KnobState ship_state_;
    KnobState run_state_;
    KnobState credit_state_;
    std::uint32_t credit_clean_ticks_ = 0;
};

} // namespace varan::adapt

#endif // VARAN_ADAPT_CONTROLLER_H
