#include "adapt/controller.h"

namespace varan::adapt {

namespace {

/** Additive-increase step for the batch-size knobs. Fixed (rather than
 *  proportional) so convergence time is predictable: floor-to-ceiling
 *  on ShipBatch/CoalesceRun is ~16 decisions. */
constexpr std::uint64_t kBatchStep = 4;

/** Staleness budget per coalesced event: run 16 = the historical
 *  200 µs default window. */
constexpr std::uint64_t kWindowPerEventNs = 12500;

/** Credit-stall share that counts as pressure on the window. */
constexpr double kStallPressure = 0.25;

/** Clean (stall-free) decision rounds before the credit window decays
 *  back toward its resting size. */
constexpr std::uint32_t kCreditDecayRounds = 16;

/** The credit window never decays below its seed-default resting size;
 *  only explicit pins push it lower. */
constexpr std::uint64_t kCreditRestingFloor = 4096;

} // namespace

void
Controller::stepThroughput(core::Knob knob, std::uint64_t value, double rate,
                           std::uint64_t step, KnobState *state,
                           std::vector<Decision> *out)
{
    if (state->ticks + 1 < config_.settle_ticks) {
        ++state->ticks;
        return;
    }
    state->ticks = 0;

    std::uint64_t to;
    if (state->last_rate <= 0.0) {
        // Nothing to compare against yet: probe upward.
        to = value + step;
    } else {
        const double gain = rate / state->last_rate;
        if (gain >= 1.0 + config_.hysteresis)
            to = value + step; // the last move helped: additive increase
        else if (gain <= 1.0 - config_.hysteresis)
            to = value / 2;    // it hurt: multiplicative decrease
        else
            to = value + step; // plateau: deeper batching costs nothing
    }
    to = core::clampKnob(knob, to);
    state->last_rate = rate;
    if (to != value)
        out->push_back({knob, value, to});
}

std::vector<Decision>
Controller::step(const Sample &sample, const core::Tuning &current)
{
    std::vector<Decision> out;

    // Ship batch climbs the wire drain rate when a shipper is live,
    // otherwise the local publish rate (so it is pre-warmed by the
    // time a link comes up).
    const double ship_rate = sample.wire_active ? sample.wire_events_per_sec
                                                : sample.events_per_sec;
    stepThroughput(core::Knob::ShipBatch, current.ship_batch, ship_rate,
                   kBatchStep, &ship_state_, &out);

    // Coalesce run climbs the publish rate.
    stepThroughput(core::Knob::CoalesceRun, current.coalesce_run,
                   sample.events_per_sec, kBatchStep, &run_state_, &out);

    // The staleness window is derived, not searched: a run cap only
    // fills if followers tolerate ~12.5 µs of staleness per event.
    std::uint64_t run_now = current.coalesce_run;
    for (const Decision &d : out)
        if (d.knob == core::Knob::CoalesceRun)
            run_now = d.to;
    const std::uint64_t want_window =
        core::clampKnob(core::Knob::CoalesceWindowNs,
                        run_now * kWindowPerEventNs);
    if (want_window != current.coalesce_window_ns) {
        out.push_back({core::Knob::CoalesceWindowNs,
                       current.coalesce_window_ns, want_window});
    }

    // Credit window: pressure-driven, not throughput-searched. Stalled
    // drain passes mean the window itself is the bottleneck — double
    // it. A long clean streak decays it back toward the resting size
    // so a transient burst does not pin memory forever.
    if (sample.wire_active) {
        if (credit_state_.ticks + 1 < config_.settle_ticks) {
            ++credit_state_.ticks;
        } else {
            credit_state_.ticks = 0;
            std::uint64_t to = current.credit_window;
            if (sample.credit_stall_frac > kStallPressure) {
                credit_clean_ticks_ = 0;
                to = core::clampKnob(core::Knob::CreditWindow,
                                     current.credit_window * 2);
            } else if (sample.credit_stall_frac == 0.0) {
                if (++credit_clean_ticks_ >= kCreditDecayRounds &&
                    current.credit_window > kCreditRestingFloor) {
                    credit_clean_ticks_ = 0;
                    to = current.credit_window - current.credit_window / 4;
                    if (to < kCreditRestingFloor)
                        to = kCreditRestingFloor;
                }
            } else {
                credit_clean_ticks_ = 0;
            }
            if (to != current.credit_window)
                out.push_back({core::Knob::CreditWindow,
                               current.credit_window, to});
        }
    }

    return out;
}

} // namespace varan::adapt
