/**
 * @file
 * AutoTuner: the feedback loop that retunes the event path online.
 *
 * One background thread per engine. Each tick it (1) asks the Sampler
 * for the rate picture since the last tick, (2) hands that plus the
 * live knob snapshot to the Controller, and (3) applies the resulting
 * decisions to the shared TuningBlock — where the wire Shipper
 * re-reads them at batch boundaries. Pinned knobs (TuningHandle::set()
 * pins by default) are skipped, so an operator override always wins
 * over the controller.
 *
 * tickOnce() runs one synchronous round with a caller-supplied clock —
 * that is what the deterministic tests and the benches drive.
 */

#ifndef VARAN_ADAPT_AUTOTUNER_H
#define VARAN_ADAPT_AUTOTUNER_H

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "adapt/controller.h"
#include "adapt/sampler.h"

namespace varan::adapt {

class AutoTuner
{
  public:
    struct Options {
        /** Sampling/decision cadence for the background thread. */
        std::uint64_t tick_ns = 10'000'000;
        ControllerConfig controller;
    };

    AutoTuner(const shmem::Region *region, const core::EngineLayout *layout,
              Options options, Sampler::WireSource wire = {});
    ~AutoTuner();

    AutoTuner(const AutoTuner &) = delete;
    AutoTuner &operator=(const AutoTuner &) = delete;

    /** Start the background tick thread (idempotent). */
    void start();
    /** Stop and join the tick thread (idempotent; run by ~AutoTuner). */
    void stop();

    /** One synchronous sample→decide→apply round. Returns the
     *  decisions actually applied (pinned knobs filtered out). */
    std::vector<Decision> tickOnce(std::uint64_t now_ns);

    /** Knob adjustments applied over this tuner's lifetime. */
    std::uint64_t decisionsApplied() const
    {
        return decisions_applied_.load(std::memory_order_relaxed);
    }

  private:
    void loop();

    const shmem::Region *region_;
    const core::EngineLayout *layout_;
    Options options_;
    Sampler sampler_;
    Controller controller_;

    std::thread thread_;
    std::atomic<bool> running_{false};
    std::atomic<std::uint64_t> decisions_applied_{0};
};

} // namespace varan::adapt

#endif // VARAN_ADAPT_AUTOTUNER_H
