/**
 * @file
 * The sampling half of src/adapt/: turns the raw shared-memory
 * counters (ControlBlock stream totals, ring cursors, pool spill
 * counts) plus an optional wire-shipper stats source into one
 * rate-based Sample per tick for the Controller.
 *
 * The sampler also mirrors its derived signals back into the shared
 * TuningBlock — the per-tuple ring-lag EWMAs — so the numbers the
 * controller acted on are inspectable from any process mapping the
 * region (and end up in StatusReport).
 *
 * Stateless about time: the caller passes `now_ns`, so tests drive it
 * with a scripted clock.
 */

#ifndef VARAN_ADAPT_SAMPLER_H
#define VARAN_ADAPT_SAMPLER_H

#include <cstdint>
#include <functional>

#include "adapt/controller.h"
#include "core/layout.h"

namespace varan::adapt {

/** Cumulative wire-shipper counters, as sampled from Shipper::stats().
 *  The sampler differences successive snapshots itself. */
struct WireSample {
    bool active = false;
    std::uint64_t events = 0;
    std::uint64_t drain_passes = 0;
    std::uint64_t credit_stalls = 0;
};

class Sampler
{
  public:
    /** Pulls the current wire counters; empty when no shipper runs. */
    using WireSource = std::function<WireSample()>;

    Sampler(const shmem::Region *region, const core::EngineLayout *layout,
            WireSource wire = {});

    /** Compute one Sample from the counter deltas since the previous
     *  tick. The first call establishes baselines and reports zero
     *  rates. */
    Sample tick(std::uint64_t now_ns);

  private:
    const shmem::Region *region_;
    const core::EngineLayout *layout_;
    WireSource wire_;

    std::uint64_t prev_ns_ = 0;
    bool primed_ = false;
    std::uint64_t prev_events_ = 0;
    std::uint64_t prev_spills_ = 0;
    WireSample prev_wire_;
};

} // namespace varan::adapt

#endif // VARAN_ADAPT_SAMPLER_H
