#include "adapt/sampler.h"

#include <algorithm>

#include "ring/ring_buffer.h"

namespace varan::adapt {

Sampler::Sampler(const shmem::Region *region,
                 const core::EngineLayout *layout, WireSource wire)
    : region_(region), layout_(layout), wire_(std::move(wire))
{
}

Sample
Sampler::tick(std::uint64_t now_ns)
{
    Sample sample;
    core::ControlBlock *cb = layout_->controlBlock(region_);

    const std::uint64_t events =
        cb->events_streamed.load(std::memory_order_relaxed);
    const std::uint64_t spills = layout_->pool(region_).stats().spills;
    WireSample wire;
    if (wire_)
        wire = wire_();

    // Ring occupancy: the fullest active cursor across all tuples,
    // mirrored per tuple into the shared lag EWMAs (16.16 fixed point,
    // alpha = 1/8) for StatusReport and post-mortem inspection.
    const std::uint32_t tuples =
        std::min(cb->num_tuples.load(std::memory_order_acquire),
                 core::kMaxTuples);
    double occupancy = 0;
    for (std::uint32_t t = 0; t < tuples; ++t) {
        ring::RingBuffer ring = layout_->tupleRing(region_, t);
        std::uint64_t max_lag = 0;
        for (int c = 0; c < static_cast<int>(ring::kMaxConsumers); ++c) {
            if (!ring.consumerActive(c))
                continue;
            max_lag = std::max(max_lag, ring.lag(c));
        }
        std::atomic<std::uint64_t> &ewma = cb->tuning.lag_ewma[t];
        const std::uint64_t old = ewma.load(std::memory_order_relaxed);
        ewma.store(old - old / 8 + (max_lag << 16) / 8,
                   std::memory_order_relaxed);
        if (ring.capacity() > 0)
            occupancy = std::max(
                occupancy, static_cast<double>(max_lag) / ring.capacity());
    }
    sample.occupancy = std::min(occupancy, 1.0);

    sample.wire_active = wire.active;
    // The first tick only establishes the baselines: zero rates.
    if (primed_) {
        const std::uint64_t dt_ns =
            now_ns > prev_ns_ ? now_ns - prev_ns_ : 1;
        const double dt = static_cast<double>(dt_ns) / 1e9;

        sample.events_per_sec =
            static_cast<double>(events - prev_events_) / dt;
        sample.spills_per_sec =
            static_cast<double>(spills - prev_spills_) / dt;

        if (wire.active) {
            sample.wire_events_per_sec =
                static_cast<double>(wire.events - prev_wire_.events) / dt;
            const std::uint64_t passes =
                wire.drain_passes - prev_wire_.drain_passes;
            const std::uint64_t stalls =
                wire.credit_stalls - prev_wire_.credit_stalls;
            if (passes + stalls > 0)
                sample.credit_stall_frac =
                    static_cast<double>(stalls) /
                    static_cast<double>(passes + stalls);
        }
    }

    primed_ = true;
    prev_ns_ = now_ns;
    prev_events_ = events;
    prev_spills_ = spills;
    prev_wire_ = wire;
    return sample;
}

} // namespace varan::adapt
