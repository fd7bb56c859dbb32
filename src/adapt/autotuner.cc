#include "adapt/autotuner.h"

#include "common/clock.h"

namespace varan::adapt {

using core::TuningBlock;

AutoTuner::AutoTuner(const shmem::Region *region,
                     const core::EngineLayout *layout, Options options,
                     Sampler::WireSource wire)
    : region_(region), layout_(layout), options_(options),
      sampler_(region, layout, std::move(wire)),
      controller_(options.controller)
{
}

AutoTuner::~AutoTuner()
{
    stop();
}

void
AutoTuner::start()
{
    if (running_.exchange(true, std::memory_order_acq_rel))
        return;
    TuningBlock &tuning = layout_->controlBlock(region_)->tuning;
    tuning.adapt_active.store(1, std::memory_order_release);
    thread_ = std::thread(&AutoTuner::loop, this);
}

void
AutoTuner::stop()
{
    if (!running_.exchange(false, std::memory_order_acq_rel))
        return;
    if (thread_.joinable())
        thread_.join();
    layout_->controlBlock(region_)->tuning.adapt_active.store(
        0, std::memory_order_release);
}

void
AutoTuner::loop()
{
    while (running_.load(std::memory_order_acquire)) {
        sleepNs(options_.tick_ns);
        if (!running_.load(std::memory_order_acquire))
            break;
        tickOnce(monotonicNs());
    }
}

std::vector<Decision>
AutoTuner::tickOnce(std::uint64_t now_ns)
{
    TuningBlock &tuning = layout_->controlBlock(region_)->tuning;

    const Sample sample = sampler_.tick(now_ns);
    tuning.adapt_samples.fetch_add(1, std::memory_order_relaxed);

    const core::Tuning current = core::TuningHandle(&tuning).snapshot();
    std::vector<Decision> decisions = controller_.step(sample, current);

    const std::uint32_t pinned =
        tuning.pinned_mask.load(std::memory_order_acquire);
    std::vector<Decision> applied;
    applied.reserve(decisions.size());
    for (const Decision &d : decisions) {
        if (pinned & (1u << static_cast<std::uint32_t>(d.knob)))
            continue; // operator override wins
        core::applyKnob(tuning, d.knob, d.to);
        tuning.adapt_decisions.fetch_add(1, std::memory_order_relaxed);
        decisions_applied_.fetch_add(1, std::memory_order_relaxed);
        applied.push_back(d);
    }
    return applied;
}

} // namespace varan::adapt
