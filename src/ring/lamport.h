/**
 * @file
 * Variant-wide Lamport clock (paper section 3.3.3, Figure 3).
 *
 * Each variant has one clock shared by all its threads. The leader's
 * threads stamp every published event with `tick()`; a follower thread
 * holding an event may only process it when the follower's clock equals
 * `timestamp - 1`, which enforces the leader's happens-before order
 * across all of the variant's thread-tuple rings.
 */

#ifndef VARAN_RING_LAMPORT_H
#define VARAN_RING_LAMPORT_H

#include <atomic>
#include <cstdint>

#include "common/clock.h"
#include "common/futex.h"
#include "common/macros.h"
#include "ring/wait.h"
#include "shmem/region.h"

namespace varan::ring {

/** Clock state in shared memory. */
struct alignas(kCacheLineSize) ClockState {
    std::atomic<std::uint64_t> value;   ///< last issued/processed stamp
    std::atomic<std::uint32_t> notify;  ///< futex word bumped on advance
    std::atomic<std::uint32_t> waiters;
};

/** Handle over a ClockState inside a Region. */
class LamportClock
{
  public:
    LamportClock() = default;
    LamportClock(const shmem::Region *region, shmem::Offset off)
        : state_(region->at<ClockState>(off))
    {
    }

    static std::size_t bytesRequired() { return sizeof(ClockState); }

    static LamportClock
    initialize(const shmem::Region *region, shmem::Offset off)
    {
        auto *st = region->at<ClockState>(off);
        st->value.store(0, std::memory_order_relaxed);
        st->notify.store(0, std::memory_order_relaxed);
        st->waiters.store(0, std::memory_order_relaxed);
        return LamportClock(region, off);
    }

    /** Leader thread: claim the next timestamp (1, 2, 3, ...). */
    std::uint64_t
    tick()
    {
        return state_->value.fetch_add(1, std::memory_order_acq_rel) + 1;
    }

    std::uint64_t
    current() const
    {
        return state_->value.load(std::memory_order_acquire);
    }

    /**
     * Follower thread: wait until it is @p timestamp's turn, i.e. the
     * variant clock reads timestamp - 1.
     * @return false on deadline expiry.
     */
    bool
    awaitTurn(std::uint64_t timestamp, const WaitSpec &wait = {})
    {
        const std::uint64_t want = timestamp - 1;
        const std::uint64_t deadline =
            wait.timeout_ns ? monotonicNs() + wait.timeout_ns : 0;
        std::uint32_t spins = 0;
        while (state_->value.load(std::memory_order_acquire) != want) {
            if (deadline && monotonicNs() >= deadline)
                return false;
            if (wait.busy_only || spins++ < wait.spin_iterations) {
                __builtin_ia32_pause();
                continue;
            }
            state_->waiters.fetch_add(1, std::memory_order_seq_cst);
            std::uint32_t observed =
                state_->notify.load(std::memory_order_seq_cst);
            if (state_->value.load(std::memory_order_acquire) == want) {
                state_->waiters.fetch_sub(1, std::memory_order_release);
                break;
            }
            futexWait(&state_->notify, observed,
                      futexTimeoutUntil(deadline));
            state_->waiters.fetch_sub(1, std::memory_order_release);
        }
        return true;
    }

    /** Follower thread: mark @p timestamp processed and wake siblings. */
    void
    advanceTo(std::uint64_t timestamp)
    {
        state_->value.store(timestamp, std::memory_order_release);
        // seq_cst pairs with awaitTurn's announce-then-re-check.
        state_->notify.fetch_add(1, std::memory_order_seq_cst);
        if (state_->waiters.load(std::memory_order_seq_cst) > 0)
            futexWake(&state_->notify, kMaxWake);
    }

  private:
    static constexpr int kMaxWake = 64;

    ClockState *state_ = nullptr;
};

} // namespace varan::ring

#endif // VARAN_RING_LAMPORT_H
