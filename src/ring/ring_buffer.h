/**
 * @file
 * Disruptor-style shared-memory ring buffer (paper section 3.3.1).
 *
 * One ring connects a thread tuple: the leader's thread is the single
 * producer, each follower's corresponding thread is an independent
 * consumer with its own cursor. The producer may run ahead of the
 * slowest *active* consumer by at most `capacity` events — this bounded
 * run-ahead is the "log distance" measured in section 5.3 and the
 * buffering window discussed in section 6.
 *
 * Lock-free except for futex sleeps: publishing is a store + release,
 * consuming is a load + cursor advance. Crashed or deliberately slow
 * followers are deactivated so they stop gating the producer
 * (transparent failover, section 5.1).
 */

#ifndef VARAN_RING_RING_BUFFER_H
#define VARAN_RING_RING_BUFFER_H

#include <atomic>
#include <cstdint>
#include <span>

#include "ring/event.h"
#include "ring/wait.h"
#include "shmem/region.h"

namespace varan::ring {

/** Upper bound on simultaneously attached consumers (followers). */
inline constexpr std::uint32_t kMaxConsumers = 15;

/** Floor of a consumer's adaptive spin budget (pause iterations). */
inline constexpr std::uint32_t kMinSpinBudget = 16;

/** Per-consumer cursor, cache-line isolated to avoid false sharing. */
struct alignas(kCacheLineSize) ConsumerCursor {
    std::atomic<std::uint64_t> seq;   ///< next sequence this consumer reads
    std::atomic<std::uint32_t> active;
    /** Cap on the spin before the waitlock sleep, learned per consumer
     *  (see RingBuffer::awaitData); ~0u = the WaitSpec's full spin. */
    std::atomic<std::uint32_t> spin_budget;
};

/** Shared control block; events follow immediately after. */
struct RingControl {
    std::uint32_t capacity;  ///< power of two
    std::uint32_t mask;

    alignas(kCacheLineSize) std::atomic<std::uint64_t> head; ///< published
    alignas(kCacheLineSize) std::atomic<std::uint32_t> data_seq;
    std::atomic<std::uint32_t> consumers_waiting;
    alignas(kCacheLineSize) std::atomic<std::uint32_t> space_seq;
    std::atomic<std::uint32_t> producer_waiting;
    alignas(kCacheLineSize) std::atomic<std::uint32_t> attach_bitmap;

    ConsumerCursor cursors[kMaxConsumers];
};

struct RingTap;

/**
 * Value-type handle over a ring living in a shared Region.
 */
class RingBuffer
{
  public:
    RingBuffer() = default;
    RingBuffer(const shmem::Region *region, shmem::Offset off);

    /** Bytes a ring of @p capacity events needs inside a Region. */
    static std::size_t bytesRequired(std::uint32_t capacity);

    /** Format a carved area as an empty ring (coordinator, pre-fork). */
    static RingBuffer initialize(const shmem::Region *region,
                                 shmem::Offset off, std::uint32_t capacity);

    bool valid() const { return region_ != nullptr; }
    shmem::Offset offset() const { return off_; }
    std::uint32_t capacity() const { return control()->capacity; }

    // --- producer side (exactly one thread) ---

    /**
     * Publish one event; blocks (per @p wait) while the ring is full.
     * @return false if the deadline expired before space appeared.
     */
    bool publish(const Event &event, const WaitSpec &wait = {});

    /**
     * Publish a run of events, amortizing synchronization: each claimed
     * chunk costs one release store of head, one data_seq bump and at
     * most one futex wake regardless of chunk length. Batches larger
     * than the currently free space are split into chunks as slots open
     * up, so batches larger than the ring capacity are legal.
     * @return how many events were published; less than events.size()
     *         only if the deadline expired while the ring was full.
     */
    std::size_t publishBatch(std::span<const Event> events,
                             const WaitSpec &wait = {});

    /**
     * Two-phase publication: claim() blocks until at least @p count
     * slots (≤ capacity) are free and returns the first claimed
     * sequence; commit() then writes the events and makes them visible
     * with one head store + at most one futex wake. Between the two the
     * producer owns the claimed slots exclusively, which is where
     * payload-shadow recycling must happen — an old payload may only be
     * released once the gating protocol has proven every consumer is
     * past its slot, i.e. after claim() returns.
     * @return false if the deadline expired before the space appeared.
     */
    bool claim(std::size_t count, std::uint64_t *seq_out,
               const WaitSpec &wait = {});

    /** Complete a claim(): copy @p events in and publish them. */
    void commit(std::span<const Event> events);

    /** Sequence number the next publish will use. */
    std::uint64_t headSeq() const;

    /** Consumers currently asleep in the waitlock. */
    std::uint32_t consumersWaiting() const;

    // --- consumer side ---

    /** Claim a consumer slot; returns slot id or -1 if all are taken. */
    int attachConsumer();

    /** Attach at a specific slot id (used when follower ids are fixed). */
    bool attachConsumerAt(int id);

    /** Release a slot and stop gating the producer on it. */
    void detachConsumer(int id);

    /** Non-blocking read; true if an event was copied out. */
    bool poll(int id, Event *out);

    /**
     * Non-blocking batched read: drains up to @p max already-published
     * events with a single acquire of head and a single cursor advance.
     * @return how many events were copied into @p out (0 when empty).
     */
    std::size_t pollBatch(int id, Event *out, std::size_t max);

    /**
     * Blocking read honouring the wait policy.
     * @return false on deadline expiry (no event copied).
     */
    bool consume(int id, Event *out, const WaitSpec &wait = {});

    /**
     * Blocking batched read: waits (per @p wait) for at least one
     * event, then drains min(available, max) in one synchronization
     * round. Slots are released to the producer immediately, so callers
     * must not touch pool payloads referenced by the returned events
     * after further production (copy them out first, or use
     * peek()/advance() for payload-carrying streams).
     * @return events copied; 0 on deadline expiry.
     */
    std::size_t consumeBatch(int id, Event *out, std::size_t max,
                             const WaitSpec &wait = {});

    /**
     * Two-phase consumption: peek() copies the next event without
     * advancing, so the consumer can finish reading any pool payload it
     * references before advance() releases the slot back to the
     * producer (which may free the payload when the slot is reused).
     */
    bool peek(int id, Event *out, const WaitSpec &wait = {});

    /** Complete a peek(); advances exactly one event. */
    void advance(int id);

    /**
     * Non-advancing batched read: waits (per @p wait) for at least one
     * event, then copies min(available, max) without moving the cursor.
     * The copied run stays claimed until advance()/advanceBy() releases
     * it, so pool payloads referenced by the events remain valid while
     * the consumer works through the run — the batched equivalent of
     * peek() for payload-carrying streams.
     * @return events copied; 0 on deadline expiry.
     */
    std::size_t peekBatch(int id, Event *out, std::size_t max,
                          const WaitSpec &wait = {});

    /** Complete (part of) a peekBatch(): advance @p n events at once. */
    void advanceBy(int id, std::size_t n);

    /** Events published but not yet consumed by slot @p id. */
    std::uint64_t lag(int id) const;

    /** Pause iterations slot @p id spins before sleeping under
     *  @p wait: its learned budget, capped by wait.spin_iterations. */
    std::uint32_t spinBudget(int id, const WaitSpec &wait) const;

    /**
     * Sleep, without spinning, until any of @p taps has an event for
     * its slot, @p extra (when non-null) no longer holds @p extra_seen,
     * or @p timeout_ns (0 = no timeout) passes. The caller is announced
     * in every ring's consumer waitlock while it sleeps, so the
     * producers' ordinary publish path wakes it, and all the rings
     * share one futex_waitv sleep.
     * @return events readable across all taps on return.
     */
    static std::uint64_t
    awaitAny(std::span<const RingTap> taps,
             const std::atomic<std::uint32_t> *extra,
             std::uint32_t extra_seen, std::uint64_t timeout_ns);

    /** True if the slot is attached and gating the producer. */
    bool consumerActive(int id) const;

  private:
    RingControl *control() const;
    Event *slots() const;
    std::uint64_t gatingSequence(std::uint64_t head) const;

    /** Copy @p n events starting at @p from_seq out of the (possibly
     *  wrapping) slot array. */
    void copyOut(std::uint64_t from_seq, Event *out, std::size_t n) const;

    /** Wait until ≥ @p min_free slots are free; returns the free slot
     *  count (0 = deadline expired first). */
    std::uint64_t awaitSpace(std::uint64_t deadline, const WaitSpec &wait,
                             std::uint64_t min_free = 1);

    /** Wait until ≥1 event is readable by @p id; returns available
     *  count (0 = deadline expired). */
    std::uint64_t awaitData(int id, std::uint64_t deadline,
                            const WaitSpec &wait);

    /** Advance @p cur to @p next_seq and wake a blocked producer. */
    void releaseSlots(ConsumerCursor &cur, std::uint64_t next_seq);

    const shmem::Region *region_ = nullptr;
    shmem::Offset off_ = 0;
};

/** One consumer slot of one ring, for RingBuffer::awaitAny(). */
struct RingTap {
    RingBuffer ring;
    int id = -1;
};

} // namespace varan::ring

#endif // VARAN_RING_RING_BUFFER_H
