#include "ring/ring_buffer.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "common/clock.h"
#include "common/futex.h"

namespace varan::ring {

namespace {

constexpr std::size_t kControlSize =
    (sizeof(RingControl) + kCacheLineSize - 1) & ~(kCacheLineSize - 1);

bool
deadlinePassed(std::uint64_t deadline_ns)
{
    return deadline_ns != 0 && monotonicNs() >= deadline_ns;
}

std::uint64_t
deadlineFor(const WaitSpec &wait)
{
    return wait.timeout_ns == 0 ? 0 : monotonicNs() + wait.timeout_ns;
}

constexpr std::uint32_t kFullSpinBudget = ~0u;

} // namespace

RingBuffer::RingBuffer(const shmem::Region *region, shmem::Offset off)
    : region_(region), off_(off)
{
}

std::size_t
RingBuffer::bytesRequired(std::uint32_t capacity)
{
    return kControlSize + static_cast<std::size_t>(capacity) * sizeof(Event);
}

RingBuffer
RingBuffer::initialize(const shmem::Region *region, shmem::Offset off,
                       std::uint32_t capacity)
{
    VARAN_CHECK(capacity > 0 && (capacity & (capacity - 1)) == 0);
    auto *ctl = new (region->bytesAt(off, sizeof(RingControl))) RingControl();
    ctl->capacity = capacity;
    ctl->mask = capacity - 1;
    ctl->head.store(0, std::memory_order_relaxed);
    ctl->data_seq.store(0, std::memory_order_relaxed);
    ctl->consumers_waiting.store(0, std::memory_order_relaxed);
    ctl->space_seq.store(0, std::memory_order_relaxed);
    ctl->producer_waiting.store(0, std::memory_order_relaxed);
    ctl->attach_bitmap.store(0, std::memory_order_relaxed);
    for (auto &cur : ctl->cursors) {
        cur.seq.store(0, std::memory_order_relaxed);
        cur.active.store(0, std::memory_order_relaxed);
        cur.spin_budget.store(kFullSpinBudget, std::memory_order_relaxed);
    }
    return RingBuffer(region, off);
}

RingControl *
RingBuffer::control() const
{
    return region_->at<RingControl>(off_);
}

Event *
RingBuffer::slots() const
{
    return static_cast<Event *>(
        region_->bytesAt(off_ + kControlSize,
                         static_cast<std::size_t>(control()->capacity) *
                             sizeof(Event)));
}

std::uint64_t
RingBuffer::gatingSequence(std::uint64_t head) const
{
    RingControl *ctl = control();
    std::uint64_t min_seq = head;
    for (std::uint32_t i = 0; i < kMaxConsumers; ++i) {
        const ConsumerCursor &cur = ctl->cursors[i];
        if (!cur.active.load(std::memory_order_acquire))
            continue;
        std::uint64_t s = cur.seq.load(std::memory_order_acquire);
        if (s < min_seq)
            min_seq = s;
    }
    return min_seq;
}

void
RingBuffer::copyOut(std::uint64_t from_seq, Event *out, std::size_t n) const
{
    RingControl *ctl = control();
    const std::uint64_t idx = from_seq & ctl->mask;
    const std::size_t first = std::min<std::size_t>(n, ctl->capacity - idx);
    std::memcpy(out, slots() + idx, first * sizeof(Event));
    if (n > first)
        std::memcpy(out + first, slots(), (n - first) * sizeof(Event));
}

std::uint64_t
RingBuffer::awaitSpace(std::uint64_t deadline, const WaitSpec &wait,
                       std::uint64_t min_free)
{
    RingControl *ctl = control();
    const std::uint64_t seq = ctl->head.load(std::memory_order_relaxed);

    // Gate on the slowest active consumer; followers that crash get
    // deactivated by the coordinator so they stop holding us back.
    std::uint32_t spins = 0;
    for (;;) {
        const std::uint64_t used = seq - gatingSequence(seq);
        if (used + min_free <= ctl->capacity)
            return ctl->capacity - used;
        if (deadlinePassed(deadline))
            return 0;
        if (wait.busy_only || spins++ < wait.spin_iterations) {
            __builtin_ia32_pause();
            continue;
        }
        ctl->producer_waiting.store(1, std::memory_order_seq_cst);
        // Re-check after announcing, otherwise a consumer that advanced
        // in between would leave us sleeping forever.
        if (seq - gatingSequence(seq) + min_free <= ctl->capacity) {
            ctl->producer_waiting.store(0, std::memory_order_release);
            continue;
        }
        std::uint32_t observed =
            ctl->space_seq.load(std::memory_order_seq_cst);
        if (seq - gatingSequence(seq) + min_free <= ctl->capacity) {
            ctl->producer_waiting.store(0, std::memory_order_release);
            continue;
        }
        futexWait(&ctl->space_seq, observed, futexTimeoutUntil(deadline));
        ctl->producer_waiting.store(0, std::memory_order_release);
    }
}

bool
RingBuffer::publish(const Event &event, const WaitSpec &wait)
{
    RingControl *ctl = control();
    if (awaitSpace(deadlineFor(wait), wait) == 0)
        return false;

    const std::uint64_t seq = ctl->head.load(std::memory_order_relaxed);
    slots()[seq & ctl->mask] = event;
    ctl->head.store(seq + 1, std::memory_order_release);
    // seq_cst pairs with the waiter's announce-then-re-check (awaitData):
    // either it sees this head or we see it announced and wake it.
    ctl->data_seq.fetch_add(1, std::memory_order_seq_cst);
    if (ctl->consumers_waiting.load(std::memory_order_seq_cst) > 0)
        futexWake(&ctl->data_seq, kMaxConsumers);
    return true;
}

std::size_t
RingBuffer::publishBatch(std::span<const Event> events, const WaitSpec &wait)
{
    const std::uint64_t deadline = deadlineFor(wait);
    std::size_t published = 0;

    while (published < events.size()) {
        const std::uint64_t free = awaitSpace(deadline, wait);
        if (free == 0)
            break;
        const std::size_t n = std::min<std::size_t>(
            free, events.size() - published);
        commit({events.data() + published, n});
        published += n;
    }
    return published;
}

bool
RingBuffer::claim(std::size_t count, std::uint64_t *seq_out,
                  const WaitSpec &wait)
{
    RingControl *ctl = control();
    VARAN_CHECK(count >= 1 && count <= ctl->capacity);
    if (awaitSpace(deadlineFor(wait), wait, count) == 0)
        return false;
    if (seq_out)
        *seq_out = ctl->head.load(std::memory_order_relaxed);
    return true;
}

void
RingBuffer::commit(std::span<const Event> events)
{
    RingControl *ctl = control();
    const std::size_t n = events.size();
    const std::uint64_t seq = ctl->head.load(std::memory_order_relaxed);
    const std::uint64_t idx = seq & ctl->mask;
    const std::size_t first = std::min<std::size_t>(n, ctl->capacity - idx);
    std::memcpy(slots() + idx, events.data(), first * sizeof(Event));
    if (n > first)
        std::memcpy(slots(), events.data() + first,
                    (n - first) * sizeof(Event));
    ctl->head.store(seq + n, std::memory_order_release);
    ctl->data_seq.fetch_add(static_cast<std::uint32_t>(n),
                            std::memory_order_seq_cst);
    if (ctl->consumers_waiting.load(std::memory_order_seq_cst) > 0)
        futexWake(&ctl->data_seq, kMaxConsumers);
}

std::uint64_t
RingBuffer::headSeq() const
{
    return control()->head.load(std::memory_order_acquire);
}

std::uint32_t
RingBuffer::consumersWaiting() const
{
    return control()->consumers_waiting.load(std::memory_order_acquire);
}

int
RingBuffer::attachConsumer()
{
    RingControl *ctl = control();
    for (std::uint32_t i = 0; i < kMaxConsumers; ++i) {
        std::uint32_t bit = 1u << i;
        std::uint32_t old = ctl->attach_bitmap.fetch_or(
            bit, std::memory_order_acq_rel);
        if (!(old & bit)) {
            // Start reading at the current head: a late-attaching
            // consumer must not see stale history.
            ctl->cursors[i].seq.store(
                ctl->head.load(std::memory_order_acquire),
                std::memory_order_release);
            ctl->cursors[i].spin_budget.store(kFullSpinBudget,
                                              std::memory_order_relaxed);
            ctl->cursors[i].active.store(1, std::memory_order_release);
            return static_cast<int>(i);
        }
    }
    return -1;
}

bool
RingBuffer::attachConsumerAt(int id)
{
    RingControl *ctl = control();
    VARAN_CHECK(id >= 0 && id < static_cast<int>(kMaxConsumers));
    std::uint32_t bit = 1u << id;
    std::uint32_t old =
        ctl->attach_bitmap.fetch_or(bit, std::memory_order_acq_rel);
    if (old & bit)
        return false;
    ctl->cursors[id].seq.store(ctl->head.load(std::memory_order_acquire),
                               std::memory_order_release);
    ctl->cursors[id].spin_budget.store(kFullSpinBudget,
                                       std::memory_order_relaxed);
    ctl->cursors[id].active.store(1, std::memory_order_release);
    return true;
}

void
RingBuffer::detachConsumer(int id)
{
    RingControl *ctl = control();
    VARAN_CHECK(id >= 0 && id < static_cast<int>(kMaxConsumers));
    ctl->cursors[id].active.store(0, std::memory_order_release);
    ctl->attach_bitmap.fetch_and(~(1u << id), std::memory_order_acq_rel);
    // The producer may be blocked waiting for this consumer's cursor.
    ctl->space_seq.fetch_add(1, std::memory_order_seq_cst);
    futexWake(&ctl->space_seq, 1);
}

std::uint64_t
RingBuffer::awaitData(int id, std::uint64_t deadline, const WaitSpec &wait)
{
    RingControl *ctl = control();
    ConsumerCursor &cur = ctl->cursors[id];
    const std::uint64_t c = cur.seq.load(std::memory_order_relaxed);

    std::uint64_t head = ctl->head.load(std::memory_order_acquire);
    if (head > c)
        return head - c; // no wait: teaches the spin budget nothing

    // Adaptive spin: a consumer whose waits keep ending in the waitlock
    // sleep halves its spin each time (down to kMinSpinBudget), so a
    // follower fed one event per wakeup stops burning a full spin per
    // event; one wait that the spin does satisfy restores the full spin.
    const std::uint32_t budget = spinBudget(id, wait);
    std::uint32_t spins = 0;
    bool slept = false;
    for (;;) {
        head = ctl->head.load(std::memory_order_acquire);
        if (head > c) {
            if (!slept && spins > 0 && !wait.busy_only &&
                budget < wait.spin_iterations) {
                cur.spin_budget.store(kFullSpinBudget,
                                      std::memory_order_relaxed);
            }
            return head - c;
        }
        if (deadlinePassed(deadline))
            return 0;
        if (wait.busy_only || spins < budget) {
            ++spins;
            __builtin_ia32_pause();
            continue;
        }
        if (!slept) {
            slept = true;
            cur.spin_budget.store(std::max(kMinSpinBudget, budget / 2),
                                  std::memory_order_relaxed);
        }
        // Waitlock path (section 3.3.1): sleep until the leader wakes us.
        ctl->consumers_waiting.fetch_add(1, std::memory_order_seq_cst);
        std::uint32_t observed =
            ctl->data_seq.load(std::memory_order_seq_cst);
        if (ctl->head.load(std::memory_order_acquire) > c) {
            ctl->consumers_waiting.fetch_sub(1, std::memory_order_release);
            continue;
        }
        futexWait(&ctl->data_seq, observed, futexTimeoutUntil(deadline));
        ctl->consumers_waiting.fetch_sub(1, std::memory_order_release);
    }
}

std::uint32_t
RingBuffer::spinBudget(int id, const WaitSpec &wait) const
{
    const std::uint32_t learned =
        control()->cursors[id].spin_budget.load(std::memory_order_relaxed);
    return std::min(learned, wait.spin_iterations);
}

std::uint64_t
RingBuffer::awaitAny(std::span<const RingTap> taps,
                     const std::atomic<std::uint32_t> *extra,
                     std::uint32_t extra_seen, std::uint64_t timeout_ns)
{
    VARAN_CHECK(taps.size() < kMaxFutexWords);
    auto readable = [taps] {
        std::uint64_t total = 0;
        for (const RingTap &tap : taps)
            total += tap.ring.lag(tap.id);
        return total;
    };

    // Announce first, then read each data word, then re-check: the same
    // handshake as awaitData, once per ring. A publish either lands
    // before the re-check (seen) or after the announce (it wakes us).
    FutexWord words[kMaxFutexWords];
    std::size_t n = 0;
    for (const RingTap &tap : taps) {
        RingControl *ctl = tap.ring.control();
        ctl->consumers_waiting.fetch_add(1, std::memory_order_seq_cst);
        words[n++] = {&ctl->data_seq,
                      ctl->data_seq.load(std::memory_order_seq_cst)};
    }
    if (extra != nullptr)
        words[n++] = {extra, extra_seen};
    if (n > 0 && readable() == 0 &&
        (extra == nullptr ||
         extra->load(std::memory_order_seq_cst) == extra_seen)) {
        futexWaitAny(words, n, timeout_ns);
    }
    for (const RingTap &tap : taps) {
        tap.ring.control()->consumers_waiting.fetch_sub(
            1, std::memory_order_release);
    }
    return readable();
}

void
RingBuffer::releaseSlots(ConsumerCursor &cur, std::uint64_t next_seq)
{
    RingControl *ctl = control();
    cur.seq.store(next_seq, std::memory_order_release);
    ctl->space_seq.fetch_add(1, std::memory_order_seq_cst);
    if (ctl->producer_waiting.load(std::memory_order_seq_cst))
        futexWake(&ctl->space_seq, 1);
}

bool
RingBuffer::poll(int id, Event *out)
{
    RingControl *ctl = control();
    ConsumerCursor &cur = ctl->cursors[id];
    std::uint64_t c = cur.seq.load(std::memory_order_relaxed);
    if (ctl->head.load(std::memory_order_acquire) <= c)
        return false;
    *out = slots()[c & ctl->mask];
    releaseSlots(cur, c + 1);
    return true;
}

std::size_t
RingBuffer::pollBatch(int id, Event *out, std::size_t max)
{
    RingControl *ctl = control();
    ConsumerCursor &cur = ctl->cursors[id];
    const std::uint64_t c = cur.seq.load(std::memory_order_relaxed);
    const std::uint64_t head = ctl->head.load(std::memory_order_acquire);
    if (head <= c || max == 0)
        return 0;
    const std::size_t n = std::min<std::size_t>(head - c, max);
    copyOut(c, out, n);
    releaseSlots(cur, c + n);
    return n;
}

bool
RingBuffer::consume(int id, Event *out, const WaitSpec &wait)
{
    RingControl *ctl = control();
    ConsumerCursor &cur = ctl->cursors[id];
    std::uint64_t c = cur.seq.load(std::memory_order_relaxed);
    if (awaitData(id, deadlineFor(wait), wait) == 0)
        return false;
    *out = slots()[c & ctl->mask];
    releaseSlots(cur, c + 1);
    return true;
}

std::size_t
RingBuffer::consumeBatch(int id, Event *out, std::size_t max,
                         const WaitSpec &wait)
{
    if (max == 0)
        return 0;
    RingControl *ctl = control();
    ConsumerCursor &cur = ctl->cursors[id];
    const std::uint64_t c = cur.seq.load(std::memory_order_relaxed);
    const std::uint64_t avail = awaitData(id, deadlineFor(wait), wait);
    if (avail == 0)
        return 0;
    const std::size_t n = std::min<std::size_t>(avail, max);
    copyOut(c, out, n);
    releaseSlots(cur, c + n);
    return n;
}

bool
RingBuffer::peek(int id, Event *out, const WaitSpec &wait)
{
    RingControl *ctl = control();
    ConsumerCursor &cur = ctl->cursors[id];
    std::uint64_t c = cur.seq.load(std::memory_order_relaxed);
    if (awaitData(id, deadlineFor(wait), wait) == 0)
        return false;
    *out = slots()[c & ctl->mask];
    return true;
}

void
RingBuffer::advance(int id)
{
    RingControl *ctl = control();
    ConsumerCursor &cur = ctl->cursors[id];
    std::uint64_t c = cur.seq.load(std::memory_order_relaxed);
    releaseSlots(cur, c + 1);
}

std::size_t
RingBuffer::peekBatch(int id, Event *out, std::size_t max,
                      const WaitSpec &wait)
{
    if (max == 0)
        return 0;
    RingControl *ctl = control();
    ConsumerCursor &cur = ctl->cursors[id];
    const std::uint64_t c = cur.seq.load(std::memory_order_relaxed);
    const std::uint64_t avail = awaitData(id, deadlineFor(wait), wait);
    if (avail == 0)
        return 0;
    const std::size_t n = std::min<std::size_t>(avail, max);
    copyOut(c, out, n);
    // Cursor untouched: the run stays claimed (and any pool payloads it
    // references stay alive) until advance()/advanceBy().
    return n;
}

void
RingBuffer::advanceBy(int id, std::size_t n)
{
    if (n == 0)
        return;
    RingControl *ctl = control();
    ConsumerCursor &cur = ctl->cursors[id];
    std::uint64_t c = cur.seq.load(std::memory_order_relaxed);
    releaseSlots(cur, c + n);
}

std::uint64_t
RingBuffer::lag(int id) const
{
    RingControl *ctl = control();
    std::uint64_t head = ctl->head.load(std::memory_order_acquire);
    std::uint64_t c = ctl->cursors[id].seq.load(std::memory_order_acquire);
    return head > c ? head - c : 0;
}

bool
RingBuffer::consumerActive(int id) const
{
    return control()->cursors[id].active.load(std::memory_order_acquire);
}

} // namespace varan::ring
