/**
 * @file
 * Thin futex wrappers used by the shared-memory wait primitives
 * (waitlocks, section 3.3.1) and the pool allocator locks.
 *
 * All addresses must live in memory shared between the waiting and the
 * waking process (MAP_SHARED); VARAN always uses process-shared futexes.
 */

#ifndef VARAN_COMMON_FUTEX_H
#define VARAN_COMMON_FUTEX_H

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace varan {

/** Outcome of a timed futex wait. */
enum class FutexResult {
    Woken,      ///< FUTEX_WAKE arrived (or spurious wake)
    ValueChanged, ///< *addr != expected at syscall entry (EAGAIN)
    TimedOut,   ///< deadline expired
    Interrupted ///< EINTR
};

/**
 * Wait until *addr != expected or a wake arrives.
 *
 * @param addr futex word in shared memory.
 * @param expected value the word must still hold for the wait to sleep.
 * @param timeout_ns relative timeout; 0 means wait forever.
 */
FutexResult futexWait(const std::atomic<std::uint32_t> *addr,
                      std::uint32_t expected, std::uint64_t timeout_ns);

/** One word of a futexWaitAny() set. */
struct FutexWord {
    const std::atomic<std::uint32_t> *addr;
    std::uint32_t expected;
};

/** Most words one futexWaitAny() call accepts (the kernel's limit). */
inline constexpr std::size_t kMaxFutexWords = 128;

/**
 * Wait until any of @p count words differs from its expected value or
 * a wake arrives on any of them (futex_waitv, Linux 5.16+): one sleep
 * over several waitlocks. Where futex_waitv is unavailable this
 * sleeps on the first word only, so a wake on the others is seen when
 * @p timeout_ns expires.
 *
 * @param timeout_ns relative timeout; 0 means wait forever.
 */
FutexResult futexWaitAny(const FutexWord *words, std::size_t count,
                         std::uint64_t timeout_ns);

/**
 * Relative futex timeout left until the monotonic @p deadline_ns; 0
 * (sleep until woken) when there is no deadline. A deadline that has
 * already passed yields 1 ns, never the 0 that means "forever".
 */
std::uint64_t futexTimeoutUntil(std::uint64_t deadline_ns);

/** Wake up to @p count waiters; returns the number actually woken. */
int futexWake(const std::atomic<std::uint32_t> *addr, int count);

} // namespace varan

#endif // VARAN_COMMON_FUTEX_H
