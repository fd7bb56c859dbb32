#include "common/futex.h"

#include "common/clock.h"
#include "common/logging.h"

#include <cerrno>
#include <ctime>
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

namespace varan {

namespace {

long
sysFutex(const void *addr, int op, std::uint32_t val,
         const struct timespec *timeout)
{
    return ::syscall(SYS_futex, addr, op, val, timeout, nullptr, 0);
}

FutexResult
resultOf(long rc)
{
    if (rc >= 0)
        return FutexResult::Woken;
    switch (errno) {
      case EAGAIN:
        return FutexResult::ValueChanged;
      case ETIMEDOUT:
        return FutexResult::TimedOut;
      case EINTR:
        return FutexResult::Interrupted;
      default:
        return FutexResult::Woken;
    }
}

} // namespace

FutexResult
futexWait(const std::atomic<std::uint32_t> *addr, std::uint32_t expected,
          std::uint64_t timeout_ns)
{
    struct timespec ts;
    struct timespec *tsp = nullptr;
    if (timeout_ns > 0) {
        ts.tv_sec = static_cast<time_t>(timeout_ns / 1000000000ULL);
        ts.tv_nsec = static_cast<long>(timeout_ns % 1000000000ULL);
        tsp = &ts;
    }
    return resultOf(sysFutex(addr, FUTEX_WAIT, expected, tsp));
}

FutexResult
futexWaitAny(const FutexWord *words, std::size_t count,
             std::uint64_t timeout_ns)
{
    VARAN_CHECK(count >= 1 && count <= kMaxFutexWords);
    struct futex_waitv waiters[kMaxFutexWords] = {};
    for (std::size_t i = 0; i < count; ++i) {
        waiters[i].val = words[i].expected;
        waiters[i].uaddr = reinterpret_cast<std::uintptr_t>(words[i].addr);
        waiters[i].flags = FUTEX_32; // shared: the words live in MAP_SHARED
    }
    // futex_waitv takes an absolute deadline on the given clock.
    struct timespec ts;
    struct timespec *tsp = nullptr;
    if (timeout_ns > 0) {
        const std::uint64_t deadline = monotonicNs() + timeout_ns;
        ts.tv_sec = static_cast<time_t>(deadline / 1000000000ULL);
        ts.tv_nsec = static_cast<long>(deadline % 1000000000ULL);
        tsp = &ts;
    }
    long rc = ::syscall(SYS_futex_waitv, waiters,
                        static_cast<unsigned>(count), 0u, tsp,
                        CLOCK_MONOTONIC);
    // No futex_waitv (an old kernel, or a seccomp filter that predates
    // it): a sleep on the first word still honours the timeout, where
    // returning at once would turn every caller's wait into a spin.
    if (rc < 0 && (errno == ENOSYS || errno == EPERM))
        return futexWait(words[0].addr, words[0].expected, timeout_ns);
    return resultOf(rc);
}

std::uint64_t
futexTimeoutUntil(std::uint64_t deadline_ns)
{
    if (deadline_ns == 0)
        return 0;
    const std::uint64_t now = monotonicNs();
    return deadline_ns > now ? deadline_ns - now : 1;
}

int
futexWake(const std::atomic<std::uint32_t> *addr, int count)
{
    long rc = sysFutex(addr, FUTEX_WAKE, static_cast<std::uint32_t>(count),
                       nullptr);
    return rc < 0 ? 0 : static_cast<int>(rc);
}

} // namespace varan
