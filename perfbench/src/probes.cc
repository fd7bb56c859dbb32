/**
 * @file
 * Isolated layer probes for public functions that otherwise only run
 * inside the engine: a rewritten syscall site, sys::syscallInfo, the
 * cross-thread ring handoff, ShardedPool at 512 B, an fdpass round trip
 * and wire::bodyChecksum. Each is timed in five rounds; the median is
 * reported.
 */

#include <atomic>
#include <cstring>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "common/fdpass.h"
#include "ring/ring_buffer.h"
#include "shmem/pool.h"
#include "shmem/region.h"
#include "workloads.h"
#include "wire/protocol.h"

namespace perfbench {

namespace {

using namespace varan;

constexpr int kRounds = 5;

template <typename Fn>
double
medianRounds(Fn round)
{
    std::vector<double> xs;
    for (int r = 0; r < kRounds; ++r)
        xs.push_back(round());
    return median(xs);
}

/** Keep @p value alive for the optimiser without a memory access. */
template <typename T>
inline void
keep(const T &value)
{
    asm volatile("" : : "r,m"(value) : "memory");
}

// --- rewritten syscall site ----------------------------------------------

using SiteFn = long (*)(long nr, long a1, long a2, long a3);

/** Emit `long f(nr, a1, a2, a3) { syscall }` into fresh executable
 *  memory; @p rewrite routes its syscall through the rewriter. */
SiteFn
emitSite(bool rewrite)
{
    static const std::uint8_t code[] = {
        0x48, 0x89, 0xf8, // mov rax, rdi (nr)
        0x48, 0x89, 0xf7, // mov rdi, rsi
        0x48, 0x89, 0xd6, // mov rsi, rdx
        0x48, 0x89, 0xca, // mov rdx, rcx
        0x0f, 0x05,       // syscall
        0x48, 0x89, 0xc1, // mov rcx, rax (relocatable neighbours)
        0x48, 0x89, 0xc8, // mov rax, rcx
        0xc3,             // ret
    };
    void *mem = ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED)
        return nullptr;
    std::memcpy(mem, code, sizeof(code));
    ::mprotect(mem, 4096, PROT_READ | PROT_EXEC);
    if (rewrite) {
        static rewrite::Rewriter rewriter(&sys::rewriteEntry);
        auto stats = rewriter.rewriteRegion(mem, sizeof(code));
        if (!stats.ok() || stats.value().sites_found != 1)
            return nullptr;
    }
    return reinterpret_cast<SiteFn>(mem);
}

double
siteNsPerCall(SiteFn fn, const std::vector<long> &mix)
{
    constexpr int kIters = 50000;
    // Harmless arguments: every call of the mix fails fast on fd -1 or
    // a null path, which keeps the kernel side constant.
    for (int i = 0; i < 1000; ++i)
        keep(fn(mix[i % mix.size()], -1, 0, 0));
    const std::uint64_t t0 = tsc();
    for (int i = 0; i < kIters; ++i)
        keep(fn(mix[i % mix.size()], -1, 0, 0));
    return tscToNs(double(tsc() - t0)) / kIters;
}

double
interceptNs(const std::vector<long> &mix)
{
    static SiteFn raw = emitSite(false);
    static SiteFn rewritten = emitSite(true);
    if (!raw || !rewritten)
        return 0;
    return medianRounds([&] {
        return siteNsPerCall(rewritten, mix) - siteNsPerCall(raw, mix);
    });
}

// --- classify ------------------------------------------------------------

double
classifyNs(const std::vector<long> &mix)
{
    constexpr int kIters = 2000000;
    return medianRounds([&] {
        std::uint32_t acc = 0;
        const long *nrs = mix.data();
        const std::size_t n = mix.size();
        const std::uint64_t t0 = tsc();
        for (int i = 0; i < kIters; ++i) {
            keep(nrs);
            acc += std::uint32_t(sys::syscallInfo(nrs[i % n]).cls);
        }
        const double ns = tscToNs(double(tsc() - t0)) / kIters;
        keep(acc);
        return ns;
    });
}

// --- ring handoff --------------------------------------------------------

struct Handoff {
    double p50 = 0, p99 = 0;
};

/**
 * Publish on this thread, consume on another, at ring capacity 256.
 * Events are spaced @p gap_ns apart so each crossing is measured
 * unloaded: a small gap keeps the consumer spinning, a gap past its
 * spin budget makes it sleep on the futex before every event.
 */
Handoff
ringHandoff(std::uint64_t gap_ns, int events, const ring::WaitSpec &wait)
{
    constexpr std::uint32_t kCapacity = 256;
    auto region = shmem::Region::create(
        ring::RingBuffer::bytesRequired(kCapacity) + 2 * 4096);
    if (!region.ok())
        return {};
    ring::RingBuffer ring =
        ring::RingBuffer::initialize(&region.value(), 4096, kCapacity);
    const int id = ring.attachConsumer();
    std::vector<double> ns(std::size_t(events), 0.0);
    std::atomic<int> consumed{0};
    std::thread consumer([&] {
        ring::Event ev;
        for (int k = 0; k < events; ++k) {
            if (!ring.consume(id, &ev, wait))
                break;
            const std::uint64_t now = tsc();
            ns[std::size_t(k)] = tscToNs(double(now - ev.timestamp));
            consumed.store(k + 1, std::memory_order_release);
        }
    });
    const std::uint64_t gap = std::uint64_t(tscPerNs() * double(gap_ns));
    for (int k = 0; k < events; ++k) {
        while (consumed.load(std::memory_order_acquire) < k)
            __builtin_ia32_pause();
        const std::uint64_t due = tsc() + gap;
        while (tsc() < due)
            __builtin_ia32_pause();
        ring::Event ev = {};
        ev.type = ring::EventType::Syscall;
        ev.nr = SYS_getppid;
        ev.timestamp = tsc();
        ring.publish(ev);
    }
    consumer.join();
    return {quantile(ns, 0.5), quantile(ns, 0.99)};
}

// --- shared pool ---------------------------------------------------------

double
poolAllocReleaseNs()
{
    constexpr std::size_t kBytes = 8 << 20;
    auto region = shmem::Region::create(kBytes);
    if (!region.ok())
        return 0;
    shmem::ShardedPool pool = shmem::ShardedPool::initialize(
        &region.value(), 4096, 16384, kBytes, 4);
    constexpr int kIters = 200000;
    return medianRounds([&] {
        const std::uint64_t t0 = tsc();
        for (int i = 0; i < kIters; ++i) {
            shmem::Offset off = pool.allocate(0, 512);
            keep(off);
            pool.release(off);
        }
        return tscToNs(double(tsc() - t0)) / kIters;
    });
}

// --- fd passing ----------------------------------------------------------

double
fdpassRoundNs()
{
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
        return 0;
    int fd = ::open("/dev/null", O_RDONLY);
    constexpr int kIters = 5000;
    const double ns = medianRounds([&] {
        const std::uint64_t t0 = tsc();
        for (int i = 0; i < kIters; ++i) {
            if (!sendFd(sv[0], fd, std::uint64_t(i)).isOk())
                return 0.0;
            auto got = recvFd(sv[1]);
            if (!got.ok())
                return 0.0;
        }
        return tscToNs(double(tsc() - t0)) / kIters;
    });
    ::close(fd);
    ::close(sv[0]);
    ::close(sv[1]);
    return ns;
}

// --- wire checksum -------------------------------------------------------

double
checksumNsPerKb(std::size_t bytes)
{
    bytes = std::max<std::size_t>(bytes, 64);
    std::vector<unsigned char> body(bytes);
    Rng rng(bytes);
    for (unsigned char &b : body)
        b = static_cast<unsigned char>(rng.next());
    const int iters = int(std::max<std::size_t>(200, (8u << 20) / bytes));
    return medianRounds([&] {
        std::uint32_t acc = 0;
        const std::uint64_t t0 = tsc();
        for (int i = 0; i < iters; ++i) {
            keep(body.data());
            acc ^= wire::bodyChecksum(body.data(), bytes);
        }
        const double ns = tscToNs(double(tsc() - t0)) / iters;
        keep(acc);
        return ns * 1024.0 / double(bytes);
    });
}

} // namespace

void
addProbeMetrics(RunOutput &out, const ProbeShape &shape)
{
    out.add("rewrite.intercept_ns", "ns", interceptNs(shape.nr_mix));
    out.add("syscalls.classify_ns", "ns", classifyNs(shape.nr_mix));
    const Handoff spin =
        ringHandoff(2000, 20000, ring::WaitSpec::busyWait());
    out.add("ring.handoff_ns_p50.spin", "ns", spin.p50);
    out.add("ring.handoff_ns_p99.spin", "ns", spin.p99);
    const Handoff sleep = ringHandoff(300000, 1000, ring::WaitSpec{});
    out.add("ring.handoff_ns_p50.sleep", "ns", sleep.p50);
    out.add("ring.handoff_ns_p99.sleep", "ns", sleep.p99);
    out.add("shmem.pool_alloc_release_ns", "ns", poolAllocReleaseNs());
    out.add("common.fdpass_round_ns", "ns", fdpassRoundNs());
    out.add("wire.checksum_ns_per_kb", "ns/KiB",
            checksumNsPerKb(shape.checksum_bytes));
}

} // namespace perfbench
