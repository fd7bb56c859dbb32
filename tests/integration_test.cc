/**
 * @file
 * Cross-module integration and property tests:
 *
 *  - randomised syscall sequences replayed across variant counts and
 *    ring capacities (exit statuses must agree, zero divergences);
 *  - binary rewriting end-to-end *inside* the engine: a variant whose
 *    system call lives in generated machine code, patched by the
 *    rewriter, dispatched through the monitor and replicated to a
 *    follower — the full paper pipeline in one test;
 *  - failover under live load.
 */

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "benchutil/drivers.h"
#include "core/nvx.h"
#include "rewrite/patcher.h"
#include "apps/vstore.h"
#include "syscalls/sys.h"

namespace varan {
namespace {

core::EngineConfig
engineConfig(std::uint32_t ring_capacity = 128)
{
    core::EngineConfig config;
    config.ring.capacity = ring_capacity;
    config.shm_bytes = 32 << 20;
    config.ring.progress_timeout_ns = 15000000000ULL;
    return config;
}

/** Deterministic mixed-syscall workload derived from a seed. */
int
randomWorkload(std::uint64_t seed, int steps)
{
    std::uint64_t state = seed * 2654435761u + 1;
    auto next = [&] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    std::uint64_t acc = 0;
    int open_fd = -1;
    char buf[256];
    for (int i = 0; i < steps; ++i) {
        switch (next() % 6) {
          case 0:
            acc ^= static_cast<std::uint64_t>(sys::vgetpid());
            break;
          case 1: {
            long t = 0;
            sys::vtime(&t);
            acc += 1; // value varies run to run; only the call counts
            break;
          }
          case 2:
            if (open_fd < 0) {
                open_fd = static_cast<int>(
                    sys::vopen("/dev/zero", O_RDONLY));
            }
            break;
          case 3:
            if (open_fd >= 0) {
                long n = sys::vread(open_fd, buf,
                                    1 + next() % sizeof(buf));
                acc += static_cast<std::uint64_t>(n);
            }
            break;
          case 4:
            if (open_fd >= 0) {
                sys::vclose(open_fd);
                open_fd = -1;
            }
            break;
          default: {
            long fd = sys::vopen("/dev/null", O_WRONLY);
            if (fd >= 0) {
                std::size_t len = 1 + next() % 64;
                acc += static_cast<std::uint64_t>(
                    sys::vwrite(static_cast<int>(fd), buf, len));
                sys::vclose(static_cast<int>(fd));
            }
            break;
          }
        }
    }
    if (open_fd >= 0)
        sys::vclose(open_fd);
    return static_cast<int>(acc & 0x7f);
}

class RandomSequenceTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, int, std::uint32_t>>
{
};

TEST_P(RandomSequenceTest, VariantsAgreeWithoutDivergence)
{
    const std::uint64_t seed = std::get<0>(GetParam());
    const int variants = std::get<1>(GetParam());
    const std::uint32_t capacity = std::get<2>(GetParam());

    core::Nvx nvx(engineConfig(capacity));
    std::vector<core::VariantFn> fns(
        static_cast<std::size_t>(variants),
        [seed]() { return randomWorkload(seed, 120); });
    auto results = nvx.run(std::move(fns));
    ASSERT_EQ(results.size(), static_cast<std::size_t>(variants));
    for (const auto &r : results) {
        EXPECT_FALSE(r.crashed) << "variant " << r.variant;
        EXPECT_EQ(r.status, results[0].status) << "variant " << r.variant;
    }
    EXPECT_EQ(nvx.divergencesFatal(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByVariantsByCapacity, RandomSequenceTest,
    ::testing::Combine(::testing::Values(1u, 7u, 42u),
                       ::testing::Values(2, 3),
                       ::testing::Values(8u, 256u)));

TEST(RewriteEngineTest, PatchedMachineCodeStreamsThroughTheEngine)
{
    // The full pipeline of sections 3.1-3.3: generated code containing
    // a real `syscall` instruction is patched by the binary rewriter
    // inside each variant; execution flows detour -> entry ->
    // dispatcher -> leader executes / follower replays.
    auto variant = []() -> int {
        void *mem = ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (mem == MAP_FAILED)
            return 99;
        auto *code = static_cast<std::uint8_t *>(mem);
        const std::uint8_t body[] = {
            0x48, 0xc7, 0xc0, 0x27, 0, 0, 0, // mov rax, 39 (getpid)
            0x0f, 0x05,                      // syscall
            0x48, 0x89, 0xc2,                // mov rdx, rax
            0xc3,                            // ret
        };
        std::memcpy(code, body, sizeof(body));
        ::mprotect(mem, 4096, PROT_READ | PROT_EXEC);

        static rewrite::Rewriter rewriter(&sys::rewriteEntry);
        auto stats = rewriter.rewriteRegion(mem, sizeof(body));
        if (!stats.ok() || stats.value().detours != 1)
            return 98;

        using Fn = long (*)();
        long pid = reinterpret_cast<Fn>(code)();
        // getpid is replicated: every variant must see the leader's pid
        // through the patched instruction. Six bits keep the status
        // below the 98/99 error codes for every pid.
        return static_cast<int>(pid & 0x3f);
    };

    core::Nvx nvx(engineConfig());
    auto results = nvx.run({variant, variant});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].crashed);
    EXPECT_FALSE(results[1].crashed);
    EXPECT_EQ(results[0].status, results[1].status);
    EXPECT_NE(results[0].status, 98);
    EXPECT_NE(results[0].status, 99);
}

TEST(FailoverUnderLoadTest, ServiceSurvivesLeaderCrashMidBenchmark)
{
    std::string endpoint =
        "varan-integ-failover-" + std::to_string(::getpid());
    core::EngineConfig config = engineConfig();
    config.ring.tick_ns = 1000000;
    core::Nvx nvx(config);
    auto buggy = [endpoint]() -> int {
        apps::vstore::Options o;
        o.endpoint = endpoint;
        o.revision.crash_on_hmget = true;
        return apps::vstore::serve(o);
    };
    auto healthy = [endpoint]() -> int {
        apps::vstore::Options o;
        o.endpoint = endpoint;
        return apps::vstore::serve(o);
    };
    ASSERT_TRUE(nvx.start({buggy, healthy}).isOk());

    // Load before, crash, load after: the second batch must complete
    // at full fidelity against the promoted follower.
    auto before = bench::kvBench(endpoint, 2, 40);
    EXPECT_TRUE(before.ok);
    auto crash = bench::kvCommandLatency(endpoint, "HMGET h f");
    EXPECT_TRUE(crash.ok);
    auto after = bench::kvBench(endpoint, 2, 40);
    EXPECT_TRUE(after.ok);
    EXPECT_EQ(after.total_ops, 80);

    bench::kvShutdown(endpoint);
    auto results = nvx.waitFor(30000000000ULL);
    EXPECT_TRUE(results[0].crashed);
    EXPECT_FALSE(results[1].crashed);
}

TEST(ScaleTest, ManyEventsThroughTinyRing)
{
    // 5000 replicated calls through an 8-slot ring exercise thousands
    // of wrap-arounds, gating stalls and waitlock sleeps.
    core::Nvx nvx(engineConfig(8));
    auto app = []() -> int {
        std::uint64_t acc = 0;
        for (int i = 0; i < 5000; ++i)
            acc ^= static_cast<std::uint64_t>(sys::vgetpid());
        return static_cast<int>(acc & 0x3f);
    };
    auto results = nvx.run({app, app, app});
    for (const auto &r : results) {
        EXPECT_FALSE(r.crashed);
        EXPECT_EQ(r.status, results[0].status);
    }
    EXPECT_GE(nvx.eventsStreamed(), 5000u);
}

} // namespace
} // namespace varan
