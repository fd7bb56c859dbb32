/**
 * @file
 * End-to-end tests of the N-version execution engine: leader/follower
 * streaming, result replication, fd mirroring, write-once semantics,
 * virtual time, divergence handling with BPF rules, transparent
 * failover with leader promotion, multi-threaded tuples and forked
 * process tuples.
 *
 * Variant functions run in forked processes, so all verification
 * happens through exit statuses, pipes created before the engine
 * starts (inherited at identical descriptor numbers), and coordinator
 * statistics.
 */

#include <atomic>
#include <fcntl.h>
#include <memory>
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "core/nvx.h"
#include "syscalls/sys.h"

// Deliberate-SIGSEGV tests fight ASan's own SEGV interceptor: both the
// engine's crash handlers and ASan claim the signal, and ASan wins with
// a (fatal) report before the engine can run its failover protocol.
// Pre-existing at the seed; skip those tests so -DVARAN_SANITIZE=ON
// runs green.
#if defined(__SANITIZE_ADDRESS__)
#define VARAN_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define VARAN_ASAN 1
#endif
#endif

#ifdef VARAN_ASAN
#define VARAN_SKIP_UNDER_ASAN()                                          \
    GTEST_SKIP() << "deliberate-crash test: ASan's SEGV interceptor "    \
                    "conflicts with the engine's signal handlers "       \
                    "(pre-existing seed behaviour)"
#else
#define VARAN_SKIP_UNDER_ASAN() ((void)0)
#endif

namespace varan::core {
namespace {

EngineConfig
fastConfig()
{
    EngineConfig config;
    config.ring.capacity = 64;
    config.shm_bytes = 16 << 20;
    config.ring.progress_timeout_ns = 10000000000ULL; // 10 s test safety
    return config;
}

/** Read exactly @p len bytes with a deadline; returns what arrived. */
std::string
readExactly(int fd, std::size_t len, int timeout_ms = 20000)
{
    std::string out;
    std::uint64_t deadline = monotonicNs() +
                             std::uint64_t(timeout_ms) * 1000000ULL;
    while (out.size() < len && monotonicNs() < deadline) {
        struct pollfd pfd = {fd, POLLIN, 0};
        if (::poll(&pfd, 1, 100) <= 0)
            continue;
        char buf[256];
        ssize_t n = ::read(fd, buf,
                           std::min(sizeof(buf), len - out.size()));
        if (n > 0)
            out.append(buf, static_cast<std::size_t>(n));
        else if (n == 0)
            break;
    }
    return out;
}

TEST(NvxTest, SingleVariantRunsToCompletion)
{
    Nvx nvx(fastConfig());
    auto results = nvx.run({[]() -> int { return 17; }});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].crashed);
    EXPECT_EQ(results[0].status, 17);
}

TEST(NvxTest, AllVariantsReportTheirStatus)
{
    Nvx nvx(fastConfig());
    auto results = nvx.run({
        []() -> int { return 1; },
        []() -> int { return 1; },
        []() -> int { return 1; },
    });
    ASSERT_EQ(results.size(), 3u);
    for (const auto &r : results) {
        EXPECT_FALSE(r.crashed) << "variant " << r.variant;
        EXPECT_EQ(r.status, 1);
    }
}

TEST(NvxTest, WriteExecutesExactlyOnce)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);

    auto app = [fds]() -> int {
        const char msg[] = "hello";
        long n = sys::vwrite(fds[1], msg, 5);
        return n == 5 ? 0 : 9;
    };

    Nvx nvx(fastConfig());
    auto results = nvx.run({app, app, app});
    for (const auto &r : results) {
        EXPECT_FALSE(r.crashed);
        EXPECT_EQ(r.status, 0);
    }
    // Three variants, one leader: the pipe carries the message once.
    EXPECT_EQ(readExactly(fds[0], 5), "hello");
    struct pollfd pfd = {fds[0], POLLIN, 0};
    EXPECT_EQ(::poll(&pfd, 1, 200), 0) << "extra bytes in the pipe";
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(NvxTest, FollowersSeeLeadersReadData)
{
    // The leader reads a scratch file; followers must observe the same
    // bytes without touching the file. Sum of bytes becomes the status.
    char path[] = "/tmp/varan-core-read-XXXXXX";
    int tmp = ::mkstemp(path);
    ASSERT_GE(tmp, 0);
    ASSERT_EQ(::write(tmp, "\x01\x02\x03\x04", 4), 4);
    ::close(tmp);

    std::string file(path);
    auto app = [file]() -> int {
        long fd = sys::vopen(file.c_str(), O_RDONLY);
        if (fd < 0)
            return 90;
        unsigned char buf[4] = {};
        long n = sys::vread(static_cast<int>(fd), buf, 4);
        sys::vclose(static_cast<int>(fd));
        if (n != 4)
            return 91;
        return buf[0] + buf[1] + buf[2] + buf[3]; // 10
    };

    Nvx nvx(fastConfig());
    auto results = nvx.run({app, app});
    ::unlink(path);
    for (const auto &r : results) {
        EXPECT_FALSE(r.crashed);
        EXPECT_EQ(r.status, 10) << "variant " << r.variant;
    }
    EXPECT_GT(nvx.fdTransfers(), 0u);
}

TEST(NvxTest, GetpidIsVirtualisedToLeader)
{
    // Real pids differ across variants; the streamed getpid must not.
    auto app = []() -> int {
        return static_cast<int>(sys::vgetpid() & 0x7f);
    };
    Nvx nvx(fastConfig());
    auto results = nvx.run({app, app, app});
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].status, results[1].status);
    EXPECT_EQ(results[1].status, results[2].status);
}

TEST(NvxTest, VirtualTimeComesFromLeader)
{
    auto app = []() -> int {
        struct timespec ts = {};
        sys::vclock_gettime(CLOCK_MONOTONIC, &ts);
        return static_cast<int>(ts.tv_nsec % 251);
    };
    Nvx nvx(fastConfig());
    auto results = nvx.run({app, app});
    EXPECT_EQ(results[0].status, results[1].status);
}

TEST(NvxTest, FdNumbersMirrorAcrossVariants)
{
    auto app = []() -> int {
        long fd1 = sys::vopen("/dev/null", O_RDONLY);
        long fd2 = sys::vopen("/dev/zero", O_RDONLY);
        sys::vclose(static_cast<int>(fd1));
        long fd3 = sys::vopen("/dev/null", O_WRONLY);
        // fd numbers must be identical in every variant; fold them into
        // the status byte.
        return static_cast<int>((fd1 * 49 + fd2 * 7 + fd3) & 0x7f);
    };
    Nvx nvx(fastConfig());
    auto results = nvx.run({app, app, app});
    EXPECT_EQ(results[0].status, results[1].status);
    EXPECT_EQ(results[1].status, results[2].status);
    EXPECT_FALSE(results[0].crashed);
}

TEST(NvxTest, PipeSyscallMirrorsBothEnds)
{
    auto app = []() -> int {
        int fds[2] = {-1, -1};
        if (sys::vpipe2(fds, 0) < 0)
            return 80;
        const char byte = 'x';
        if (sys::vwrite(fds[1], &byte, 1) != 1)
            return 81;
        char in = 0;
        if (sys::vread(fds[0], &in, 1) != 1)
            return 82;
        sys::vclose(fds[0]);
        sys::vclose(fds[1]);
        return in == 'x' ? 0 : 83;
    };
    Nvx nvx(fastConfig());
    auto results = nvx.run({app, app});
    for (const auto &r : results) {
        EXPECT_FALSE(r.crashed);
        EXPECT_EQ(r.status, 0) << "variant " << r.variant;
    }
}

TEST(NvxTest, StatsCountStreamedEvents)
{
    auto app = []() -> int {
        for (int i = 0; i < 10; ++i)
            sys::vgetpid();
        return 0;
    };
    Nvx nvx(fastConfig());
    auto results = nvx.run({app, app});
    EXPECT_FALSE(results[0].crashed);
    // 10 getpids + exit event, at least.
    EXPECT_GE(nvx.eventsStreamed(), 11u);
    EXPECT_EQ(nvx.divergencesFatal(), 0u);
}

TEST(NvxTest, SmallRingBackpressureStillCompletes)
{
    EngineConfig config = fastConfig();
    config.ring.capacity = 4; // tiny: leader must block on followers
    auto app = []() -> int {
        for (int i = 0; i < 200; ++i)
            sys::vgetpid();
        return 0;
    };
    Nvx nvx(config);
    auto results = nvx.run({app, app});
    for (const auto &r : results) {
        EXPECT_FALSE(r.crashed);
        EXPECT_EQ(r.status, 0);
    }
}

TEST(NvxTest, FollowerCrashLeavesOthersRunning)
{
    VARAN_SKIP_UNDER_ASAN();
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    auto app = [fds]() -> int {
        for (int i = 0; i < 20; ++i) {
            if (i == 10 && Monitor::instance()->variantId() == 2) {
                int *p = nullptr;
                *p = 1; // follower 2 dies here
            }
            char c = static_cast<char>('a' + i);
            sys::vwrite(fds[1], &c, 1);
        }
        return 0;
    };
    Nvx nvx(fastConfig());
    auto results = nvx.run({app, app, app});
    EXPECT_FALSE(results[0].crashed);
    EXPECT_EQ(results[0].status, 0);
    EXPECT_FALSE(results[1].crashed);
    EXPECT_TRUE(results[2].crashed);
    // All 20 writes made it out exactly once.
    std::string got = readExactly(fds[0], 20);
    EXPECT_EQ(got, "abcdefghijklmnopqrst");
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(NvxTest, LeaderCrashFailsOverTransparently)
{
    VARAN_SKIP_UNDER_ASAN();
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    auto app = [fds]() -> int {
        for (int i = 0; i < 10; ++i) {
            // The *original* leader dies after message 5; the follower
            // must be promoted and finish messages 6..10.
            if (i == 5 && Monitor::instance()->variantId() == 0) {
                int *p = nullptr;
                *p = 1;
            }
            char c = static_cast<char>('0' + i);
            sys::vwrite(fds[1], &c, 1);
        }
        return 0;
    };
    Nvx nvx(fastConfig());
    auto results = nvx.run({app, app});
    EXPECT_TRUE(results[0].crashed);
    EXPECT_FALSE(results[1].crashed);
    EXPECT_EQ(results[1].status, 0);
    EXPECT_EQ(nvx.currentLeader(), 1);
    EXPECT_GE(nvx.epoch(), 1u);
    // Every message exactly once, in order, across the failover.
    EXPECT_EQ(readExactly(fds[0], 10), "0123456789");
    struct pollfd pfd = {fds[0], POLLIN, 0};
    EXPECT_EQ(::poll(&pfd, 1, 200), 0) << "duplicated writes";
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(NvxTest, FailoverWithThreeVariantsElectsLowestLive)
{
    VARAN_SKIP_UNDER_ASAN();
    auto app = []() -> int {
        for (int i = 0; i < 30; ++i) {
            if (i == 7 && Monitor::instance()->variantId() == 0) {
                int *p = nullptr;
                *p = 1;
            }
            sys::vgetpid();
        }
        return 0;
    };
    Nvx nvx(fastConfig());
    auto results = nvx.run({app, app, app});
    EXPECT_TRUE(results[0].crashed);
    EXPECT_FALSE(results[1].crashed);
    EXPECT_FALSE(results[2].crashed);
    // Leadership moved off the crashed variant (and then passes down
    // the live set as leaders exit normally at the end of the run).
    EXPECT_NE(nvx.currentLeader(), 0);
    EXPECT_GE(nvx.epoch(), 1u);
}

TEST(NvxTest, DivergenceWithoutRulesKillsFollower)
{
    auto app = []() -> int {
        // The follower performs an extra syscall the leader never
        // makes: a sequence divergence.
        if (Monitor::instance() &&
            Monitor::instance()->variantId() == 1) {
            sys::vgetuid();
        }
        sys::vgetpid();
        return 0;
    };
    Nvx nvx(fastConfig());
    auto results = nvx.run({app, app});
    EXPECT_FALSE(results[0].crashed);
    EXPECT_TRUE(results[1].crashed);
    EXPECT_EQ(results[1].status, kDivergenceExitStatus);
    EXPECT_GE(nvx.divergencesFatal(), 1u);
}

TEST(NvxTest, AllowRuleExecutesFollowerExtraCallLocally)
{
    EngineConfig config = fastConfig();
    // Allow a getuid the leader did not make when the leader is at
    // getpid — modelled on the paper's Listing 1 (section 5.2).
    config.rewrite_rules.push_back(
        "ld event[0]\n"
        "jeq #39, checkmine /* leader at getpid */\n"
        "jmp bad\n"
        "checkmine:\n"
        "ld [0]\n"
        "jeq #102, good /* follower wants getuid */\n"
        "bad: ret #0\n"
        "good: ret #0x7fff0000\n");
    auto app = []() -> int {
        if (Monitor::instance() &&
            Monitor::instance()->variantId() == 1) {
            sys::vgetuid(); // extra call, resolved by the rule
        }
        sys::vgetpid();
        return 0;
    };
    Nvx nvx(config);
    auto results = nvx.run({app, app});
    EXPECT_FALSE(results[0].crashed);
    EXPECT_FALSE(results[1].crashed) << "rule should have resolved it";
    EXPECT_GE(nvx.divergencesResolved(), 1u);
    EXPECT_EQ(nvx.divergencesFatal(), 0u);
}

TEST(NvxTest, SkipRuleDropsLeaderOnlyEvent)
{
    EngineConfig config = fastConfig();
    // The leader performs an extra getuid; followers skip that event.
    config.rewrite_rules.push_back(
        "ld event[0]\n"
        "jeq #102, skip /* leader-only getuid */\n"
        "ret #0\n"
        "skip: ret #0x7ffd0000\n");
    auto app = []() -> int {
        if (Monitor::instance() &&
            Monitor::instance()->variantId() == 0) {
            sys::vgetuid(); // leader-only call
        }
        sys::vgetpid();
        return 0;
    };
    Nvx nvx(config);
    auto results = nvx.run({app, app});
    EXPECT_FALSE(results[0].crashed);
    EXPECT_FALSE(results[1].crashed);
    EXPECT_GE(nvx.divergencesResolved(), 1u);
}

TEST(NvxTest, ErrnoRuleSynthesisesResult)
{
    EngineConfig config = fastConfig();
    // Follower's extra getuid is absorbed with -ENOSYS (38).
    config.rewrite_rules.push_back(
        "ld [0]\n"
        "jeq #102, synth\n"
        "ret #0\n"
        "synth: ret #0x00050026\n"); // ERRNO | 38
    auto app = []() -> int {
        if (Monitor::instance() &&
            Monitor::instance()->variantId() == 1) {
            long r = sys::vgetuid();
            if (r != -38)
                return 70; // must observe the synthetic errno
        }
        sys::vgetpid();
        return 0;
    };
    Nvx nvx(config);
    auto results = nvx.run({app, app});
    EXPECT_FALSE(results[1].crashed);
    EXPECT_EQ(results[1].status, 0);
}

/** Every syscall whose table row names a hashed IN buffer: a
 *  follower passing different bytes than the leader is a fatal
 *  divergence. */
class WriteContentDivergenceTest : public ::testing::TestWithParam<long>
{
};

TEST_P(WriteContentDivergenceTest, IsDetected)
{
    const long nr = GetParam();
    ASSERT_GE(sys::syscallInfo(nr).hashed_in.arg, 0);
    // The leader's bytes land in fds[1] and are read back from fds[0]:
    // pwrite64 needs a seekable file, sendto a socket.
    int fds[2];
    if (nr == SYS_pwrite64) {
        fds[0] = ::memfd_create("varan-divergence", 0);
        ASSERT_GE(fds[0], 0);
        fds[1] = ::dup(fds[0]);
    } else if (nr == SYS_sendto) {
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    } else {
        ASSERT_EQ(::pipe(fds), 0);
    }
    auto app = [fds, nr]() -> int {
        const bool follower = Monitor::instance()->variantId() == 1;
        const char *msg = follower ? "EVIL!" : "good.";
        // Trailing arguments stay 0: pwrite64 at offset 0, sendto with
        // no flags on the connected socket.
        sys::invoke(nr, fds[1], reinterpret_cast<long>(msg), 5);
        return 0;
    };
    Nvx nvx(fastConfig());
    auto results = nvx.run({app, app});
    EXPECT_FALSE(results[0].crashed);
    EXPECT_TRUE(results[1].crashed) << "content divergence missed";
    EXPECT_EQ(readExactly(fds[0], 5), "good.");
    ::close(fds[0]);
    ::close(fds[1]);
}

INSTANTIATE_TEST_SUITE_P(
    NvxTest, WriteContentDivergenceTest,
    ::testing::Values(SYS_write, SYS_pwrite64, SYS_sendto),
    [](const ::testing::TestParamInfo<long> &info) {
        return std::string(sys::syscallInfo(info.param).name);
    });

TEST(NvxTest, MultiThreadedTuplesStreamIndependently)
{
    int pipe_a[2];
    int pipe_b[2];
    ASSERT_EQ(::pipe(pipe_a), 0);
    ASSERT_EQ(::pipe(pipe_b), 0);

    auto app = [pipe_a, pipe_b]() -> int {
        VThread worker([pipe_b] {
            for (int i = 0; i < 25; ++i) {
                char c = static_cast<char>('A' + (i % 26));
                sys::vwrite(pipe_b[1], &c, 1);
            }
        });
        for (int i = 0; i < 25; ++i) {
            char c = static_cast<char>('a' + (i % 26));
            sys::vwrite(pipe_a[1], &c, 1);
        }
        worker.join();
        return 0;
    };

    Nvx nvx(fastConfig());
    auto results = nvx.run({app, app});
    for (const auto &r : results) {
        EXPECT_FALSE(r.crashed);
        EXPECT_EQ(r.status, 0);
    }
    std::string a = readExactly(pipe_a[0], 25);
    std::string b = readExactly(pipe_b[0], 25);
    EXPECT_EQ(a, "abcdefghijklmnopqrstuvwxy");
    EXPECT_EQ(b, "ABCDEFGHIJKLMNOPQRSTUVWXY");
    for (int fd : {pipe_a[0], pipe_a[1], pipe_b[0], pipe_b[1]})
        ::close(fd);
}

TEST(NvxTest, ForkedProcessTupleStreams)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    auto app = [fds]() -> int {
        long child = sys::invoke(SYS_fork);
        if (child == 0) {
            sys::vwrite(fds[1], "C", 1);
            sys::vexit(0);
        }
        sys::vwrite(fds[1], "P", 1);
        // wait4 is Local: each variant reaps its own child.
        int status = 0;
        ::waitpid(static_cast<pid_t>(child), &status, 0);
        return WIFEXITED(status) ? WEXITSTATUS(status) : 77;
    };
    Nvx nvx(fastConfig());
    auto results = nvx.run({app, app});
    for (const auto &r : results) {
        EXPECT_FALSE(r.crashed);
        EXPECT_EQ(r.status, 0) << "variant " << r.variant;
    }
    std::string got = readExactly(fds[0], 2);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, "CP"); // each written exactly once, either order
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(NvxTest, SixFollowersComplete)
{
    // The paper's maximum configuration: one leader + six followers.
    auto app = []() -> int {
        for (int i = 0; i < 50; ++i)
            sys::vgetpid();
        return 0;
    };
    Nvx nvx(fastConfig());
    std::vector<VariantFn> variants(7, app);
    auto results = nvx.run(variants);
    ASSERT_EQ(results.size(), 7u);
    for (const auto &r : results) {
        EXPECT_FALSE(r.crashed) << "variant " << r.variant;
        EXPECT_EQ(r.status, 0);
    }
}

TEST(NvxTest, NonDefaultLeaderIndex)
{
    EngineConfig config = fastConfig();
    config.leader_index = 1; // e.g. newest revision leads (section 2.2)
    auto app = []() -> int {
        sys::vgetpid();
        return Monitor::instance()->isLeader() ? 50 : 51;
    };
    Nvx nvx(config);
    auto results = nvx.run({app, app});
    EXPECT_EQ(results[0].status, 51);
    EXPECT_EQ(results[1].status, 50);
}

TEST(NvxTest, SlowFollowerIsBoundedByRingCapacity)
{
    EngineConfig config = fastConfig();
    config.ring.capacity = 8;
    auto app = []() -> int {
        const bool slow = Monitor::instance()->variantId() == 1;
        for (int i = 0; i < 40; ++i) {
            if (slow && i % 8 == 0)
                sleepNs(2000000); // sanitizer-style lag (section 5.3)
            sys::vgetpid();
        }
        return 0;
    };
    Nvx nvx(config);
    Status started = nvx.start({app, app});
    ASSERT_TRUE(started.isOk());
    // While running, the log distance can never exceed the capacity.
    std::uint64_t max_seen = 0;
    for (int i = 0; i < 50; ++i) {
        max_seen = std::max(max_seen, nvx.ringLagOf(1));
        sleepNs(1000000);
    }
    auto results = nvx.wait();
    EXPECT_LE(max_seen, 8u);
    for (const auto &r : results)
        EXPECT_FALSE(r.crashed);
}

TEST(NvxTest, MultiTupleRunsUseDistinctPoolArenas)
{
    // Two tuples reading files concurrently: payloads come from each
    // tuple's own arena and nothing spills to the global fallback.
    char path[] = "/tmp/varan-core-shard-XXXXXX";
    int tmp = ::mkstemp(path);
    ASSERT_GE(tmp, 0);
    ASSERT_EQ(::write(tmp, "\x05\x06\x07\x08", 4), 4);
    ::close(tmp);

    std::string file(path);
    auto readSum = [file]() -> int {
        long fd = sys::vopen(file.c_str(), O_RDONLY);
        if (fd < 0)
            return 90;
        unsigned char buf[4] = {};
        long n = sys::vread(static_cast<int>(fd), buf, 4);
        sys::vclose(static_cast<int>(fd));
        if (n != 4)
            return 91;
        return buf[0] + buf[1] + buf[2] + buf[3]; // 26
    };
    auto app = [readSum]() -> int {
        int worker_sum = 0;
        {
            VThread worker([&worker_sum, readSum] {
                for (int i = 0; i < 8; ++i)
                    worker_sum = readSum();
            });
            for (int i = 0; i < 8; ++i) {
                if (readSum() != 26)
                    return 92;
            }
        }
        return worker_sum; // 26 when the worker tuple replayed right
    };

    Nvx nvx(fastConfig());
    auto results = nvx.run({app, app});
    ::unlink(path);
    for (const auto &r : results) {
        EXPECT_FALSE(r.crashed);
        EXPECT_EQ(r.status, 26) << "variant " << r.variant;
    }
    // Healthy arenas never fall back to the shared one.
    EXPECT_EQ(nvx.poolSpills(), 0u);
}

TEST(NvxTest, ManyTuplesFdTransferStress)
{
    // Regression for the per-tuple descriptor-routing race: leader
    // threads of several tuples create descriptors concurrently, all
    // funneled through one data channel per follower. Before transfers
    // carried tuple tags (and the follower demuxed them), concurrent
    // recvmsg could hand tuple A's descriptor to tuple B and the
    // mirroring dup2/close dance could destroy a live descriptor.
    constexpr int kWorkers = 3;
    constexpr int kOpensPerTuple = 25;
    auto app = []() -> int {
        auto churn = []() -> bool {
            for (int i = 0; i < kOpensPerTuple; ++i) {
                long fd = sys::vopen("/dev/null", O_RDONLY);
                if (fd < 0)
                    return false;
                char buf[4];
                sys::vread(static_cast<int>(fd), buf, sizeof(buf));
                if (sys::vclose(static_cast<int>(fd)) < 0)
                    return false;
            }
            return true;
        };
        std::atomic<int> ok{0};
        {
            std::vector<std::unique_ptr<VThread>> workers;
            for (int w = 0; w < kWorkers; ++w) {
                workers.push_back(std::make_unique<VThread>([&ok, churn] {
                    if (churn())
                        ok.fetch_add(1, std::memory_order_relaxed);
                }));
            }
            if (churn())
                ok.fetch_add(1, std::memory_order_relaxed);
        }
        return ok.load(std::memory_order_relaxed) == kWorkers + 1 ? 0 : 93;
    };

    EngineConfig config = fastConfig();
    config.ring.progress_timeout_ns = 20000000000ULL;
    Nvx nvx(config);
    auto results = nvx.run({app, app});
    for (const auto &r : results) {
        EXPECT_FALSE(r.crashed) << "variant " << r.variant;
        EXPECT_EQ(r.status, 0) << "variant " << r.variant;
    }
    EXPECT_EQ(nvx.divergencesFatal(), 0u);
    EXPECT_GT(nvx.fdTransfers(),
              static_cast<std::uint64_t>(kWorkers * kOpensPerTuple));
}

TEST(NvxTest, PoolStatsExposeArenaPressure)
{
    // The coordinator status slice: per-arena carve cursors and chunk
    // counts, fed by real payload traffic on tuple 0.
    char path[] = "/tmp/varan-core-stats-XXXXXX";
    int tmp = ::mkstemp(path);
    ASSERT_GE(tmp, 0);
    ASSERT_EQ(::write(tmp, "stats", 5), 5);
    ::close(tmp);

    std::string file(path);
    auto app = [file]() -> int {
        for (int i = 0; i < 10; ++i) {
            long fd = sys::vopen(file.c_str(), O_RDONLY);
            char buf[8];
            sys::vread(static_cast<int>(fd), buf, sizeof(buf));
            sys::vclose(static_cast<int>(fd));
        }
        return 0;
    };
    Nvx nvx(fastConfig());
    auto results = nvx.run({app, app});
    ::unlink(path);
    for (const auto &r : results)
        EXPECT_FALSE(r.crashed);

    shmem::PoolStats stats = nvx.poolStats();
    EXPECT_EQ(stats.num_shards, kMaxTuples);
    EXPECT_EQ(stats.spills, nvx.poolSpills());
    // Tuple 0 carved from its own arena; nobody touched the others.
    EXPECT_GT(stats.shard[0].bytes_carved, 0u);
    EXPECT_GT(stats.shard[0].live_chunks + stats.shard[0].free_chunks, 0u);
    EXPECT_EQ(stats.shard[1].bytes_carved, 0u);
    EXPECT_EQ(stats.global.live_chunks, 0u);
    EXPECT_LE(stats.shard[0].bytes_carved, stats.shard[0].bytes_total);
}

// --- the redesigned coordinator API -----------------------------------

TEST(NvxTest, StatusReportSnapshotsLiveEngine)
{
    // The unified snapshot must agree with the narrow getters, both
    // while the engine runs and after it drains.
    int gate[2];
    ASSERT_EQ(::pipe(gate), 0);
    auto app = [gate]() -> int {
        for (int i = 0; i < 8; ++i)
            sys::vgetpid();
        char go = 0;
        if (sys::vread(gate[0], &go, 1) != 1)
            return 75;
        return 4;
    };
    Nvx nvx(fastConfig());
    ASSERT_TRUE(nvx.start({VariantSpec(app).named("a"),
                           VariantSpec(app).named("b")})
                    .isOk());

    // Wait until the leader parked itself in the gate read.
    std::uint64_t deadline = monotonicNs() + 5000000000ULL;
    while (nvx.eventsStreamed() < 8 && monotonicNs() < deadline)
        sleepNs(1000000);

    StatusReport live = nvx.status();
    EXPECT_EQ(live.num_variants, 2u);
    EXPECT_EQ(live.ring_capacity, 64u);
    EXPECT_EQ(live.leader, static_cast<std::uint32_t>(nvx.currentLeader()));
    EXPECT_EQ(live.epoch, nvx.epoch());
    EXPECT_EQ(live.live_mask, 3u);
    EXPECT_GE(live.num_tuples, 1u);
    EXPECT_EQ(live.events_streamed, nvx.eventsStreamed());
    EXPECT_EQ(live.divergences_resolved, nvx.divergencesResolved());
    EXPECT_EQ(live.divergences_fatal, nvx.divergencesFatal());
    EXPECT_EQ(live.fd_transfers, nvx.fdTransfers());
    EXPECT_EQ(live.pool.num_shards, kMaxTuples);
    EXPECT_EQ(live.pool.spills, nvx.poolSpills());
    EXPECT_EQ(live.variants[0].state,
              static_cast<std::uint32_t>(VariantState::Running));
    EXPECT_EQ(live.variants[1].state,
              static_cast<std::uint32_t>(VariantState::Running));
    EXPECT_EQ(live.variants[0].role,
              static_cast<std::uint32_t>(VariantRole::LeaderCandidate));
    EXPECT_GT(live.variants[0].syscalls, 0u);
    EXPECT_GT(live.variants[0].pid, 0u);
    // The follower drains concurrently; its lag is bounded, not fixed.
    EXPECT_LE(live.variants[1].ring_lag, live.ring_capacity);
    // No wire shipping in this engine: the wire sections stay zeroed.
    EXPECT_EQ(live.shipper.active, 0u);
    EXPECT_EQ(live.receiver.active, 0u);

    ASSERT_EQ(::write(gate[1], "gg", 2), 2);
    auto results = nvx.wait();
    for (const auto &r : results) {
        EXPECT_FALSE(r.crashed);
        EXPECT_EQ(r.status, 4);
    }
    ::close(gate[0]);
    ::close(gate[1]);
}

TEST(NvxTest, StatusReportFinalStateAfterDrain)
{
    auto app = []() -> int {
        for (int i = 0; i < 5; ++i)
            sys::vgetpid();
        return 3;
    };
    Nvx nvx(fastConfig());
    auto results = nvx.run({app, app});
    ASSERT_EQ(results.size(), 2u);
    StatusReport report = nvx.status();
    EXPECT_EQ(report.live_mask, 0u);
    EXPECT_EQ(report.events_streamed, nvx.eventsStreamed());
    for (std::uint32_t v = 0; v < 2; ++v) {
        EXPECT_EQ(report.variants[v].state,
                  static_cast<std::uint32_t>(VariantState::Exited));
        EXPECT_EQ(report.variants[v].exit_status, 3);
        EXPECT_EQ(report.variants[v].restarts, 0u);
    }
}

TEST(NvxTest, BuilderComposesEngineAndHooks)
{
    // The fluent surface end to end: grouped config, named specs and
    // the on_variant_exit hook (called on the monitor thread).
    std::atomic<int> exits{0};
    auto app = []() -> int {
        sys::vgetpid();
        return 0;
    };
    auto nvx = Nvx::Builder()
                   .shmBytes(16 << 20)
                   .ringCapacity(64)
                   .progressTimeoutNs(10000000000ULL)
                   .onVariantExit([&exits](const VariantResult &r,
                                           bool restarting) {
                       if (!restarting && !r.crashed)
                           exits.fetch_add(1, std::memory_order_relaxed);
                   })
                   .variant(app)
                   .variant(VariantSpec(app).named("follower"))
                   .build();
    auto results = nvx->run();
    ASSERT_EQ(results.size(), 2u);
    for (const auto &r : results) {
        EXPECT_FALSE(r.crashed);
        EXPECT_EQ(r.status, 0);
    }
    EXPECT_EQ(exits.load(std::memory_order_relaxed), 2);
}

TEST(NvxTest, PerVariantRulesResolveOnlyForThatVariant)
{
    // The section 5.2 scenario done right: the rewrite rule belongs to
    // the revision that diverges, not to the engine. Variant 1 carries
    // an allow-getuid rule and survives its extra call; variant 2 has
    // no rules and must die with the classic lockstep verdict.
    const char *allow_getuid_at_getpid =
        "ld event[0]\n"
        "jeq #39, checkmine /* leader at getpid */\n"
        "jmp bad\n"
        "checkmine:\n"
        "ld [0]\n"
        "jeq #102, good /* follower wants getuid */\n"
        "bad: ret #0\n"
        "good: ret #0x7fff0000\n";
    auto app = []() -> int {
        if (Monitor::instance() &&
            Monitor::instance()->variantId() >= 1) {
            sys::vgetuid(); // extra call the leader never makes
        }
        sys::vgetpid();
        return 0;
    };
    Nvx nvx(fastConfig());
    auto results = nvx.run({
        VariantSpec(app).named("leader"),
        VariantSpec(app).named("patched").rule(allow_getuid_at_getpid),
        VariantSpec(app).named("unpatched"),
    });
    EXPECT_FALSE(results[0].crashed);
    EXPECT_FALSE(results[1].crashed) << "its own rule should resolve it";
    EXPECT_TRUE(results[2].crashed) << "no rule: divergence is fatal";
    EXPECT_EQ(results[2].status, kDivergenceExitStatus);
    EXPECT_GE(nvx.divergencesResolved(), 1u);
    EXPECT_GE(nvx.divergencesFatal(), 1u);
}

TEST(NvxTest, FollowerOnlyIsNeverElected)
{
    VARAN_SKIP_UNDER_ASAN();
    // Variant 0 (leader) crashes; variant 1 is FollowerOnly (e.g. a
    // sanitizer build) and must be passed over in favour of variant 2.
    std::atomic<std::uint32_t> failover_leader{0xffffffffu};
    auto app = []() -> int {
        for (int i = 0; i < 20; ++i) {
            if (i == 5 && Monitor::instance()->variantId() == 0) {
                int *p = nullptr;
                *p = 1;
            }
            sys::vgetpid();
        }
        return 0;
    };
    auto nvx = Nvx::Builder()
                   .shmBytes(16 << 20)
                   .ringCapacity(64)
                   .progressTimeoutNs(10000000000ULL)
                   .onFailover([&failover_leader](std::uint32_t,
                                                  std::uint32_t leader) {
                       failover_leader.store(leader,
                                             std::memory_order_relaxed);
                   })
                   .variant(app)
                   .variant(VariantSpec(app).named("asan").as(
                       VariantRole::FollowerOnly))
                   .variant(app)
                   .build();
    auto results = nvx->run();
    EXPECT_TRUE(results[0].crashed);
    EXPECT_FALSE(results[1].crashed);
    EXPECT_FALSE(results[2].crashed);
    EXPECT_NE(nvx->currentLeader(), 1);
    EXPECT_GE(nvx->epoch(), 1u);
    EXPECT_EQ(failover_leader.load(std::memory_order_relaxed), 2u);
    StatusReport report = nvx->status();
    EXPECT_EQ(report.variants[1].role,
              static_cast<std::uint32_t>(VariantRole::FollowerOnly));
}

TEST(NvxTest, FollowerOnlyLeaderIndexFallsBackToCandidate)
{
    // leader_index pointing at a FollowerOnly spec must not make it
    // lead: the lowest LeaderCandidate takes the role instead.
    auto app = []() -> int {
        sys::vgetpid();
        return Monitor::instance()->isLeader() ? 50 : 51;
    };
    EngineConfig config = fastConfig();
    config.leader_index = 0;
    Nvx nvx(config);
    auto results = nvx.run({
        VariantSpec(app).as(VariantRole::FollowerOnly),
        VariantSpec(app),
    });
    EXPECT_EQ(results[0].status, 51);
    EXPECT_EQ(results[1].status, 50);
}

TEST(NvxTest, RestartPolicyRespawnsCrashedFollower)
{
    VARAN_SKIP_UNDER_ASAN();
    // A FollowerOnly variant with RestartPolicy::OnCrash dies on its
    // first incarnation; the coordinator must respawn it, re-attached
    // at the stream tail, and the second incarnation finishes clean.
    struct Shared {
        std::atomic<std::uint32_t> incarnation;
        std::atomic<std::uint32_t> follower_ready;
    };
    auto *shared = static_cast<Shared *>(
        ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_ANONYMOUS, -1, 0));
    ASSERT_NE(shared, MAP_FAILED);
    new (shared) Shared{};

    std::atomic<int> restarts_seen{0};
    auto app = [shared]() -> int {
        Monitor *monitor = Monitor::instance();
        if (monitor->variantId() == 1) {
            if (shared->incarnation.fetch_add(
                    1, std::memory_order_acq_rel) == 0) {
                int *p = nullptr;
                *p = 1; // first incarnation dies before any event
            }
            shared->follower_ready.store(1, std::memory_order_release);
        } else {
            // The leader publishes nothing until the respawned follower
            // is live, so the restart joins an empty stream tail.
            while (shared->follower_ready.load(
                       std::memory_order_acquire) == 0) {
                sleepNs(1000000);
            }
        }
        sys::vgetpid();
        return 0;
    };

    auto nvx =
        Nvx::Builder()
            .shmBytes(16 << 20)
            .ringCapacity(64)
            .progressTimeoutNs(10000000000ULL)
            .onVariantExit([&restarts_seen](const VariantResult &,
                                            bool restarting) {
                if (restarting)
                    restarts_seen.fetch_add(1, std::memory_order_relaxed);
            })
            .variant(app)
            .variant(VariantSpec(app)
                         .named("respawning")
                         .as(VariantRole::FollowerOnly)
                         .restartOn(RestartPolicy::OnCrash))
            .build();
    auto results = nvx->run();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].crashed);
    EXPECT_EQ(results[0].status, 0);
    // The *final* incarnation exited clean; the crash was absorbed.
    EXPECT_FALSE(results[1].crashed);
    EXPECT_EQ(results[1].status, 0);
    EXPECT_EQ(results[1].restarts, 1u);
    EXPECT_EQ(restarts_seen.load(std::memory_order_relaxed), 1);
    EXPECT_EQ(shared->incarnation.load(std::memory_order_acquire), 2u);
    EXPECT_EQ(nvx->status().variants[1].restarts, 1u);
    ::munmap(shared, 4096);
}

TEST(NvxTest, LeaderWithoutSuccessorIsNotRestarted)
{
    VARAN_SKIP_UNDER_ASAN();
    // The leader crashes with a restart policy while only a
    // FollowerOnly variant survives: leadership cannot transfer, so a
    // respawn would come back *as leader* publishing fresh program
    // state into a mid-replay follower. The coordinator must refuse.
    auto app = []() -> int {
        if (Monitor::instance()->variantId() == 0) {
            sys::vgetpid();
            int *p = nullptr;
            *p = 1;
        }
        sys::vgetpid();
        return 0;
    };
    EngineConfig config = fastConfig();
    // Short progress timeout: the orphaned follower gives up quickly.
    config.ring.progress_timeout_ns = 2000000000ULL; // 2 s
    Nvx nvx(config);
    auto results = nvx.run({
        VariantSpec(app).restartOn(RestartPolicy::OnCrash),
        VariantSpec(app).as(VariantRole::FollowerOnly),
    });
    EXPECT_TRUE(results[0].crashed);
    EXPECT_EQ(results[0].restarts, 0u) << "must not resurrect as leader";
    EXPECT_EQ(nvx.status().variants[0].restarts, 0u);
}

TEST(NvxTest, WaitForDeadlineMarksSurvivors)
{
    // Variants still running at the waitFor deadline must report
    // "killed at timeout" (kTimedOutStatus), never a clean exit(0).
    int gate[2];
    ASSERT_EQ(::pipe(gate), 0);
    auto app = [gate]() -> int {
        char go = 0;
        sys::vread(gate[0], &go, 1); // blocks forever: never written
        return 0;
    };
    Nvx nvx(fastConfig());
    ASSERT_TRUE(nvx.start({app, app}).isOk());
    auto results = nvx.waitFor(300000000ULL); // 300 ms
    ASSERT_EQ(results.size(), 2u);
    for (const auto &r : results) {
        EXPECT_EQ(r.status, kTimedOutStatus) << "variant " << r.variant;
        EXPECT_FALSE(r.crashed);
    }
    ::close(gate[0]);
    ::close(gate[1]);
}

TEST(NvxTest, WaitForBeforeDeadlineKeepsRealStatuses)
{
    auto app = []() -> int {
        sys::vgetpid();
        return 21;
    };
    Nvx nvx(fastConfig());
    ASSERT_TRUE(nvx.start({app, app}).isOk());
    auto results = nvx.waitFor(20000000000ULL);
    for (const auto &r : results) {
        EXPECT_FALSE(r.crashed);
        EXPECT_EQ(r.status, 21);
    }
}

TEST(NvxTest, AnonymousEntryPointsStillRun)
{
    // The NvxOptions shim is gone (its one-release grace period
    // elapsed); the plain-function overloads remain and build default
    // VariantSpecs under the hood.
    EngineConfig config;
    config.ring.capacity = 64;
    config.shm_bytes = 16 << 20;
    config.ring.progress_timeout_ns = 10000000000ULL;
    auto app = []() -> int {
        sys::vgetpid();
        return 6;
    };
    Nvx nvx(std::move(config));
    auto results = nvx.run({app, app});
    ASSERT_EQ(results.size(), 2u);
    for (const auto &r : results) {
        EXPECT_FALSE(r.crashed);
        EXPECT_EQ(r.status, 6);
    }
    EXPECT_GE(nvx.eventsStreamed(), 1u);
}

} // namespace
} // namespace varan::core
