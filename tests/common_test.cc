/**
 * @file
 * Unit tests for the common substrate: fd wrappers, fd passing, futex,
 * clocks, the CRC32C checksum, results and logging levels.
 */

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/fd.h"
#include "common/fdpass.h"
#include "common/futex.h"
#include "common/hash.h"
#include "common/result.h"
#include "wire/protocol.h"

namespace varan {
namespace {

bool
fdIsOpen(int fd)
{
    return ::fcntl(fd, F_GETFD) >= 0;
}

TEST(FdTest, ClosesOnDestruction)
{
    int raw = ::open("/dev/null", O_RDONLY);
    ASSERT_GE(raw, 0);
    {
        Fd fd(raw);
        EXPECT_TRUE(fd.valid());
        EXPECT_TRUE(fdIsOpen(raw));
    }
    EXPECT_FALSE(fdIsOpen(raw));
}

TEST(FdTest, MoveTransfersOwnership)
{
    int raw = ::open("/dev/null", O_RDONLY);
    ASSERT_GE(raw, 0);
    Fd a(raw);
    Fd b(std::move(a));
    EXPECT_FALSE(a.valid());
    EXPECT_EQ(b.get(), raw);
    Fd c;
    c = std::move(b);
    EXPECT_FALSE(b.valid());
    EXPECT_EQ(c.get(), raw);
}

TEST(FdTest, ReleaseDisownsWithoutClosing)
{
    int raw = ::open("/dev/null", O_RDONLY);
    ASSERT_GE(raw, 0);
    {
        Fd fd(raw);
        EXPECT_EQ(fd.release(), raw);
    }
    EXPECT_TRUE(fdIsOpen(raw));
    ::close(raw);
}

TEST(FdTest, DuplicateProducesIndependentDescriptor)
{
    Fd fd(::open("/dev/null", O_RDONLY));
    auto dup = fd.duplicate();
    ASSERT_TRUE(dup.ok());
    EXPECT_NE(dup.value().get(), fd.get());
    EXPECT_TRUE(fdIsOpen(dup.value().get()));
}

TEST(FdTest, DuplicateToTargetsSpecificNumber)
{
    Fd fd(::open("/dev/null", O_RDONLY));
    const int target = 345;
    auto dup = fd.duplicateTo(target);
    ASSERT_TRUE(dup.ok());
    EXPECT_EQ(dup.value().get(), target);
}

TEST(SocketPairTest, EndsAreConnected)
{
    auto pair = SocketPair::create(SOCK_STREAM);
    ASSERT_TRUE(pair.ok());
    auto &sp = pair.value();
    const char msg[] = "hello";
    ASSERT_TRUE(writeAll(sp.end(0).get(), msg, sizeof(msg)).isOk());
    char buf[sizeof(msg)] = {};
    ASSERT_TRUE(readAll(sp.end(1).get(), buf, sizeof(buf)).isOk());
    EXPECT_STREQ(buf, msg);
}

TEST(ReadWriteAllTest, ReadAllReportsEofAsEpipe)
{
    auto pair = SocketPair::create(SOCK_STREAM);
    ASSERT_TRUE(pair.ok());
    auto &sp = pair.value();
    sp.end(0).reset(); // close writer
    char buf[4];
    Status st = readAll(sp.end(1).get(), buf, sizeof(buf));
    EXPECT_FALSE(st.isOk());
    EXPECT_EQ(st.error().code, EPIPE);
}

TEST(FdPassTest, TransfersDescriptorAndTag)
{
    auto pair = SocketPair::create(SOCK_STREAM);
    ASSERT_TRUE(pair.ok());
    auto &sp = pair.value();

    Fd file(::open("/dev/zero", O_RDONLY));
    ASSERT_TRUE(file.valid());
    ASSERT_TRUE(sendFd(sp.end(0).get(), file.get(), 0xabcdef).isOk());

    auto got = recvFd(sp.end(1).get());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().tag, 0xabcdefu);
    // The received descriptor must actually work.
    char b;
    EXPECT_EQ(::read(got.value().fd.get(), &b, 1), 1);
    EXPECT_EQ(b, 0);
}

TEST(FdPassTest, WorksAcrossFork)
{
    auto pair = SocketPair::create(SOCK_STREAM);
    ASSERT_TRUE(pair.ok());
    auto &sp = pair.value();

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: open a pipe end and send the read side to the parent.
        int pfd[2];
        if (::pipe(pfd) < 0)
            _exit(1);
        if (::write(pfd[1], "Z", 1) != 1)
            _exit(2);
        if (!sendFd(sp.end(0).get(), pfd[0], 7).isOk())
            _exit(3);
        _exit(0);
    }
    auto got = recvFd(sp.end(1).get());
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_EQ(WEXITSTATUS(status), 0);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().tag, 7u);
    char b = 0;
    EXPECT_EQ(::read(got.value().fd.get(), &b, 1), 1);
    EXPECT_EQ(b, 'Z');
}

TEST(FutexTest, WakeReleasesWaiter)
{
    std::atomic<std::uint32_t> word{0};
    std::atomic<bool> woke{false};
    std::thread waiter([&] {
        while (word.load() == 0) {
            FutexResult r = futexWait(&word, 0, 100000000ULL);
            if (r == FutexResult::ValueChanged || word.load() != 0)
                break;
        }
        woke.store(true);
    });
    sleepNs(10000000); // 10 ms
    word.store(1);
    futexWake(&word, 1);
    waiter.join();
    EXPECT_TRUE(woke.load());
}

TEST(FutexTest, TimedWaitExpires)
{
    std::atomic<std::uint32_t> word{0};
    std::uint64_t t0 = monotonicNs();
    FutexResult r = futexWait(&word, 0, 20000000ULL); // 20 ms
    std::uint64_t dt = monotonicNs() - t0;
    EXPECT_EQ(r, FutexResult::TimedOut);
    EXPECT_GE(dt, 15000000ULL);
}

TEST(FutexTest, ValueMismatchReturnsImmediately)
{
    std::atomic<std::uint32_t> word{5};
    EXPECT_EQ(futexWait(&word, 0, 0), FutexResult::ValueChanged);
}

TEST(ClockTest, MonotonicAdvances)
{
    std::uint64_t a = monotonicNs();
    sleepNs(1000000);
    std::uint64_t b = monotonicNs();
    EXPECT_GT(b, a);
}

TEST(ClockTest, RdtscAdvances)
{
    std::uint64_t a = rdtsc();
    unsigned sink = 0;
    for (int i = 0; i < 1000; ++i)
        sink += static_cast<unsigned>(i);
    asm volatile("" :: "r"(sink));
    EXPECT_GT(rdtsc(), a);
}

TEST(Crc32cTest, MatchesTheRfc3720CheckValue)
{
    const char check[] = "123456789";
    EXPECT_EQ(crc32c(check, 9), 0xE3069283u);
    EXPECT_EQ(detail::crc32cPortable(check, 9), 0xE3069283u);
    EXPECT_EQ(crc32c(nullptr, 0), 0u);
}

TEST(Crc32cTest, HardwareAndSoftwarePathsAgree)
{
    // Every length across the 8-byte word loop and its byte tail, at
    // every start alignment: both paths must give identical bits.
    std::vector<std::uint8_t> buf(1100 + 8);
    std::uint32_t x = 0x9e3779b9u;
    for (auto &b : buf) {
        x = x * 1664525u + 1013904223u;
        b = static_cast<std::uint8_t>(x >> 24);
    }
    for (std::size_t align = 0; align < 8; ++align) {
        for (std::size_t len = 0; len <= 1100; ++len) {
            const std::uint8_t *p = buf.data() + align;
            ASSERT_EQ(crc32c(p, len), detail::crc32cPortable(p, len))
                << "len " << len << " align " << align;
            ASSERT_EQ(crc32c(p, len, 0x12345678u),
                      detail::crc32cPortable(p, len, 0x12345678u))
                << "seeded, len " << len << " align " << align;
        }
    }
}

TEST(Crc32cTest, SeedChainsPartialSums)
{
    const char data[] = "the quick brown fox jumps over the lazy dog";
    const std::size_t len = sizeof(data) - 1;
    const std::uint32_t whole = crc32c(data, len);
    for (std::size_t split = 0; split <= len; ++split) {
        EXPECT_EQ(crc32c(data + split, len - split, crc32c(data, split)),
                  whole)
            << "split " << split;
        EXPECT_EQ(detail::crc32cPortable(
                      data + split, len - split,
                      detail::crc32cPortable(data, split)),
                  whole)
            << "split " << split;
    }
}

TEST(Crc32cTest, EmptyWireBodyChecksumsToZero)
{
    // makeHeader() stamps body-less frames with this value.
    EXPECT_EQ(wire::bodyChecksum(nullptr, 0), 0u);
    EXPECT_EQ(wire::makeHeader(wire::FrameType::Bye, 0).body_crc, 0u);
}

TEST(ResultTest, ValueRoundTrip)
{
    Result<int> r(42);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), 42);
    EXPECT_EQ(r.valueOr(7), 42);
}

TEST(ResultTest, ErrorCarriesErrno)
{
    Result<int> r(Errno{ENOENT});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ENOENT);
    EXPECT_EQ(r.valueOr(7), 7);
    EXPECT_FALSE(r.error().message().empty());
}

TEST(StatusTest, OkAndError)
{
    EXPECT_TRUE(Status::ok().isOk());
    Status err(Errno{EBADF});
    EXPECT_FALSE(err.isOk());
    EXPECT_EQ(err.error().code, EBADF);
}

} // namespace
} // namespace varan
