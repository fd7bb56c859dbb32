/**
 * @file
 * Tests for the syscall classification table and the dispatch shim.
 */

#include <sys/syscall.h>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "syscalls/classify.h"
#include "syscalls/raw.h"
#include "syscalls/sys.h"

namespace varan::sys {
namespace {

TEST(ClassifyTest, CoversThePaperScale)
{
    // The paper implemented 86 system calls (section 3.3); the table
    // must at least match that coverage.
    EXPECT_GE(handledSyscallCount(), 86u);
}

TEST(ClassifyTest, CoreClassesAreRight)
{
    EXPECT_EQ(syscallInfo(SYS_read).cls, SyscallClass::Replicated);
    EXPECT_EQ(syscallInfo(SYS_write).cls, SyscallClass::Replicated);
    EXPECT_EQ(syscallInfo(SYS_open).cls, SyscallClass::FdCreating);
    EXPECT_EQ(syscallInfo(SYS_socket).cls, SyscallClass::FdCreating);
    EXPECT_EQ(syscallInfo(SYS_accept4).cls, SyscallClass::FdCreating);
    EXPECT_EQ(syscallInfo(SYS_mmap).cls, SyscallClass::Local);
    EXPECT_EQ(syscallInfo(SYS_futex).cls, SyscallClass::Local);
    EXPECT_EQ(syscallInfo(SYS_time).cls, SyscallClass::Virtual);
    EXPECT_EQ(syscallInfo(SYS_clock_gettime).cls, SyscallClass::Virtual);
    EXPECT_EQ(syscallInfo(SYS_fork).cls, SyscallClass::Fork);
    EXPECT_EQ(syscallInfo(SYS_exit_group).cls, SyscallClass::Exit);
}

TEST(ClassifyTest, OutBufferSpecsDescribeTransfers)
{
    const SyscallInfo &read_info = syscallInfo(SYS_read);
    EXPECT_EQ(read_info.out[0].arg, 1);
    EXPECT_EQ(read_info.out[0].len_from, LenFrom::Result);

    const SyscallInfo &accept = syscallInfo(SYS_accept4);
    EXPECT_EQ(accept.out[0].arg, 1);
    EXPECT_EQ(accept.out[0].len_from, LenFrom::DerefArg);
    EXPECT_EQ(accept.out[0].len_arg, 2);

    const SyscallInfo &pipe_info = syscallInfo(SYS_pipe2);
    EXPECT_EQ(pipe_info.fd_array_arg, 0);

    const SyscallInfo &epoll = syscallInfo(SYS_epoll_wait);
    EXPECT_EQ(epoll.out[0].len_from, LenFrom::ResultTimesSize);
    EXPECT_EQ(epoll.out[0].fixed, 12u);
}

TEST(ClassifyTest, HashedInBuffersAreTheWriteFamily)
{
    std::vector<long> hashed;
    for (long nr = 0; nr < kMaxSyscallNr; ++nr) {
        const InBufferSpec &in = syscallInfo(nr).hashed_in;
        if (in.arg < 0)
            continue;
        hashed.push_back(nr);
        EXPECT_EQ(in.arg, 1) << syscallInfo(nr).name;
        EXPECT_EQ(in.len_arg, 2) << syscallInfo(nr).name;
    }
    EXPECT_EQ(hashed, (std::vector<long>{SYS_write, SYS_pwrite64,
                                         SYS_sendto}));
}

TEST(ClassifyTest, OutChunkLenFollowsTheSpec)
{
    char buf[16];
    std::uint32_t addrlen = 7;
    const std::uint64_t args[6] = {3, reinterpret_cast<std::uint64_t>(buf),
                                   reinterpret_cast<std::uint64_t>(&addrlen),
                                   0, 0, 0};
    const OutBufferSpec &read_out = syscallInfo(SYS_read).out[0];
    EXPECT_EQ(outChunkLen(read_out, args, 5), 5u);
    EXPECT_EQ(outChunkLen(read_out, args, -11), kChunkAbsent);

    // A fixed-size buffer is copied whatever the result.
    const OutBufferSpec &fstat_out = syscallInfo(SYS_fstat).out[0];
    EXPECT_EQ(outChunkLen(fstat_out, args, -9), 144u);

    const OutBufferSpec &accept_out = syscallInfo(SYS_accept4).out[0];
    EXPECT_EQ(outChunkLen(accept_out, args, 4), 7u);
    EXPECT_EQ(outChunkLen(accept_out, args, -11), kChunkAbsent);

    const std::uint64_t null_buf[6] = {3, 0, 0, 0, 0, 0};
    EXPECT_EQ(outChunkLen(read_out, null_buf, 5), kChunkAbsent);
    EXPECT_EQ(outChunkLen(OutBufferSpec{}, args, 5), kChunkAbsent);
}

TEST(ClassifyTest, UnknownNumbersAreUnhandled)
{
    EXPECT_EQ(syscallInfo(-1).cls, SyscallClass::Unhandled);
    EXPECT_EQ(syscallInfo(511).cls, SyscallClass::Unhandled);
    EXPECT_EQ(syscallInfo(100000).cls, SyscallClass::Unhandled);
}

TEST(RawTest, SyscallReturnsKernelConvention)
{
    long pid = rawSyscall(SYS_getpid);
    EXPECT_EQ(pid, ::getpid());
    long err = rawSyscall(SYS_close, -1);
    EXPECT_EQ(err, -EBADF);
    EXPECT_TRUE(isError(err));
    EXPECT_FALSE(isError(pid));
}

TEST(DispatchTest, NoDispatcherFallsThroughToKernel)
{
    ASSERT_EQ(dispatcher(), nullptr);
    EXPECT_EQ(invoke(SYS_getpid), ::getpid());
}

TEST(DispatchTest, DispatcherInterceptsAndRestores)
{
    struct Fake : Dispatcher {
        long nr_seen = -1;
        std::uint64_t arg0 = 0;
        long
        dispatch(long nr, const std::uint64_t args[6]) override
        {
            nr_seen = nr;
            arg0 = args[0];
            return 12345;
        }
    } fake;
    setDispatcher(&fake);
    long r = invoke(SYS_close, 42);
    setDispatcher(nullptr);
    EXPECT_EQ(r, 12345);
    EXPECT_EQ(fake.nr_seen, SYS_close);
    EXPECT_EQ(fake.arg0, 42u);
    // Restored: raw path again.
    EXPECT_EQ(invoke(SYS_getpid), ::getpid());
}

TEST(DispatchTest, RewriteEntryRoutesThroughInvoke)
{
    struct Fake : Dispatcher {
        long
        dispatch(long nr, const std::uint64_t args[6]) override
        {
            return static_cast<long>(args[5]) + nr;
        }
    } fake;
    setDispatcher(&fake);
    rewrite::SyscallFrame frame = {};
    frame.nr = 100;
    frame.args[5] = 11;
    long r = rewriteEntry(&frame);
    setDispatcher(nullptr);
    EXPECT_EQ(r, 111);
}

} // namespace
} // namespace varan::sys
