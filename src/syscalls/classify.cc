#include "syscalls/classify.h"

#include <array>
#include <sys/syscall.h>

namespace varan::sys {

namespace {

using Table = std::array<SyscallInfo, kMaxSyscallNr>;

OutBufferSpec
outResult(int arg)
{
    return OutBufferSpec{static_cast<std::int8_t>(arg), LenFrom::Result, -1,
                         0};
}

OutBufferSpec
outFixed(int arg, std::uint32_t bytes)
{
    return OutBufferSpec{static_cast<std::int8_t>(arg), LenFrom::Fixed, -1,
                         bytes};
}

OutBufferSpec
outDeref(int arg, int len_arg)
{
    return OutBufferSpec{static_cast<std::int8_t>(arg), LenFrom::DerefArg,
                         static_cast<std::int8_t>(len_arg), 0};
}

OutBufferSpec
outResultTimes(int arg, std::uint32_t element)
{
    return OutBufferSpec{static_cast<std::int8_t>(arg),
                         LenFrom::ResultTimesSize, -1, element};
}

OutBufferSpec
outArgTimes(int arg, int len_arg, std::uint32_t element)
{
    return OutBufferSpec{static_cast<std::int8_t>(arg), LenFrom::Arg,
                         static_cast<std::int8_t>(len_arg), element};
}

Table
buildTable()
{
    Table t = {};

    auto set = [&](long nr, const char *name, SyscallClass cls,
                   OutBufferSpec out0 = {}, OutBufferSpec out1 = {}) {
        SyscallInfo &info = t[static_cast<std::size_t>(nr)];
        info.name = name;
        info.cls = cls;
        info.out[0] = out0;
        info.out[1] = out1;
    };
    using enum SyscallClass;

    // --- file and socket I/O (leader executes, followers replay) ---
    set(SYS_read, "read", Replicated, outResult(1));
    set(SYS_write, "write", Replicated);
    set(SYS_close, "close", Replicated);
    set(SYS_stat, "stat", Replicated, outFixed(1, 144));
    set(SYS_fstat, "fstat", Replicated, outFixed(1, 144));
    set(SYS_lstat, "lstat", Replicated, outFixed(1, 144));
    set(SYS_poll, "poll", Replicated, outArgTimes(0, 1, 8));
    set(SYS_lseek, "lseek", Replicated);
    set(SYS_pread64, "pread64", Replicated, outResult(1));
    set(SYS_pwrite64, "pwrite64", Replicated);
    set(SYS_writev, "writev", Replicated);
    set(SYS_access, "access", Replicated);
    set(SYS_select, "select", Replicated);
    set(SYS_ioctl, "ioctl", Replicated);
    set(SYS_sendto, "sendto", Replicated);
    set(SYS_recvfrom, "recvfrom", Replicated, outResult(1), outDeref(4, 5));
    set(SYS_shutdown, "shutdown", Replicated);
    set(SYS_connect, "connect", Replicated);
    set(SYS_bind, "bind", Replicated);
    set(SYS_listen, "listen", Replicated);
    set(SYS_getsockname, "getsockname", Replicated, outDeref(1, 2));
    set(SYS_getpeername, "getpeername", Replicated, outDeref(1, 2));
    set(SYS_setsockopt, "setsockopt", Replicated);
    set(SYS_getsockopt, "getsockopt", Replicated, outDeref(3, 4));
    set(SYS_fcntl, "fcntl", Replicated);
    set(SYS_flock, "flock", Replicated);
    set(SYS_fsync, "fsync", Replicated);
    set(SYS_fdatasync, "fdatasync", Replicated);
    set(SYS_truncate, "truncate", Replicated);
    set(SYS_ftruncate, "ftruncate", Replicated);
    set(SYS_getdents, "getdents", Replicated, outResult(1));
    set(SYS_getdents64, "getdents64", Replicated, outResult(1));
    set(SYS_getcwd, "getcwd", Replicated, outResult(0));
    set(SYS_chdir, "chdir", Replicated);
    set(SYS_fchdir, "fchdir", Replicated);
    set(SYS_rename, "rename", Replicated);
    set(SYS_mkdir, "mkdir", Replicated);
    set(SYS_rmdir, "rmdir", Replicated);
    set(SYS_link, "link", Replicated);
    set(SYS_unlink, "unlink", Replicated);
    set(SYS_unlinkat, "unlinkat", Replicated);
    set(SYS_symlink, "symlink", Replicated);
    set(SYS_readlink, "readlink", Replicated, outResult(1));
    set(SYS_chmod, "chmod", Replicated);
    set(SYS_fchmod, "fchmod", Replicated);
    set(SYS_chown, "chown", Replicated);
    set(SYS_fchown, "fchown", Replicated);
    set(SYS_utimes, "utimes", Replicated);
    set(SYS_fallocate, "fallocate", Replicated);
    set(SYS_statfs, "statfs", Replicated, outFixed(1, 120));
    set(SYS_fstatfs, "fstatfs", Replicated, outFixed(1, 120));
    set(SYS_newfstatat, "newfstatat", Replicated, outFixed(2, 144));
    set(SYS_statx, "statx", Replicated, outFixed(4, 256));
    set(SYS_epoll_wait, "epoll_wait", Replicated, outResultTimes(1, 12));
    set(SYS_epoll_pwait, "epoll_pwait", Replicated, outResultTimes(1, 12));
    set(SYS_epoll_ctl, "epoll_ctl", Replicated);
    set(SYS_getrandom, "getrandom", Replicated, outResult(0));
    set(SYS_nanosleep, "nanosleep", Replicated, outFixed(1, 16));
    set(SYS_clock_nanosleep, "clock_nanosleep", Replicated,
        outFixed(3, 16));
    set(SYS_timerfd_settime, "timerfd_settime", Replicated,
        outFixed(3, 32));
    set(SYS_timerfd_gettime, "timerfd_gettime", Replicated,
        outFixed(1, 32));
    set(SYS_wait4, "wait4", Local); // local children, local pids
    set(SYS_uname, "uname", Replicated, outFixed(0, 390));
    set(SYS_sysinfo, "sysinfo", Replicated, outFixed(0, 112));
    set(SYS_getrlimit, "getrlimit", Replicated, outFixed(1, 16));
    set(SYS_getrusage, "getrusage", Replicated, outFixed(1, 144));
    set(SYS_prlimit64, "prlimit64", Replicated, outFixed(3, 16));

    // --- identity: the leader's answer is authoritative so the N
    //     versions look like one process to the outside world ---
    set(SYS_getpid, "getpid", Replicated);
    set(SYS_gettid, "gettid", Replicated);
    set(SYS_getppid, "getppid", Replicated);
    set(SYS_getuid, "getuid", Replicated);
    set(SYS_geteuid, "geteuid", Replicated);
    set(SYS_getgid, "getgid", Replicated);
    set(SYS_getegid, "getegid", Replicated);
    set(SYS_getpgrp, "getpgrp", Replicated);
    set(SYS_getpgid, "getpgid", Replicated);
    set(SYS_getsid, "getsid", Replicated);
    set(SYS_setuid, "setuid", Replicated);
    set(SYS_setgid, "setgid", Replicated);
    set(SYS_getpriority, "getpriority", Replicated);
    set(SYS_setpriority, "setpriority", Replicated);
    set(SYS_alarm, "alarm", Replicated);
    set(SYS_setitimer, "setitimer", Replicated, outFixed(2, 32));

    // --- descriptor factories (result travels the data channel) ---
    set(SYS_open, "open", FdCreating);
    set(SYS_openat, "openat", FdCreating);
    set(SYS_creat, "creat", FdCreating);
    set(SYS_dup, "dup", FdCreating);
    set(SYS_dup2, "dup2", FdCreating);
    set(SYS_dup3, "dup3", FdCreating);
    set(SYS_socket, "socket", FdCreating);
    set(SYS_accept, "accept", FdCreating, outDeref(1, 2));
    set(SYS_accept4, "accept4", FdCreating, outDeref(1, 2));
    set(SYS_epoll_create, "epoll_create", FdCreating);
    set(SYS_epoll_create1, "epoll_create1", FdCreating);
    set(SYS_timerfd_create, "timerfd_create", FdCreating);
    set(SYS_eventfd, "eventfd", FdCreating);
    set(SYS_eventfd2, "eventfd2", FdCreating);
    set(SYS_memfd_create, "memfd_create", FdCreating);
    set(SYS_pipe, "pipe", FdCreating);
    t[SYS_pipe].fd_array_arg = 0;
    set(SYS_pipe2, "pipe2", FdCreating);
    t[SYS_pipe2].fd_array_arg = 0;
    set(SYS_socketpair, "socketpair", FdCreating);
    t[SYS_socketpair].fd_array_arg = 3;

    // Write-family calls: the buffer is args[1], its length args[2].
    for (long nr : {SYS_write, SYS_pwrite64, SYS_sendto})
        t[static_cast<std::size_t>(nr)].hashed_in = InBufferSpec{1, 2};

    // --- virtual system calls (section 3.2.1) ---
    set(SYS_time, "time", Virtual, outFixed(0, 8));
    set(SYS_gettimeofday, "gettimeofday", Virtual, outFixed(0, 16));
    set(SYS_clock_gettime, "clock_gettime", Virtual, outFixed(1, 16));
    set(SYS_clock_getres, "clock_getres", Virtual, outFixed(1, 16));
    set(SYS_times, "times", Virtual, outFixed(0, 32));

    // --- process-local calls: no streaming, every variant executes ---
    set(SYS_mmap, "mmap", Local);
    set(SYS_munmap, "munmap", Local);
    set(SYS_mprotect, "mprotect", Local);
    set(SYS_mremap, "mremap", Local);
    set(SYS_brk, "brk", Local);
    set(SYS_madvise, "madvise", Local);
    set(SYS_rt_sigaction, "rt_sigaction", Local);
    set(SYS_rt_sigprocmask, "rt_sigprocmask", Local);
    set(SYS_rt_sigreturn, "rt_sigreturn", Local);
    set(SYS_sigaltstack, "sigaltstack", Local);
    set(SYS_sched_yield, "sched_yield", Local);
    set(SYS_sched_setaffinity, "sched_setaffinity", Local);
    set(SYS_sched_getaffinity, "sched_getaffinity", Local);
    set(SYS_futex, "futex", Local);
    set(SYS_set_tid_address, "set_tid_address", Local);
    set(SYS_set_robust_list, "set_robust_list", Local);
    set(SYS_prctl, "prctl", Local);
    set(SYS_arch_prctl, "arch_prctl", Local);
    set(SYS_umask, "umask", Local);
    set(SYS_setpgid, "setpgid", Local);
    set(SYS_setsid, "setsid", Local);
    set(SYS_kill, "kill", Local);
    set(SYS_tgkill, "tgkill", Local);
    set(SYS_tkill, "tkill", Local);

    // --- process management events ---
    set(SYS_clone, "clone", Fork);
    set(SYS_fork, "fork", Fork);
    set(SYS_vfork, "vfork", Fork);
    set(SYS_exit, "exit", Exit);
    set(SYS_exit_group, "exit_group", Exit);

    return t;
}

const Table &
table()
{
    static const Table t = buildTable();
    return t;
}

} // namespace

const SyscallInfo &
syscallInfo(long nr)
{
    static const SyscallInfo unhandled = {};
    if (nr < 0 || nr >= kMaxSyscallNr)
        return unhandled;
    return table()[static_cast<std::size_t>(nr)];
}

std::size_t
handledSyscallCount()
{
    std::size_t count = 0;
    for (const SyscallInfo &info : table()) {
        if (info.cls != SyscallClass::Unhandled)
            ++count;
    }
    return count;
}

} // namespace varan::sys
