/**
 * @file
 * System-call semantics table (the "internal system call table" of
 * section 3.2, plus the transfer metadata of section 3.3).
 *
 * Every intercepted call is classified so the leader knows what to
 * record and followers know what to replay:
 *
 *  - Local: process-local effects (mmap, mprotect, ...); every variant
 *    executes it itself and nothing is streamed.
 *  - Replicated: the leader executes it and streams the result; if the
 *    call fills caller buffers, the table describes which argument is
 *    the OUT buffer and where its length comes from so the payload can
 *    travel through the shared pool.
 *  - FdCreating: Replicated + the resulting descriptor is duplicated to
 *    every follower over the data channel (section 3.3.2).
 *  - Virtual: time-family calls (the vsyscall/vDSO set of section
 *    3.2.1); leader value is authoritative.
 *  - Fork / Exit: process-management events with engine support.
 *  - Unhandled: VARAN emits an error when it meets one (footnote 8).
 */

#ifndef VARAN_SYSCALLS_CLASSIFY_H
#define VARAN_SYSCALLS_CLASSIFY_H

#include <cstdint>
#include <cstring>

namespace varan::sys {

enum class SyscallClass : std::uint8_t {
    Unhandled = 0,
    Local,
    Replicated,
    FdCreating,
    Virtual,
    Fork,
    Exit,
};

/** Where an OUT buffer's byte count comes from. */
enum class LenFrom : std::uint8_t {
    None = 0,   ///< no OUT transfer
    Result,     ///< the syscall result (read, recvfrom, ...)
    ResultTimesSize, ///< result * fixed element size (epoll_wait)
    Arg,        ///< the value of another argument (poll's nfds * size)
    Fixed,      ///< a fixed byte count (fstat, gettimeofday, ...)
    DerefArg,   ///< *(u32*)args[len_arg] (accept's addrlen, in/out)
};

/** Description of one OUT (kernel-fills-it) buffer argument. */
struct OutBufferSpec {
    std::int8_t arg = -1;        ///< which argument is the buffer
    LenFrom len_from = LenFrom::None;
    std::int8_t len_arg = -1;    ///< companion argument index
    std::uint32_t fixed = 0;     ///< byte count / element size
};

/** Length of an OUT chunk the kernel did not fill (null buffer, or a
 *  failed call whose length comes from the result). */
inline constexpr std::uint32_t kChunkAbsent = 0xffffffffu;

/**
 * Bytes of @p spec's buffer the leader copies out after the call
 * returned @p result; kChunkAbsent when there is nothing to copy. The
 * one rule every engine that replays OUT buffers shares, so payloads
 * and record-replay logs agree byte for byte.
 */
inline std::uint32_t
outChunkLen(const OutBufferSpec &spec, const std::uint64_t args[6],
            long result)
{
    if (spec.arg < 0 || args[spec.arg] == 0)
        return kChunkAbsent;
    switch (spec.len_from) {
      case LenFrom::Result:
        return result >= 0 ? static_cast<std::uint32_t>(result)
                           : kChunkAbsent;
      case LenFrom::ResultTimesSize:
        return result >= 0
                   ? static_cast<std::uint32_t>(result) * spec.fixed
                   : kChunkAbsent;
      case LenFrom::Arg:
        return static_cast<std::uint32_t>(args[spec.len_arg]) * spec.fixed;
      case LenFrom::Fixed:
        return spec.fixed;
      case LenFrom::DerefArg: {
        if (args[spec.len_arg] == 0 || result < 0)
            return kChunkAbsent;
        std::uint32_t n;
        std::memcpy(&n, reinterpret_cast<const void *>(args[spec.len_arg]),
                    sizeof(n));
        return n;
      }
      case LenFrom::None:
      default:
        return kChunkAbsent;
    }
}

/** An IN (caller-fills-it) buffer whose contents the divergence
 *  checker hashes: the leader streams the hash, every follower must
 *  pass the same bytes. */
struct InBufferSpec {
    std::int8_t arg = -1;     ///< which argument is the buffer
    std::int8_t len_arg = -1; ///< argument holding its byte count
};

/** Full semantic description of one system call. */
struct SyscallInfo {
    const char *name = "unknown";
    SyscallClass cls = SyscallClass::Unhandled;
    OutBufferSpec out[2] = {};     ///< up to two OUT buffers
    std::int8_t fd_array_arg = -1; ///< pipe/socketpair: int[2] argument
    InBufferSpec hashed_in = {};   ///< write family: cross-checked bytes
};

/** Highest syscall number the table covers. */
inline constexpr int kMaxSyscallNr = 512;

/** Look up semantics; unknown numbers return an Unhandled entry. */
const SyscallInfo &syscallInfo(long nr);

/** Number of system calls with a non-Unhandled classification. */
std::size_t handledSyscallCount();

} // namespace varan::sys

#endif // VARAN_SYSCALLS_CLASSIFY_H
