/**
 * @file
 * The 64-byte event exchanged between leader and followers.
 *
 * Section 3.3.1: "Each event has a fixed size of 64 bytes; the size has
 * been deliberately chosen to fit into a single cache line on modern
 * x86 CPUs." Events carry signals, process management operations and
 * system calls whose by-value arguments fit inline; larger payloads
 * (buffer contents, spilled arguments) live in the shared pool and are
 * referenced by offset.
 */

#ifndef VARAN_RING_EVENT_H
#define VARAN_RING_EVENT_H

#include <cstdint>

#include "common/macros.h"

namespace varan::ring {

/** What an event describes. */
enum class EventType : std::uint16_t {
    Invalid = 0,
    Syscall,    ///< regular system call: nr, args, result
    Signal,     ///< asynchronous signal delivery (nr = signo)
    Fork,       ///< clone/fork: result = child tuple id
    Exit,       ///< exit/exit_group: result = status
    Annotation, ///< control messages (role switch, shutdown, ...)
};

/** Bit flags qualifying an event. */
enum EventFlags : std::uint32_t {
    kHasPayload = 1u << 0,   ///< payload/payload_size reference pool bytes
    kArgsSpilled = 1u << 1,  ///< args 4..5 stored at payload start
    kFdTransfer = 1u << 2,   ///< a descriptor follows on the data channel
    kRestartable = 1u << 3,  ///< call was interrupted (-ERESTARTSYS path)
    kDataHash = 1u << 4,     ///< payload holds a CRC32C of IN-buffer data
    /** The payload spilled out of the publishing tuple's pool arena
     *  into the global-fallback arena (cross-shard allocation). Payload
     *  offsets stay region-absolute either way — consumers resolve them
     *  identically — but the flag makes pool pressure observable in the
     *  event stream. */
    kPayloadGlobalArena = 1u << 5,
};

/** Number of by-value arguments stored inline. */
inline constexpr unsigned kInlineArgs = 4;
/** Maximum syscall arguments on x86-64. */
inline constexpr unsigned kMaxArgs = 6;

/**
 * One ring-buffer slot. Exactly one cache line.
 */
struct Event {
    std::uint64_t timestamp;          ///< Lamport clock value (section 3.3.3)
    std::int64_t result;              ///< syscall result / signo / status
    std::uint64_t args[kInlineArgs];  ///< by-value arguments 0..3
    std::uint32_t payload;            ///< pool offset (0 = none)
    std::uint32_t payload_size;       ///< payload bytes
    EventType type;
    std::uint16_t nr;                 ///< syscall number
    std::uint32_t flags;              ///< EventFlags

    bool hasPayload() const { return flags & kHasPayload; }
    bool argsSpilled() const { return flags & kArgsSpilled; }
    bool transfersFd() const { return flags & kFdTransfer; }
    bool payloadFromGlobalArena() const
    {
        return flags & kPayloadGlobalArena;
    }
};

static_assert(sizeof(Event) == kCacheLineSize,
              "events must occupy exactly one cache line");

} // namespace varan::ring

#endif // VARAN_RING_EVENT_H
