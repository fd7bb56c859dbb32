/**
 * @file
 * Shared-memory observability substrate: flight recorder, log2-bucket
 * latency histograms, and the structured divergence ledger.
 *
 * A `TraceBlock` lives inside the engine's `ControlBlock`, so every
 * process attached to the region — leader, followers, shipper,
 * receiver, coordinator, and an out-of-process `varanctl` — sees the
 * same records. Everything here is lock-free and crash-tolerant: a
 * variant dying mid-write tears at most one slot, never the structure.
 *
 * Three data structures, all bounded rings over atomics:
 *
 *  - TraceRecord ring (the flight recorder): fixed-size records
 *    stamped at each event-path stage. Writers claim a slot with one
 *    `fetch_add` and write in place; readers reconstruct the last
 *    `kTraceRecords` stamps post-mortem straight from the region.
 *  - Histograms: log2 buckets (bucket i counts values with bit-width
 *    i, i.e. in [2^(i-1), 2^i)), a sum, and a count — enough for
 *    Prometheus `_bucket`/`_sum`/`_count` exposition without floats
 *    in shared memory.
 *  - Divergence ledger: seqlock-stamped `DivergenceRecord`s. Readers
 *    consume from a private cursor and detect both torn slots and
 *    overwritten (lost) records.
 *
 * This header is standalone (cstdint/atomic/bit only): wire code and
 * tools include it without dragging in the core engine headers.
 */

#ifndef VARAN_TRACE_TRACE_H
#define VARAN_TRACE_TRACE_H

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace varan::trace {

/** Event-path stages stamped into the flight recorder. */
enum class Stage : std::uint16_t {
    None = 0,
    LeaderPublish,    ///< leader published an event (sampled)
    FollowerDispatch, ///< follower dispatched an event (sampled)
    ShipperDrain,     ///< shipper drained a frame off a tuple ring
    ReceiverPublish,  ///< receiver re-published a frame locally
    Election,         ///< a new leader was elected (epoch bump)
    Promotion,        ///< this engine's monitor/receiver got promoted
    Divergence,       ///< a divergence was resolved or proved fatal
};

inline const char *
stageName(Stage s)
{
    switch (s) {
      case Stage::None:             return "none";
      case Stage::LeaderPublish:    return "leader_publish";
      case Stage::FollowerDispatch: return "follower_dispatch";
      case Stage::ShipperDrain:     return "shipper_drain";
      case Stage::ReceiverPublish:  return "receiver_publish";
      case Stage::Election:         return "election";
      case Stage::Promotion:        return "promotion";
      case Stage::Divergence:       return "divergence";
    }
    return "unknown";
}

/** One flight-recorder stamp. `a`/`b` are stage-specific payloads
 *  (sequence numbers, batch sizes, lags — see the stamp sites). */
struct TraceRecord {
    std::uint64_t ns;         ///< monotonic timestamp
    std::uint64_t a;          ///< stage-specific (seq / clock / lag)
    std::uint64_t b;          ///< stage-specific (count / aux)
    std::uint16_t stage;      ///< Stage
    std::uint8_t variant;
    std::uint8_t tuple;
    std::uint32_t code;       ///< syscall nr / error code / epoch
};
static_assert(sizeof(TraceRecord) == 32, "fixed flight-recorder stride");

/** Why the monitor acted on a divergence (mirrors bpf actions). */
enum class DivergenceAction : std::uint8_t {
    Resolved = 0, ///< Allow/Skip/Errno rewrite kept the variant alive
    Fatal = 1,    ///< Kill: the variant was terminated
};

/** One structured divergence: what the follower saw vs what the
 *  leader's stream expected. Plain POD — this exact layout ships over
 *  the wire (Divergence frame) from remote followers to the leader. */
struct DivergenceRecord {
    std::uint64_t lamport;     ///< Lamport clock at the divergent event
    std::uint64_t arg_digest;  ///< CRC32C over the observed syscall args
    std::uint64_t ns;          ///< monotonic ns on the recording node
    std::uint64_t origin_id;   ///< 0 = local; receiver_id when shipped
    std::uint32_t epoch;       ///< engine epoch when recorded
    std::uint32_t expected_nr; ///< syscall nr the event stream carries
    std::uint32_t observed_nr; ///< syscall nr the variant executed
    std::uint16_t expected_type; ///< ring event type expected
    std::uint16_t observed_type; ///< ring event type observed
    std::uint8_t variant;
    std::uint8_t tuple;
    std::uint8_t action;       ///< DivergenceAction
    std::uint8_t origin;       ///< 0 = local node, 1 = shipped from remote
    std::uint8_t reserved[4];
};
static_assert(sizeof(DivergenceRecord) == 56, "wire-visible layout");

/** Ledger slot: record + seqlock stamp (claimed index + 1, written
 *  last with release). A reader that sees `seq != index + 1` is
 *  looking at a torn or overwritten slot and must skip it. */
struct LedgerSlot {
    DivergenceRecord rec;
    std::atomic<std::uint64_t> seq;
};
static_assert(sizeof(LedgerSlot) == 64, "one cache line per slot");

inline constexpr std::size_t kTraceRecords = 2048;   ///< power of two
inline constexpr std::size_t kLedgerSlots = 128;     ///< power of two
inline constexpr std::size_t kLagSlots = 256;        ///< power of two
inline constexpr std::size_t kHistogramBuckets = 32; ///< log2 bins

/** Sampling predicate for per-event stamp sites: 1-in-64 by Lamport
 *  timestamp, so the leader and every follower sample the *same*
 *  events — which is what makes the publish→dispatch lag pairing
 *  below work without any cross-process coordination. */
inline constexpr std::uint64_t kSampleMask = 63;

inline bool
sampled(std::uint64_t timestamp)
{
    return (timestamp & kSampleMask) == 0;
}

/** log2-bucket histogram. Bucket i counts values of bit-width i
 *  (value 0 lands in bucket 0); the last bucket absorbs overflow.
 *  The Prometheus upper bound of bucket i is 2^i - 1 nanoseconds. */
struct Histogram {
    std::atomic<std::uint64_t> buckets[kHistogramBuckets];
    std::atomic<std::uint64_t> sum;
    std::atomic<std::uint64_t> count;
};

inline unsigned
histogramBucket(std::uint64_t value)
{
    unsigned idx = static_cast<unsigned>(std::bit_width(value));
    return idx < kHistogramBuckets
               ? idx
               : static_cast<unsigned>(kHistogramBuckets - 1);
}

/** Inclusive Prometheus `le` bound of bucket @p i, in nanoseconds. */
inline std::uint64_t
histogramBound(unsigned i)
{
    return (i + 1 >= 64) ? ~0ULL : ((1ULL << (i + 1)) - 1) >> 1;
}

inline void
histogramRecord(Histogram &h, std::uint64_t value)
{
    h.buckets[histogramBucket(value)].fetch_add(
        1, std::memory_order_relaxed);
    h.sum.fetch_add(value, std::memory_order_relaxed);
    h.count.fetch_add(1, std::memory_order_relaxed);
}

/** Leader-side half of the publish→dispatch lag pairing: the leader
 *  stores (timestamp, now) for sampled events; a follower dispatching
 *  the same timestamp later computes `now - ns`. Slots are keyed by
 *  `timestamp / (kSampleMask + 1)` so consecutive samples never
 *  collide until the table wraps. */
struct LagPair {
    std::atomic<std::uint64_t> stamp; ///< Lamport timestamp (release)
    std::atomic<std::uint64_t> ns;    ///< leader's monotonic ns
};

/**
 * The shared observability block, embedded in the ControlBlock.
 * Placement-new value-initialization zeroes every atomic; the engine
 * seeds `enabled` at start-up (on by default) and it can be toggled
 * live. The divergence ledger is *not* gated by `enabled` — it feeds
 * the on_divergence_record hook, which must fire regardless.
 */
struct TraceBlock {
    /** Live on/off switch (not a Tuning knob: flipping it must never
     *  interact with seeding or the adaptive controller). */
    std::atomic<std::uint32_t> enabled;
    std::uint32_t reserved0;

    /** Armed when a leader dies (local death or remote silence);
     *  consumed by the first post-promotion publish to produce one
     *  failover-blackout histogram sample. */
    std::atomic<std::uint64_t> leader_death_ns;

    // --- flight recorder ---
    std::atomic<std::uint64_t> trace_head; ///< total records ever claimed
    TraceRecord records[kTraceRecords];

    // --- latency histograms (all in nanoseconds) ---
    Histogram publish_lag;    ///< leader publish → follower dispatch
    Histogram credit_stall;   ///< wire drain blocked on a closed window
    Histogram blackout;       ///< leader death → first promoted publish

    // --- divergence ledger ---
    std::atomic<std::uint64_t> ledger_head; ///< total records ever claimed
    LedgerSlot ledger[kLedgerSlots];

    // --- publish→dispatch lag pairing table ---
    LagPair lag_pairs[kLagSlots];
};

inline bool
enabled(const TraceBlock &tb)
{
    return tb.enabled.load(std::memory_order_relaxed) != 0;
}

/** Stamp one flight-recorder record. Safe from any attached process;
 *  a concurrent writer on the same (wrapped) slot tears at most that
 *  slot. Call only when `enabled(tb)`. */
inline void
stamp(TraceBlock &tb, Stage stage, std::uint8_t variant,
      std::uint8_t tuple, std::uint32_t code, std::uint64_t ns,
      std::uint64_t a = 0, std::uint64_t b = 0)
{
    const std::uint64_t idx =
        tb.trace_head.fetch_add(1, std::memory_order_relaxed);
    TraceRecord &r = tb.records[idx & (kTraceRecords - 1)];
    r.ns = ns;
    r.a = a;
    r.b = b;
    r.stage = static_cast<std::uint16_t>(stage);
    r.variant = variant;
    r.tuple = tuple;
    r.code = code;
}

/** Leader half of the lag pairing (see LagPair). */
inline void
lagMark(TraceBlock &tb, std::uint64_t timestamp, std::uint64_t now)
{
    LagPair &p =
        tb.lag_pairs[(timestamp / (kSampleMask + 1)) & (kLagSlots - 1)];
    p.ns.store(now, std::memory_order_relaxed);
    p.stamp.store(timestamp, std::memory_order_release);
}

/** Follower half: records into `publish_lag` when the leader's mark
 *  for this exact timestamp is still in the table. */
inline void
lagMatch(TraceBlock &tb, std::uint64_t timestamp, std::uint64_t now)
{
    LagPair &p =
        tb.lag_pairs[(timestamp / (kSampleMask + 1)) & (kLagSlots - 1)];
    if (p.stamp.load(std::memory_order_acquire) != timestamp)
        return; // overwritten (slow follower) — drop the sample
    const std::uint64_t published = p.ns.load(std::memory_order_relaxed);
    if (now > published)
        histogramRecord(tb.publish_lag, now - published);
}

/** Append one divergence record. Multi-process safe: the slot is
 *  claimed with one fetch_add and committed by the seqlock store. */
inline void
ledgerAppend(TraceBlock &tb, const DivergenceRecord &rec)
{
    const std::uint64_t idx =
        tb.ledger_head.fetch_add(1, std::memory_order_relaxed);
    LedgerSlot &slot = tb.ledger[idx & (kLedgerSlots - 1)];
    slot.rec = rec;
    slot.seq.store(idx + 1, std::memory_order_release);
}

/**
 * Consume committed ledger records from @p cursor (a caller-owned
 * count of records already seen). Returns the number of records
 * copied into @p out; advances @p cursor past consumed *and* lost
 * records, so a reader that fell more than `kLedgerSlots` behind
 * resumes at the oldest record still present rather than spinning.
 */
inline std::size_t
ledgerRead(const TraceBlock &tb, std::uint64_t *cursor,
           DivergenceRecord *out, std::size_t max)
{
    const std::uint64_t head =
        tb.ledger_head.load(std::memory_order_acquire);
    if (*cursor + kLedgerSlots < head)
        *cursor = head - kLedgerSlots; // overwritten: records lost
    std::size_t n = 0;
    while (*cursor < head && n < max) {
        const std::uint64_t idx = *cursor;
        const LedgerSlot &slot = tb.ledger[idx & (kLedgerSlots - 1)];
        if (slot.seq.load(std::memory_order_acquire) != idx + 1) {
            // Torn (writer mid-flight) or already overwritten. Stop —
            // the next poll picks it up once the seqlock commits.
            break;
        }
        std::memcpy(&out[n], &slot.rec, sizeof(DivergenceRecord));
        if (slot.seq.load(std::memory_order_acquire) != idx + 1)
            break; // overwritten while copying: discard
        ++n;
        ++*cursor;
    }
    return n;
}

/**
 * Copy the most recent committed flight-recorder records, oldest
 * first. Returns the number copied (≤ min(max, kTraceRecords)).
 * Records claimed but possibly torn by in-flight writers are
 * included — the flight recorder favours completeness post-mortem.
 */
inline std::size_t
snapshotTrace(const TraceBlock &tb, TraceRecord *out, std::size_t max)
{
    const std::uint64_t head =
        tb.trace_head.load(std::memory_order_acquire);
    std::uint64_t n = head < kTraceRecords ? head : kTraceRecords;
    if (n > max)
        n = max;
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t idx = head - n + i;
        out[i] = tb.records[idx & (kTraceRecords - 1)];
    }
    return static_cast<std::size_t>(n);
}

} // namespace varan::trace

#endif // VARAN_TRACE_TRACE_H
