/**
 * @file
 * The coordinator status API: one consolidated, point-in-time snapshot
 * of everything a running engine can report about itself.
 *
 * StatusReport subsumes what used to be nine ad-hoc counter getters on
 * Nvx plus poolStats(): engine geometry, election state, the stream
 * counters, per-variant state (role, pid, syscalls, ring lag, restart
 * count), the sharded-pool pressure snapshot and — when multi-node
 * shipping is active — the wire shipper/receiver statistics.
 *
 * The struct is deliberately plain-old-data (fixed size, no pointers,
 * native-endian like the event layout itself) so the identical bytes
 * serve three consumers:
 *
 *  - Nvx::status() hands it to local callers;
 *  - the wire Status frame carries it to a remote peer (the status
 *    RPC: a receiver sends an empty Status frame as a request, the
 *    shipper answers with a Status frame whose body is this struct);
 *  - tests assert bit-exact round trips through that frame.
 */

#ifndef VARAN_CORE_STATUS_H
#define VARAN_CORE_STATUS_H

#include <cstdint>
#include <string>
#include <type_traits>

#include "core/layout.h"
#include "shmem/pool.h"

namespace varan::core {

/** One variant's slice of the coordinator status. */
struct VariantStatus {
    std::uint32_t state;       ///< VariantState
    std::uint32_t role;        ///< VariantRole (LeaderCandidate/FollowerOnly)
    std::int32_t exit_status;  ///< valid once state is Crashed/Exited
    std::uint32_t pid;
    std::uint32_t restarts;    ///< respawns performed by the restart policy
    std::uint32_t reserved;
    std::uint64_t syscalls;    ///< calls dispatched by this variant
    std::uint64_t ring_lag;    ///< leader-to-follower distance, max over tuples
};

/** Leader-node wire shipping statistics (zeros when shipping is off). */
struct ShipperWireStatus {
    std::uint32_t active;   ///< a shipper exists on this engine
    std::uint32_t link_up;  ///< at least one peer link is usable
    std::uint32_t peers;          ///< registered receiver sessions
    std::uint32_t peers_evicted;  ///< sessions dropped as hopelessly behind
    std::uint64_t frames;
    std::uint64_t events;
    std::uint64_t bytes;
    std::uint64_t payload_bytes;
    std::uint64_t credits_received;
    std::uint64_t retransmitted_frames;
    std::uint64_t reconnects;
    std::uint64_t drain_passes;   ///< drain passes with ring backlog
    std::uint64_t credit_stalls;  ///< passes gated by the credit window
    std::uint64_t status_pushes;  ///< unsolicited Status broadcasts
};

/** Remote-node wire receiving statistics (zeros when not receiving). */
struct ReceiverWireStatus {
    std::uint32_t active;   ///< a receiver feeds this engine
    std::uint32_t link_up;
    std::uint32_t promoted;      ///< this node took over leadership
    std::uint32_t errors;        ///< Error frames sent + received
    std::uint32_t fenced;        ///< partitioned off a quorum: not serving
    std::uint32_t reserved;
    std::uint64_t frames;
    std::uint64_t events;
    std::uint64_t payload_bytes;
    std::uint64_t duplicates_dropped;
    std::uint64_t corrupt_frames;
    std::uint64_t credits_sent;
    std::uint64_t reconnects;
};

/** Quorum control-plane state (v6): the lease/membership view of this
 *  node's LeaseManager. Zeros when no quorum is configured. */
struct QuorumStatus {
    std::uint32_t active;       ///< a lease manager runs on this node
    std::uint32_t node_id;      ///< this node's quorum identity
    std::uint32_t members;      ///< configured membership size (incl. self)
    std::uint32_t live_members; ///< members currently heard from (incl. self)
    std::uint32_t holder;       ///< live lease holder, kNoQuorumNode if none
    std::uint32_t fenced;       ///< this node fenced itself off
    std::uint64_t term;         ///< current lease term
    std::uint64_t elections;    ///< election rounds this node started
    std::uint64_t leases_won;   ///< rounds that reached a quorum of grants
    std::uint64_t votes_granted; ///< grants this node handed to peers
    std::uint64_t fences;       ///< fence orders received by this node
};

/** Record-replay sink statistics (zeros when no recorder ever ran).
 *  Mirrored from ControlBlock, where rr::LogSink publishes them. */
struct RecorderStatus {
    std::uint32_t active;      ///< a recorder's taps are attached
    std::uint32_t evicted;     ///< the sink self-evicted (slow disk)
    std::int32_t write_errno;  ///< first latched write failure (0 = ok)
    std::uint32_t reserved;
    std::uint64_t events;      ///< records drained from the rings
    std::uint64_t bytes_written;
    std::uint64_t spill_peak;  ///< spill-buffer high-water mark (bytes)
};

/** Live tuning knobs + adaptive-controller state (src/adapt/): the
 *  values in force right now, and what the controller did to them.
 *  Mirrored straight from the shared TuningBlock, so a knob retuned
 *  mid-run is visible in the very next StatusReport — local or served
 *  over the wire. */
struct AdaptStatus {
    std::uint32_t active;       ///< an AutoTuner thread is running
    std::uint32_t pinned_mask;  ///< knobs excluded from adaptation
    std::uint64_t samples;      ///< controller ticks taken
    std::uint64_t decisions;    ///< knob adjustments applied
    // The live knob values (core::Tuning mirror).
    std::uint32_t ship_batch;
    std::uint32_t credit_window;
    std::uint64_t coalesce_window_ns; ///< the shipper's linger cap
};

/** One log2-bucket latency histogram, snapshotted from the shared
 *  TraceBlock. Bucket i counts samples whose value fits in i bits
 *  (inclusive upper bound 2^i - 1 ns); the last bucket absorbs
 *  overflow. Rendered as Prometheus `_bucket`/`_sum`/`_count` series
 *  by statusText(). */
struct HistogramStatus {
    std::uint64_t buckets[trace::kHistogramBuckets];
    std::uint64_t sum;
    std::uint64_t count;
};

/** Observability snapshot: flight-recorder state, the three event-path
 *  latency histograms and the tail of the divergence ledger. */
struct TraceStatus {
    std::uint32_t enabled;        ///< flight recorder + histograms on
    std::uint32_t recent_count;   ///< valid entries in recent[]
    std::uint64_t trace_records;  ///< flight-recorder stamps written
    std::uint64_t ledger_records; ///< divergence ledger appends
    HistogramStatus publish_lag;    ///< event creation -> follower dispatch
    HistogramStatus credit_stall;   ///< wire credit-window stall spans
    HistogramStatus blackout;       ///< leader death -> first dispatch
    /** The most recent divergence ledger entries, oldest first. */
    static constexpr std::uint32_t kRecent = 4;
    trace::DivergenceRecord recent[kRecent];
};

/** The unified coordinator status snapshot. */
struct StatusReport {
    // Geometry + election state.
    std::uint32_t num_variants;
    std::uint32_t ring_capacity;
    std::uint32_t leader;      ///< current leader id, or kNoLeader
    std::uint32_t epoch;       ///< election count
    std::uint32_t live_mask;   ///< bit per running variant
    std::uint32_t num_tuples;  ///< live thread/process tuples
    std::uint32_t stream_generation; ///< bumped on cross-node promotion
    std::uint32_t promotions;        ///< elections performed on this engine

    // Stream counters (the former one-off getters).
    std::uint64_t events_streamed;
    std::uint64_t divergences_resolved;
    std::uint64_t divergences_fatal;
    std::uint64_t fd_transfers;

    VariantStatus variants[kMaxVariants];
    shmem::PoolStats pool;           ///< per-arena pressure + spills
    ShipperWireStatus shipper;
    ReceiverWireStatus receiver;
    QuorumStatus quorum;             ///< lease/membership control plane
    RecorderStatus recorder;
    AdaptStatus adapt;               ///< live knobs + controller state
    TraceStatus trace;               ///< histograms + divergence ledger
};

static_assert(std::is_trivially_copyable_v<StatusReport>,
              "StatusReport travels in wire Status frames by memcpy");

/**
 * Assemble the shared-memory-derived part of a StatusReport: geometry,
 * election state, stream counters, per-variant status, the pool
 * snapshot and the recorder counters (rr::LogSink mirrors them into
 * ControlBlock). The wire sections are left zeroed — the owner of the
 * shipper/receiver fills its own side in.
 *
 * Safe to call from any process mapping the region (the coordinator,
 * or the wire shipper answering a remote status request).
 */
StatusReport collectStatus(const shmem::Region *region,
                           const EngineLayout &layout);

/**
 * Render a StatusReport as a Prometheus-style text metrics page: one
 * `varan_*` gauge/counter per field (per-variant series labelled
 * `{variant="N"}`), `# HELP`/`# TYPE` headers included. The same bytes
 * work for a /metrics scrape endpoint, a log line, or a human.
 */
std::string statusText(const StatusReport &report);

} // namespace varan::core

#endif // VARAN_CORE_STATUS_H
