/**
 * @file
 * The four workloads and the layer probes, plus the stamp and span
 * buffers the variants write into.
 *
 * Stamps (every run): the variants stamp a fixed subset of their calls
 * with the cycle counter — leader start/end, follower end — into a
 * MAP_SHARED array mapped before the engines fork. End-to-end latency,
 * replica lag and throughput come from these.
 *
 * Spans (traced runs only): every call of every variant, and every
 * client exchange, is recorded into pre-sized MAP_SHARED buffers that
 * are written out when the run ends; the per-layer times come from
 * them.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "core/nvx.h"
#include "syscalls/sys.h"
#include "wire/receiver.h"
#include "wire/shipper.h"

namespace perfbench {

/** Role index: 0 = leader, 1 = the (local or remote) follower. */
inline constexpr int kRoles = 2;
inline constexpr std::size_t kMaxSamples = std::size_t{1} << 20;
inline constexpr std::size_t kSpanCap = std::size_t{1} << 19; // power of 2

/** Per-role counters a variant publishes when its loop ends. */
struct alignas(64) RoleSlot {
    std::atomic<std::uint64_t> ops;         ///< ops made or replayed
    std::atomic<std::uint64_t> data_digest; ///< over pread buffers
    std::atomic<std::uint64_t> result_digest; ///< over every result
    std::atomic<std::uint64_t> bad;         ///< unexpected results
    std::atomic<std::uint64_t> first_op_ns; ///< CLOCK_MONOTONIC
    std::atomic<std::uint64_t> t0_tsc;      ///< leader: pacing origin
    std::atomic<std::uint32_t> done;        ///< loop finished
    std::atomic<std::uint64_t> calls;       ///< calls recorded (spans)
};

/** One stamped call: cycle counter at entry and at return. */
struct Stamp {
    std::uint64_t start;
    std::uint64_t end;
};

/** One traced call. The op is [start, start+pre+call+post); the
 *  sys::invoke inside it is [start+pre, start+pre+call). */
struct SpanRec {
    std::uint64_t start;
    std::uint32_t pre;
    std::uint32_t call;
    std::uint32_t post;
    std::uint32_t nr;
};

/** The pre-fork shared area of one run. */
struct Shared {
    RoleSlot role[kRoles];
    Stamp stamps[kRoles][kMaxSamples];
};

/** Spans of both roles (mapped only for traced runs). */
struct SpanBuffers {
    SpanRec spans[kRoles][kSpanCap];
};

/**
 * sys::Dispatcher that sits in front of the monitor inside a variant
 * and stamps calls on their way in and out; used for applications
 * whose calls the benchmark does not make itself (the kv server).
 */
class StampingDispatcher final : public varan::sys::Dispatcher
{
  public:
    StampingDispatcher(varan::sys::Dispatcher *inner, RoleSlot *slot,
                       Stamp *stamps, SpanRec *spans, std::uint32_t stride)
        : inner_(inner), slot_(slot), stamps_(stamps), spans_(spans),
          stride_(stride)
    {
    }

    long dispatch(long nr, const std::uint64_t args[6]) override;

  private:
    varan::sys::Dispatcher *inner_;
    RoleSlot *slot_;
    Stamp *stamps_;
    SpanRec *spans_;
    std::uint32_t stride_;
    std::uint64_t index_ = 0;
};

/**
 * The shared-memory part of an engine's status (core::collectStatus),
 * for polling while variants run. Nvx::status() also takes the wire
 * shipper's lock, and a caller can starve on it behind the shipper's
 * pump loop for many seconds (README, "Findings"); the full status is
 * read once the engine has been reaped.
 */
inline varan::core::StatusReport
liveStatus(const varan::core::Nvx &nvx)
{
    return varan::core::collectStatus(nvx.region(), nvx.layout());
}

/** What one engine lifecycle (construct, run, tear down) produced. */
struct Lifecycle {
    bool ok = true;
    double seconds = 0;          ///< measured window
    std::uint64_t ops = 0;       ///< ops the leader side attempted
    double setup_s = 0;
    double ops_per_s = 0;
    double op_us_p50 = 0, op_us_p99 = 0;
    double lag_us_p50 = 0, lag_us_p99 = 0;
    double stall_us_p99 = 0;     ///< open loop only
    double follower_cpu_ns_per_op = 0;
    // Counters read from outside after the run.
    ProcSample proc[kRoles];
    varan::core::StatusReport leader_status = {};
    varan::core::StatusReport follower_status = {}; ///< its own engine
    varan::wire::Shipper::Stats ship = {};
    varan::wire::Receiver::Stats recv = {};
    double ring_lag_mean = 0;    ///< sampled follower ring lag
};

/**
 * Run the lifecycles of one benchmark run, about one per second of
 * --seconds: all untraced, or, in a traced run, untraced and traced
 * alternately. Stops early after a failed lifecycle so deadlines do not
 * stack up.
 */
void runLifecycles(const Args &args,
                   const std::function<Lifecycle(bool, std::uint64_t)> &one,
                   std::vector<Lifecycle> *untraced,
                   std::vector<Lifecycle> *traced);

/** Quantile @p q of one field over lifecycles. */
double quantileOf(const std::vector<Lifecycle> &lcs, double Lifecycle::*field,
                  double q);

/** The end-to-end metrics of an untraced run. */
void addEndToEnd(RunOutput &out, const std::vector<Lifecycle> &lcs);

/** Per-layer figures: counters read from outside, per 1000 ops, and
 *  the traced run's end-to-end figures against the untraced ones. */
void addCounterMetrics(RunOutput &out, const std::vector<Lifecycle> &untraced,
                       const std::vector<Lifecycle> &traced);

/** Call spans, all together and split into reads, writes and opens. */
struct CallSplit {
    std::vector<double> all, read, write, open;
};

/** Classify a syscall nr into the split used by the per-layer table. */
void addToSplit(CallSplit &split, long nr, double ns);

/** A client exchange: cycle counter at send and at the full reply. */
struct ExchangeSpan {
    std::uint64_t start;
    std::uint64_t end;
};

/** Spans role @p role recorded in the last traced lifecycle. */
std::uint64_t spanCount(const Shared &shared, int role);

/** Split the sys::invoke spans of both roles by kind. */
void splitSpans(const Shared &shared, const SpanBuffers &spans,
                CallSplit split[kRoles]);

/** Write the last traced lifecycle's spans to
 *  <workdir>/spans-<workload>.bin: a header line, the SpanRec arrays of
 *  both roles, then the client exchanges. */
void writeSpans(const Args &args, const Shared &shared,
                const SpanBuffers &spans,
                const std::vector<ExchangeSpan> &exchanges);

/** Per-layer times from spans: leader and follower sys::invoke (all
 *  calls and split by kind), and the client exchange with its self
 *  time (the part no leader sys::invoke span covers). */
void addSpanMetrics(RunOutput &out, const CallSplit split[kRoles],
                    const std::vector<double> &exchange_ns,
                    const std::vector<double> &self_ns);

/** syscall-null, syscall-io and remote-replica. */
RunOutput runSyscallWorkload(const Args &args);

/** kv-server. */
RunOutput runKvWorkload(const Args &args);

/** Isolated layer probes, at the shapes of the workload. */
struct ProbeShape {
    std::vector<long> nr_mix;          ///< the workload's syscalls
    std::size_t checksum_bytes = 1024; ///< Events-frame body size
};
void addProbeMetrics(RunOutput &out, const ProbeShape &shape);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
