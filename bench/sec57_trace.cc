/**
 * @file
 * Section 5.7 (extension): event-path tracing overhead ablation.
 *
 * A trace-off-vs-trace-on comparison over wire shipping: the sec56
 * socketpair harness (Shipper -> Receiver, remote follower draining
 * the re-materialized ring) with the ship batch pinned at 64. The
 * shipper and receiver carry their own stamp sites (ShipperDrain,
 * ReceiverPublish, the credit-stall histogram), all guarded by one
 * live switch, so the rows differ only in `trace.enabled` on both
 * regions.
 *
 * The figure of merit is overhead: (off - on) / off. The acceptance
 * ceiling is 5% — the flight recorder and histograms must be cheap
 * enough to leave on in production, which is the premise of the whole
 * trace subsystem. Each mode runs twice and reports the best run so
 * scheduling noise does not masquerade as instrumentation cost.
 * JSON baselines land in BENCH_trace.json via VARAN_BENCH_JSON.
 */

#include <cstdio>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "benchutil/harness.h"
#include "benchutil/table.h"
#include "common/clock.h"
#include "core/layout.h"
#include "trace/trace.h"
#include "wire/receiver.h"
#include "wire/shipper.h"

using namespace varan;
using namespace varan::bench;

namespace {

constexpr std::uint32_t kRingCapacity = 1024;
constexpr std::uint64_t kShipBatch = 64; ///< pinned ship batch

struct Node {
    shmem::Region region;
    core::EngineLayout layout;

    explicit Node(std::uint32_t leader_id)
    {
        auto r = shmem::Region::create(32 << 20);
        VARAN_CHECK(r.ok());
        region = std::move(r.value());
        layout = core::EngineLayout::create(&region, 1, leader_id,
                                            kRingCapacity);
    }
};

struct RunResult {
    double events_per_sec = 0;
    std::uint64_t lag_samples = 0;   ///< publish_lag histogram count
    std::uint64_t trace_records = 0; ///< flight-recorder stamps
};

/** End-to-end shipping throughput; the shipper's and receiver's own
 *  stamp sites are the instrumentation under test. */
RunResult
runWire(bool traced, std::uint64_t total_events)
{
    Node leader(0);
    Node remote(core::kNoLeader);
    core::ControlBlock *lcb = leader.layout.controlBlock(&leader.region);
    core::ControlBlock *rcb = remote.layout.controlBlock(&remote.region);
    lcb->trace.enabled.store(traced ? 1 : 0, std::memory_order_relaxed);
    rcb->trace.enabled.store(traced ? 1 : 0, std::memory_order_relaxed);

    int sv[2];
    VARAN_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0);

    wire::Shipper::Options ship_opts;
    ship_opts.ship_batch = kShipBatch;
    ship_opts.credit_window = 4096;
    wire::Shipper shipper(&leader.region, &leader.layout, ship_opts);
    VARAN_CHECK(shipper.attachTaps().isOk());

    wire::Receiver::Options recv_opts;
    recv_opts.credit_every = 256;
    wire::Receiver receiver(&remote.region, &remote.layout, recv_opts);

    std::thread adopting([&] {
        VARAN_CHECK(receiver.adopt(sv[1]).isOk());
    });
    VARAN_CHECK(shipper.handshake(sv[0]).isOk());
    adopting.join();
    receiver.start();

    std::thread remote_follower([&] {
        ring::RingBuffer ring = remote.layout.tupleRing(&remote.region, 0);
        ring::Event events[64];
        ring::WaitSpec wait;
        wait.timeout_ns = 50000000; // 50 ms tick
        std::uint64_t seen = 0;
        while (seen < total_events)
            seen += ring.consumeBatch(0, events, 64, wait);
    });

    shipper.start();
    ring::RingBuffer ring = leader.layout.tupleRing(&leader.region, 0);
    const std::uint64_t start_ns = monotonicNs();

    ring::Event batch[256];
    std::uint64_t published = 0;
    while (published < total_events) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(256, total_events - published));
        for (std::size_t i = 0; i < n; ++i) {
            batch[i] = {};
            batch[i].type = ring::EventType::Syscall;
            batch[i].timestamp = published + i + 1;
            batch[i].nr = 39; // getpid
            batch[i].result = 4242;
        }
        published += ring.publishBatch({batch, n});
    }

    remote_follower.join();
    const std::uint64_t elapsed_ns = monotonicNs() - start_ns;
    shipper.finish();
    receiver.finish();
    ::close(sv[0]);
    ::close(sv[1]);

    RunResult result;
    result.events_per_sec =
        elapsed_ns > 0 ? 1e9 * static_cast<double>(total_events) /
                             static_cast<double>(elapsed_ns)
                       : 0;
    result.lag_samples =
        lcb->trace.publish_lag.count.load(std::memory_order_relaxed);
    result.trace_records =
        lcb->trace.trace_head.load(std::memory_order_relaxed) +
        rcb->trace.trace_head.load(std::memory_order_relaxed);
    return result;
}

template <typename Fn>
RunResult
bestOf(int reps, Fn &&run)
{
    RunResult best;
    for (int i = 0; i < reps; ++i) {
        RunResult r = run();
        if (r.events_per_sec > best.events_per_sec)
            best = r;
    }
    return best;
}

void
report(const char *title, const char *json_name, const RunResult &off,
       const RunResult &on)
{
    std::printf("%s\n\n", title);
    const double overhead =
        off.events_per_sec > 0
            ? 100.0 * (off.events_per_sec - on.events_per_sec) /
                  off.events_per_sec
            : 0;
    Table table({"trace", "events/s", "overhead", "lag samples",
                 "stamps"});
    table.addRow({"off", fmt(off.events_per_sec, "%.0f"), "-",
                  std::to_string(off.lag_samples),
                  std::to_string(off.trace_records)});
    table.addRow({"on", fmt(on.events_per_sec, "%.0f"),
                  fmt(overhead, "%.1f%%"),
                  std::to_string(on.lag_samples),
                  std::to_string(on.trace_records)});
    table.print();
    table.writeJson(json_name);
    std::printf("\n");
}

} // namespace

int
main()
{
    ignoreSigpipe();
    const std::uint64_t wire_total = scaled(800000, 60000);
    std::printf("Section 5.7 (extension): event-path tracing "
                "overhead\n\n");

    const RunResult off =
        bestOf(2, [&] { return runWire(false, wire_total); });
    const RunResult on =
        bestOf(2, [&] { return runWire(true, wire_total); });
    char title[128];
    std::snprintf(title, sizeof(title),
                  "Wire shipping (batch %llu), %llu events end to end",
                  static_cast<unsigned long long>(kShipBatch),
                  static_cast<unsigned long long>(wire_total));
    report(title, "sec57_wire", off, on);

    std::printf("Expected shape: the trace-on row stays within 5%% of "
                "trace-off (the\nacceptance ceiling) — log2 histograms "
                "and fetch_add slot claims are\ncheap enough to leave on "
                "in production.\n");
    return 0;
}
