/**
 * @file
 * Section 5.4: record-replay.
 *
 * Three configurations of vstore under a redis-benchmark-like load:
 *
 *   native                no monitor at all (baseline)
 *   varan-record          engine + the artificial recorder follower
 *                         persisting the event stream to disk
 *   scribe-like (in-band) synchronous logging inside every system
 *                         call, the cost structure of kernel
 *                         record-replay on the critical path
 *
 * The paper measured 14% overhead for VARAN vs 53% for Scribe. After
 * recording, the bench replays the log against a fresh follower and
 * verifies it runs to completion (replay correctness).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include "apps/vstore.h"
#include "benchutil/drivers.h"
#include "benchutil/harness.h"
#include "benchutil/table.h"
#include "common/clock.h"
#include "core/nvx.h"
#include "rr/recorder.h"
#include "rr/replayer.h"

using namespace varan;
using namespace varan::bench;

namespace {

std::string
endpointFor(const char *tag)
{
    static int counter = 0;
    return std::string("varan-s54-") + tag + "-" +
           std::to_string(::getpid()) + "-" + std::to_string(counter++);
}

/**
 * Pure-sink microbench: a bare layout (no engine, no variants), one
 * publisher thread pushing no-payload syscall events through the ring,
 * and a LogSink draining them to disk. Measured end-to-end through
 * finish(), i.e. every event durable, so the single-event/batched gap
 * reflects real write amplification rather than buffering tricks.
 */
double
sinkEventsPerSec(const rr::LogSink::Options &options, std::uint64_t count,
                 const std::string &path)
{
    auto r = shmem::Region::create(16 << 20);
    if (!r.ok())
        return 0;
    shmem::Region region = std::move(r.value());
    // A deep ring (4096 events) keeps the publisher from gating across
    // the drain thread's idle-poll gaps; the sink, not the ring, is
    // what this harness measures.
    core::EngineLayout layout =
        core::EngineLayout::create(&region, 1, 0, 4096);
    // The layout pre-attaches a consumer slot for variant 0; with no
    // follower behind it, it would gate the publisher once the ring
    // wraps. The sink's tap is the only real consumer here.
    layout.tupleRing(&region, 0).detachConsumer(0);

    rr::LogSink sink(&region, &layout, path, options);
    if (!sink.attachTaps().isOk())
        return 0;
    sink.startDraining();

    ring::RingBuffer ring = layout.tupleRing(&region, 0);
    ring::Event events[64] = {};
    for (auto &event : events) {
        event.type = ring::EventType::Syscall;
        event.nr = SYS_getpid;
        event.result = 4242;
    }

    // Publish in claim batches so the harness publisher (identical in
    // both rows) stays well ahead of either sink and the measurement
    // isolates the write path.
    const std::uint64_t t0 = monotonicNs();
    for (std::uint64_t i = 0; i < count;) {
        const std::size_t n =
            std::min<std::uint64_t>(64, count - i);
        std::uint64_t seq = 0;
        if (!ring.claim(n, &seq, {}))
            break;
        for (std::size_t j = 0; j < n; ++j)
            events[j].timestamp = ++i;
        ring.commit({events, n});
    }
    auto stats = sink.finish();
    const std::uint64_t elapsed = monotonicNs() - t0;
    ::unlink(path.c_str());
    if (!stats.ok() || stats.value().events < count || elapsed == 0)
        return 0;
    return static_cast<double>(count) * 1e9 /
           static_cast<double>(elapsed);
}

} // namespace

int
main()
{
    const int clients = 4;
    const int requests = scaled(400, 60);
    const std::string log_path =
        "/tmp/varan-s54-" + std::to_string(::getpid()) + ".log";

    std::printf("Section 5.4: record-replay overhead (vstore, %d clients "
                "x %d requests)\n\n",
                clients, requests);

    // --- native baseline ---
    double native_ops;
    {
        std::string endpoint = endpointFor("native");
        pid_t pid = ::fork();
        if (pid == 0) {
            apps::vstore::Options o;
            o.endpoint = endpoint;
            ::_exit(apps::vstore::serve(o));
        }
        native_ops = kvBench(endpoint, clients, requests).ops_per_sec;
        kvShutdown(endpoint);
        int status;
        ::waitpid(pid, &status, 0);
    }

    // --- VARAN record mode ---
    double varan_ops;
    std::uint64_t recorded_events = 0;
    {
        std::string endpoint = endpointFor("record");
        core::EngineConfig config;
        config.shm_bytes = 64 << 20;
        config.ring.progress_timeout_ns = 120000000000ULL;
        core::Nvx nvx(config);
        rr::LogSink recorder(nvx.region(), &nvx.layout(), log_path);
        auto server = [endpoint]() -> int {
            apps::vstore::Options o;
            o.endpoint = endpoint;
            return apps::vstore::serve(o);
        };
        if (!nvx.start({server},
                       [&](core::Nvx &) {
                           recorder.attachTaps();
                           recorder.startDraining();
                       })
                 .isOk()) {
            return 1;
        }
        varan_ops = kvBench(endpoint, clients, requests).ops_per_sec;
        kvShutdown(endpoint);
        nvx.waitFor(60000000000ULL);
        auto stats = recorder.finish();
        if (stats.ok())
            recorded_events = stats.value().events;
    }

    // --- Scribe-like in-band recording ---
    double inband_ops;
    {
        std::string endpoint = endpointFor("inband");
        pid_t pid = ::fork();
        if (pid == 0) {
            rr::InBandRecorder recorder("/tmp/varan-s54-inband-" +
                                        std::to_string(::getpid()) +
                                        ".log");
            sys::setDispatcher(&recorder);
            apps::vstore::Options o;
            o.endpoint = endpoint;
            int status = apps::vstore::serve(o);
            sys::setDispatcher(nullptr);
            ::_exit(status);
        }
        inband_ops = kvBench(endpoint, clients, requests).ops_per_sec;
        kvShutdown(endpoint);
        int status;
        ::waitpid(pid, &status, 0);
    }

    // --- replay verification ---
    bool replay_ok = false;
    {
        std::string endpoint = endpointFor("replay");
        core::EngineConfig config;
        config.shm_bytes = 64 << 20;
        config.external_leader = true;
        config.ring.progress_timeout_ns = 120000000000ULL;
        core::Nvx nvx(config);
        auto server = [endpoint]() -> int {
            apps::vstore::Options o;
            o.endpoint = endpoint;
            return apps::vstore::serve(o);
        };
        if (nvx.start({server}).isOk()) {
            rr::Replayer replayer(nvx.region(), &nvx.layout(), log_path);
            auto stats = replayer.replayAll();
            auto results = nvx.waitFor(120000000000ULL);
            replay_ok = stats.ok() && !results.empty() &&
                        !results[0].crashed;
        }
    }

    Table table({"configuration", "ops/s", "overhead vs native"});
    table.addRow({"native", fmt(native_ops, "%.0f"), "1.00x"});
    table.addRow({"varan record (decoupled)", fmt(varan_ops, "%.0f"),
                  fmt(overhead(native_ops, varan_ops), "%.2fx")});
    table.addRow({"scribe-like (in-band)", fmt(inband_ops, "%.0f"),
                  fmt(overhead(native_ops, inband_ops), "%.2fx")});
    table.print();
    table.writeJson("sec54_record_replay");

    std::printf("\nrecorded events: %llu; replay of the log against a "
                "fresh follower: %s\n",
                static_cast<unsigned long long>(recorded_events),
                replay_ok ? "completed" : "FAILED");

    // --- recorder write-path ablation ---
    // How much the batched drain + decoupled writer buys over the naive
    // one-write()-per-record sink, with the application factored out.
    const std::uint64_t sink_events = scaled(200000, 20000);
    const std::string sink_path =
        "/tmp/varan-s54-sink-" + std::to_string(::getpid()) + ".log";

    rr::LogSink::Options single;
    single.drain_batch = 1;
    single.synchronous = true;
    const double single_eps =
        sinkEventsPerSec(single, sink_events, sink_path);

    rr::LogSink::Options batched; // production defaults: batch of 64
    batched.overflow = rr::LogSink::Overflow::Gate;
    const double batched_eps =
        sinkEventsPerSec(batched, sink_events, sink_path);

    const double speedup =
        single_eps > 0 ? batched_eps / single_eps : 0;
    std::printf("\nRecorder sink throughput (%llu events, durable "
                "through finish()):\n\n",
                static_cast<unsigned long long>(sink_events));
    Table sink_table({"recorder", "events/s", "speedup"});
    sink_table.addRow(
        {"single-event (write per record)", fmt(single_eps, "%.0f"),
         "1.00x"});
    sink_table.addRow({"batched (drain 64 + writer thread)",
                       fmt(batched_eps, "%.0f"),
                       fmt(speedup, "%.2fx")});
    sink_table.print();
    sink_table.writeJson("sec54_recorder_throughput");
    std::printf("\nPaper reference: VARAN 14%% vs Scribe 53%%. Expected "
                "shape: the decoupled recorder\ncosts less than "
                "synchronous in-band logging.\n");
    ::unlink(log_path.c_str());
    return replay_ok ? 0 : 1;
}
