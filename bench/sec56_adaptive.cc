/**
 * @file
 * Section 5.6 (extension): adaptive event-path auto-tuning.
 *
 * A default-vs-hand-tuned-vs-adaptive comparison of the knob the
 * AutoTuner climbs: the sec55 socketpair harness (Shipper -> Receiver,
 * remote follower draining the re-materialized ring) with the ship
 * batch as the knob. "default" seeds batch 1, "hand-tuned" 64,
 * "adaptive" seeds 1 and runs the AutoTuner with the shipper's stats
 * as the wire source.
 *
 * The figure of merit is gap recovery: how much of the default-to-
 * hand-tuned throughput gap the adaptive row recovers with zero
 * configuration, (adaptive - default) / (tuned - default). The
 * acceptance floor is 80%. JSON baselines land in BENCH_adaptive.json
 * via VARAN_BENCH_JSON.
 */

#include <cstdio>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "adapt/autotuner.h"
#include "benchutil/harness.h"
#include "benchutil/table.h"
#include "common/clock.h"
#include "core/layout.h"
#include "core/tuning.h"
#include "wire/receiver.h"
#include "wire/shipper.h"

using namespace varan;
using namespace varan::bench;

namespace {

constexpr std::uint32_t kRingCapacity = 1024;

enum class Mode { Default, Tuned, Adaptive };

const char *
modeName(Mode mode)
{
    switch (mode) {
      case Mode::Default:
        return "default";
      case Mode::Tuned:
        return "hand-tuned";
      default:
        return "adaptive";
    }
}

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

/** Fast cadence so the ramp is a small fraction of the run: floor to
 *  ceiling on a batch knob is ~16 decisions = ~80 ms at this tick.
 *  The short sampling windows are noisier than the 10 ms engine
 *  default, so the dead band is widened to match — only a real
 *  regression (>25%) should trigger a multiplicative decrease. */
adapt::AutoTuner::Options
benchTunerOptions()
{
    adapt::AutoTuner::Options options;
    options.tick_ns = 5'000'000;
    options.controller.settle_ticks = 1;
    options.controller.hysteresis = 0.25;
    return options;
}

struct RunResult {
    double events_per_sec = 0;
    std::uint64_t final_knob = 0;   ///< the knob value at run end
    std::uint64_t decisions = 0;    ///< AutoTuner adjustments applied
};

/** End-to-end shipping throughput with the ship batch per @p mode
 *  (the sec55 harness, minus the static batch). */
RunResult
runWire(Mode mode, std::uint64_t total_events)
{
    Node leader(0);
    Node remote(core::kNoLeader);

    int sv[2];
    VARAN_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0);

    wire::Shipper::Options ship_opts;
    ship_opts.ship_batch = mode == Mode::Tuned ? 64 : 1;
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
    adapt::AutoTuner tuner(&leader.region, &leader.layout,
                           benchTunerOptions(), [&shipper] {
                               const wire::Shipper::Stats s =
                                   shipper.stats();
                               adapt::WireSample w;
                               w.active = true;
                               w.events = s.events;
                               w.drain_passes = s.drain_passes;
                               w.credit_stalls = s.credit_stalls;
                               return w;
                           });
    if (mode == Mode::Adaptive)
        tuner.start();

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
    tuner.stop();
    shipper.finish();
    receiver.finish();
    ::close(sv[0]);
    ::close(sv[1]);

    core::ControlBlock *cb = leader.layout.controlBlock(&leader.region);
    RunResult result;
    result.events_per_sec =
        elapsed_ns > 0 ? 1e9 * static_cast<double>(total_events) /
                             static_cast<double>(elapsed_ns)
                       : 0;
    result.final_knob = core::liveKnob(cb->tuning, core::Knob::ShipBatch);
    result.decisions = tuner.decisionsApplied();
    return result;
}

double
gapRecovery(const RunResult &def, const RunResult &tuned,
            const RunResult &row)
{
    const double gap = tuned.events_per_sec - def.events_per_sec;
    if (gap <= 0)
        return 1.0;
    return (row.events_per_sec - def.events_per_sec) / gap;
}

void
report(const char *title, const char *knob, const char *json_name,
       const RunResult &def, const RunResult &tuned,
       const RunResult &adaptive)
{
    std::printf("%s\n\n", title);
    Table table({"mode", "events/s", "vs default", "gap recovered",
                 std::string("final ") + knob, "decisions"});
    const RunResult *rows[] = {&def, &tuned, &adaptive};
    const Mode modes[] = {Mode::Default, Mode::Tuned, Mode::Adaptive};
    for (int i = 0; i < 3; ++i) {
        const double speedup =
            def.events_per_sec > 0
                ? rows[i]->events_per_sec / def.events_per_sec
                : 0;
        table.addRow({modeName(modes[i]),
                      fmt(rows[i]->events_per_sec, "%.0f"),
                      fmt(speedup, "%.2fx"),
                      fmt(100.0 * gapRecovery(def, tuned, *rows[i]),
                          "%.0f%%"),
                      std::to_string(rows[i]->final_knob),
                      std::to_string(rows[i]->decisions)});
    }
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
    std::printf("Section 5.6 (extension): adaptive event-path "
                "auto-tuning\n\n");

    const RunResult def = runWire(Mode::Default, wire_total);
    const RunResult tuned = runWire(Mode::Tuned, wire_total);
    const RunResult adaptive = runWire(Mode::Adaptive, wire_total);
    char title[128];
    std::snprintf(title, sizeof(title),
                  "Wire shipping (ShipBatch knob), %llu events end to end",
                  static_cast<unsigned long long>(wire_total));
    report(title, "batch", "sec56_wire", def, tuned, adaptive);

    std::printf("Expected shape: the adaptive row starts at the "
                "per-event floor, climbs to\nthe batching ceiling within "
                "~16 decisions, and recovers >=80%% of the\n"
                "default-to-hand-tuned gap with zero configuration.\n");
    return 0;
}
