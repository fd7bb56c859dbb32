/**
 * @file
 * Adaptive event-path tests: the live Tuning surface (clamping,
 * pinning, first-seeder-wins seeding), the AIMD controller driven by
 * scripted fake samples (convergence, regression backoff, hysteresis
 * dead band, hard floors/ceilings), the AutoTuner against a real
 * shared layout (pinned knobs skipped, decisions counted),
 * live knob re-reads by the wire shipper mid-run (no restart), the
 * promoted-shipper knob-adoption regression, the unsolicited Status
 * push, BPF hot-rule heat counters, and the engine-level guarantee: a
 * Tuning write through Nvx::tuning() is visible in the very next
 * StatusReport and statusText().
 */

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "adapt/autotuner.h"
#include "adapt/controller.h"
#include "bpf/rules.h"
#include "common/clock.h"
#include "core/nvx.h"
#include "core/status.h"
#include "core/tuning.h"
#include "ring/ring_buffer.h"
#include "shmem/region.h"
#include "syscalls/sys.h"
#include "wire/receiver.h"
#include "wire/shipper.h"

namespace varan {
namespace {

using core::Knob;
using core::Tuning;
using core::TuningBlock;
using core::TuningHandle;

// ---------------------------------------------------------------- Tuning

TEST(TuningTest, ClampEnforcesFloorsAndCeilings)
{
    EXPECT_EQ(core::clampKnob(Knob::ShipBatch, 0), 1u);
    EXPECT_EQ(core::clampKnob(Knob::ShipBatch, 1000), 64u);
    EXPECT_EQ(core::clampKnob(Knob::CreditWindow, 1), 64u);
    EXPECT_EQ(core::clampKnob(Knob::CreditWindow, 1u << 30), 1u << 20);
    EXPECT_EQ(core::clampKnob(Knob::CoalesceWindowNs, 1), 10000u);
}

TEST(TuningTest, HandleSetClampsPinsAndSnapshots)
{
    TuningBlock block = {};
    core::initTuningDefaults(block);
    TuningHandle handle(&block);
    ASSERT_TRUE(handle.valid());

    EXPECT_EQ(handle.shipBatch(), Tuning{}.ship_batch);
    EXPECT_FALSE(handle.pinned(Knob::ShipBatch));

    handle.set(Knob::ShipBatch, 1000); // clamped to the ceiling, pinned
    EXPECT_EQ(handle.get(Knob::ShipBatch), 64u);
    EXPECT_TRUE(handle.pinned(Knob::ShipBatch));
    handle.unpin(Knob::ShipBatch);
    EXPECT_FALSE(handle.pinned(Knob::ShipBatch));

    handle.set(Knob::CreditWindow, 8192, /*pin=*/false);
    EXPECT_FALSE(handle.pinned(Knob::CreditWindow));

    Tuning snap = handle.snapshot();
    EXPECT_EQ(snap.ship_batch, 64u);
    EXPECT_EQ(snap.credit_window, 8192u);
    EXPECT_EQ(snap.coalesce_window_ns, Tuning{}.coalesce_window_ns);
}

TEST(TuningTest, SeedingIsFirstWriterWins)
{
    TuningBlock block = {};
    core::initTuningDefaults(block);

    // initTuningDefaults leaves the seeded mask clear: the first
    // seeder owns the knob ...
    core::seedKnob(block, Knob::ShipBatch, 32);
    EXPECT_EQ(core::liveKnob(block, Knob::ShipBatch), 32u);
    // ... and a later seeder (a component constructed afterwards with
    // stale Options) must not clobber it.
    core::seedKnob(block, Knob::ShipBatch, 1);
    EXPECT_EQ(core::liveKnob(block, Knob::ShipBatch), 32u);

    // An explicit set() always wins over prior seeding.
    TuningHandle(&block).set(Knob::ShipBatch, 8);
    EXPECT_EQ(core::liveKnob(block, Knob::ShipBatch), 8u);
}

// ------------------------------------------------------------ Controller

adapt::ControllerConfig
everyTick()
{
    adapt::ControllerConfig config;
    config.settle_ticks = 1; // decide on every tick: deterministic
    return config;
}

/** Run one controller step and fold any decision for @p knob back into
 *  the scripted Tuning state. Returns true when the knob moved. */
bool
applyStep(adapt::Controller &controller, const adapt::Sample &sample,
          Tuning &tuning, Knob knob)
{
    bool moved = false;
    for (const adapt::Decision &d : controller.step(sample, tuning)) {
        if (d.knob != knob)
            continue;
        moved = true;
        switch (knob) {
          case Knob::ShipBatch:
            tuning.ship_batch = static_cast<std::uint32_t>(d.to);
            break;
          case Knob::CreditWindow:
            tuning.credit_window = static_cast<std::uint32_t>(d.to);
            break;
          case Knob::CoalesceWindowNs:
            tuning.coalesce_window_ns = d.to;
            break;
        }
    }
    return moved;
}

TEST(ControllerTest, ClimbsToCeilingOnRisingThroughput)
{
    adapt::Controller controller(everyTick());
    Tuning tuning;
    tuning.ship_batch = 1;
    double rate = 1000.0;
    for (int i = 0; i < 40 && tuning.ship_batch < 64; ++i) {
        adapt::Sample sample;
        sample.events_per_sec = rate;
        rate *= 1.25; // every increase pays off
        applyStep(controller, sample, tuning, Knob::ShipBatch);
    }
    EXPECT_EQ(tuning.ship_batch, 64u); // converged to the hard ceiling
}

TEST(ControllerTest, BacksOffOnRegressionAndRespectsFloor)
{
    adapt::Controller controller(everyTick());
    Tuning tuning;
    tuning.ship_batch = 64;
    double rate = 1e6;
    std::uint32_t prev = tuning.ship_batch;
    for (int i = 0; i < 12; ++i) {
        adapt::Sample sample;
        sample.events_per_sec = rate;
        rate *= 0.5; // everything makes it worse
        applyStep(controller, sample, tuning, Knob::ShipBatch);
        // Multiplicative decrease, never through the floor.
        EXPECT_GE(tuning.ship_batch, 1u);
        EXPECT_LE(tuning.ship_batch, prev + 4); // one probe may land first
        prev = tuning.ship_batch;
    }
    EXPECT_EQ(tuning.ship_batch, 1u); // collapsed to the hard floor
}

TEST(ControllerTest, HysteresisDeadBandNeverShrinksOnFlatSignal)
{
    adapt::Controller controller(everyTick());
    Tuning tuning;
    tuning.ship_batch = 16;
    std::uint32_t prev = tuning.ship_batch;
    // ±5 % jitter sits inside the ±10 % dead band: the controller may
    // probe upward but must never punish the knob with a backoff.
    const double rates[] = {1000, 1049, 998, 1032, 971, 1020, 990, 1015};
    for (double r : rates) {
        adapt::Sample sample;
        sample.events_per_sec = r;
        applyStep(controller, sample, tuning, Knob::ShipBatch);
        EXPECT_GE(tuning.ship_batch, prev);
        prev = tuning.ship_batch;
    }
}

TEST(ControllerTest, SettleTicksGateDecisions)
{
    adapt::ControllerConfig config;
    config.settle_ticks = 3;
    adapt::Controller controller(config);
    Tuning tuning;
    adapt::Sample sample;
    sample.events_per_sec = 1000;
    // Two ticks rest, the third decides.
    EXPECT_FALSE(applyStep(controller, sample, tuning, Knob::ShipBatch));
    EXPECT_FALSE(applyStep(controller, sample, tuning, Knob::ShipBatch));
    EXPECT_TRUE(applyStep(controller, sample, tuning, Knob::ShipBatch));
}

TEST(ControllerTest, ShipperLingerStaysAtItsSeed)
{
    // CoalesceWindowNs is the shipper's linger cap and only an operator
    // moves it: however long throughput keeps rising with a wire live,
    // no decision touches it while the batch knobs do climb.
    adapt::Controller controller(everyTick());
    Tuning tuning;
    tuning.ship_batch = 1;
    tuning.coalesce_window_ns = 300000;
    double rate = 1000.0;
    bool climbed = false;
    for (int i = 0; i < 64; ++i) {
        adapt::Sample sample;
        sample.events_per_sec = rate;
        sample.wire_active = true;
        sample.wire_events_per_sec = rate;
        rate *= 1.25;
        for (const adapt::Decision &d : controller.step(sample, tuning)) {
            EXPECT_NE(d.knob, Knob::CoalesceWindowNs) << "tick " << i;
            if (d.knob == Knob::ShipBatch) {
                tuning.ship_batch = static_cast<std::uint32_t>(d.to);
                climbed = true;
            }
        }
    }
    EXPECT_TRUE(climbed);
    EXPECT_EQ(tuning.coalesce_window_ns, 300000u);
}

TEST(ControllerTest, CreditWindowDoublesUnderStallPressure)
{
    adapt::Controller controller(everyTick());
    Tuning tuning;
    tuning.credit_window = 4096;
    adapt::Sample sample;
    sample.wire_active = true;
    sample.credit_stall_frac = 0.8; // the window gates most passes
    applyStep(controller, sample, tuning, Knob::CreditWindow);
    EXPECT_EQ(tuning.credit_window, 8192u);
    applyStep(controller, sample, tuning, Knob::CreditWindow);
    EXPECT_EQ(tuning.credit_window, 16384u);
}

// ------------------------------------------------------------- AutoTuner

/** A 1-variant shared layout the AutoTuner samples; the test fakes the
 *  workload by bumping the shared counters directly. */
struct FakeEngine {
    shmem::Region region;
    core::EngineLayout layout;

    FakeEngine()
    {
        auto r = shmem::Region::create(8 << 20);
        VARAN_CHECK(r.ok());
        region = std::move(r.value());
        layout = core::EngineLayout::create(&region, 1, 0, 64);
    }

    core::ControlBlock *cb() { return layout.controlBlock(&region); }
};

TEST(AutoTunerTest, SkipsPinnedKnobsAndCountsDecisions)
{
    FakeEngine engine;
    TuningHandle handle(&engine.cb()->tuning);
    handle.set(Knob::ShipBatch, 7); // operator pin

    // A live wire whose every drain pass stalls on credit: pressure
    // the unpinned CreditWindow knob answers.
    adapt::WireSample wire;
    wire.active = true;
    auto source = [&wire]() { return wire; };

    adapt::AutoTuner::Options options;
    options.controller = everyTick();
    adapt::AutoTuner tuner(&engine.region, &engine.layout, options, source);

    std::uint64_t now = 1000000;
    tuner.tickOnce(now); // baseline
    for (int i = 0; i < 4; ++i) {
        engine.cb()->events_streamed.fetch_add(10000,
                                               std::memory_order_relaxed);
        wire.events += 10000;
        wire.credit_stalls += 100;
        now += 10000000;
        for (const adapt::Decision &d : tuner.tickOnce(now))
            EXPECT_NE(d.knob, Knob::ShipBatch); // pinned: never touched
    }
    EXPECT_EQ(handle.get(Knob::ShipBatch), 7u);
    // The unpinned CreditWindow knob was free to move.
    EXPECT_GT(handle.get(Knob::CreditWindow), Tuning{}.credit_window);
    EXPECT_GT(tuner.decisionsApplied(), 0u);
    EXPECT_GT(engine.cb()->tuning.adapt_samples.load(
                  std::memory_order_relaxed),
              0u);
}

// ------------------------------------------- live knob consumers (wire)

ring::Event
syscallEvent(std::uint64_t timestamp, std::uint16_t nr,
             std::int64_t result)
{
    ring::Event event = {};
    event.type = ring::EventType::Syscall;
    event.timestamp = timestamp;
    event.nr = nr;
    event.result = result;
    return event;
}

/** Publish @p count payload-free events into tuple 0 of @p engine. */
void
publishEvents(FakeEngine &engine, std::size_t count)
{
    ring::RingBuffer ring = engine.layout.tupleRing(&engine.region, 0);
    static std::uint64_t ts = 0;
    for (std::size_t i = 0; i < count; ++i) {
        ring::Event event = syscallEvent(++ts, 39, 4242);
        std::uint64_t seq = 0;
        ASSERT_TRUE(ring.claim(1, &seq, {}));
        ring.commit({&event, 1});
    }
}

struct FakeRemote {
    shmem::Region region;
    core::EngineLayout layout;

    FakeRemote()
    {
        auto r = shmem::Region::create(8 << 20);
        VARAN_CHECK(r.ok());
        region = std::move(r.value());
        layout = core::EngineLayout::create(&region, 1, core::kNoLeader,
                                            64);
    }
};

TEST(AdaptWireTest, ShipperObservesLiveShipBatchMidRun)
{
    FakeEngine leader;
    FakeRemote remote;
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

    wire::Shipper::Options options;
    options.ship_batch = 4;
    wire::Shipper shipper(&leader.region, &leader.layout, options);
    ASSERT_TRUE(shipper.attachTaps().isOk());
    wire::Receiver receiver(&remote.region, &remote.layout);
    std::thread adopting(
        [&] { ASSERT_TRUE(receiver.adopt(sv[1]).isOk()); });
    ASSERT_TRUE(shipper.handshake(sv[0]).isOk());
    adopting.join();

    publishEvents(leader, 20);
    // Seeded batch: one drain pass moves 4 events.
    EXPECT_EQ(shipper.pumpOnce(), 4u);

    // Retune mid-run — no restart, no reconnect: the next pass is
    // already running at the new batch.
    TuningHandle handle(&leader.cb()->tuning);
    handle.set(Knob::ShipBatch, 16);
    EXPECT_EQ(shipper.pumpOnce(), 16u);

    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(AdaptWireTest, PromotedShipperAdoptsRetunedKnobs)
{
    // Regression for the construction-time caching bug: a shipper
    // stood up *after* a live retune (promotion, reconnect) used to
    // reset the batch to its constructor Options. Seeding is
    // first-writer-wins, so the retuned value must survive.
    FakeEngine leader;
    TuningHandle handle(&leader.cb()->tuning);
    handle.set(Knob::ShipBatch, 32);
    handle.set(Knob::CreditWindow, 256);

    wire::Shipper::Options stale;
    stale.ship_batch = 1; // what a config file from before the retune says
    stale.credit_window = 4096;
    wire::Shipper shipper(&leader.region, &leader.layout, stale);
    ASSERT_TRUE(shipper.attachTaps().isOk());

    EXPECT_EQ(handle.get(Knob::ShipBatch), 32u);
    EXPECT_EQ(handle.get(Knob::CreditWindow), 256u);

    // And the adopted values are what actually drive the drain.
    FakeRemote remote;
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    wire::Receiver receiver(&remote.region, &remote.layout);
    std::thread adopting(
        [&] { ASSERT_TRUE(receiver.adopt(sv[1]).isOk()); });
    ASSERT_TRUE(shipper.handshake(sv[0]).isOk());
    adopting.join();

    publishEvents(leader, 40);
    EXPECT_EQ(shipper.pumpOnce(), 32u);

    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(AdaptWireTest, UnsolicitedStatusPushArrives)
{
    FakeEngine leader;
    FakeRemote remote;
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

    wire::Shipper::Options options;
    options.status_push_ns = 1; // every pump pass pushes
    wire::Shipper shipper(&leader.region, &leader.layout, options);
    ASSERT_TRUE(shipper.attachTaps().isOk());
    wire::Receiver receiver(&remote.region, &remote.layout);
    std::thread adopting(
        [&] { ASSERT_TRUE(receiver.adopt(sv[1]).isOk()); });
    ASSERT_TRUE(shipper.handshake(sv[0]).isOk());
    adopting.join();

    // The receiver never asked for anything — the report just arrives.
    shipper.pumpOnce();
    core::StatusReport report = {};
    const std::uint64_t deadline = monotonicNs() + 5000000000ULL;
    while (!receiver.remoteStatus(&report) && monotonicNs() < deadline) {
        receiver.serveOnce(100);
        sleepNs(1000000);
    }
    ASSERT_TRUE(receiver.remoteStatus(&report));
    EXPECT_EQ(report.num_variants, 1u);
    EXPECT_GE(shipper.stats().status_pushes, 1u);
    // The push carries the live knob values of the sending engine.
    EXPECT_EQ(report.adapt.ship_batch, 16u);

    ::close(sv[0]);
    ::close(sv[1]);
}

// ------------------------------------------------------- BPF rule heat

TEST(RuleHeatTest, CountersAndHotHookFireOnce)
{
    bpf::RuleSet rules;
    // Rule 0 never matches (KILL), rule 1 skips everything.
    ASSERT_TRUE(rules.addRule("ret #0\n").isOk());
    ASSERT_TRUE(rules.addRule("ret #0x7ffd0000\n").isOk());

    std::size_t hot_index = 999;
    int fired = 0;
    rules.onHotRule(3, [&](std::size_t index, const bpf::RuleHeat &heat) {
        hot_index = index;
        ++fired;
        EXPECT_EQ(heat.decisions, 3u);
    });

    bpf::FilterContext ctx;
    ctx.data.nr = 42;
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(rules.evaluate(ctx).action, bpf::RuleAction::Skip);

    EXPECT_EQ(rules.heat(0).evaluations, 5u);
    EXPECT_EQ(rules.heat(0).decisions, 0u);
    EXPECT_EQ(rules.heat(1).evaluations, 5u);
    EXPECT_EQ(rules.heat(1).decisions, 5u);
    EXPECT_EQ(rules.hottestRule(), 1);
    EXPECT_EQ(hot_index, 1u);
    EXPECT_EQ(fired, 1); // once per rule, not once per threshold cross
}

// ------------------------------------------------------------ statusText

TEST(StatusTextTest, RendersKnobsAndAdaptCounters)
{
    core::StatusReport report = {};
    report.num_variants = 2;
    report.adapt.ship_batch = 24;
    report.adapt.decisions = 7;
    report.adapt.active = 1;
    report.variants[0].syscalls = 11;
    report.variants[1].syscalls = 13;

    const std::string text = core::statusText(report);
    EXPECT_NE(text.find("# TYPE varan_tuning_ship_batch gauge"),
              std::string::npos);
    EXPECT_NE(text.find("varan_tuning_ship_batch 24"), std::string::npos);
    EXPECT_NE(text.find("varan_adapt_decisions_total 7"),
              std::string::npos);
    EXPECT_NE(text.find("varan_adapt_active 1"), std::string::npos);
    EXPECT_NE(text.find("varan_variant_syscalls_total{variant=\"1\"} 13"),
              std::string::npos);
}

// ------------------------------------------------------- engine-level

core::EngineConfig
fastConfig()
{
    core::EngineConfig config;
    config.ring.capacity = 64;
    config.shm_bytes = 16 << 20;
    config.ring.progress_timeout_ns = 10000000000ULL;
    return config;
}

TEST(AdaptEngineTest, LiveTuningVisibleInStatusWithoutRestart)
{
    int gate[2];
    ASSERT_EQ(::pipe(gate), 0);
    core::Nvx nvx(fastConfig());
    auto app = [gate]() -> int {
        char go = 0;
        if (sys::vread(gate[0], &go, 1) != 1)
            return 9;
        // Post-retune work.
        long pid = 0;
        for (int i = 0; i < 200; ++i)
            pid = sys::vgetpid();
        return pid > 0 ? 0 : 8;
    };
    ASSERT_TRUE(nvx.start({app}).isOk());

    // Retune the running engine through the unified handle ...
    TuningHandle handle = nvx.tuning();
    ASSERT_TRUE(handle.valid());
    handle.set(Knob::CreditWindow, 8192);

    // The very next StatusReport shows the new values — no restart.
    core::StatusReport report = nvx.status();
    EXPECT_EQ(report.adapt.credit_window, 8192u);
    const std::string text = nvx.statusText();
    EXPECT_NE(text.find("varan_tuning_credit_window 8192"),
              std::string::npos);

    ASSERT_EQ(::write(gate[1], "g", 1), 1);
    auto results = nvx.wait();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, 0);
    ::close(gate[0]);
    ::close(gate[1]);
}

TEST(AdaptEngineTest, TuningStructSeedsTheLiveKnobs)
{
    // The unified Tuning struct is the only knob surface: values set
    // there are what the engine actually runs with.
    core::EngineConfig config = fastConfig();
    config.tuning.coalesce_window_ns = 480000;
    config.tuning.credit_window = 1024;
    config.tuning.ship_batch = 8;

    core::Nvx nvx(config);
    auto results = nvx.run({[]() -> int { return 0; }});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, 0);
    core::StatusReport report = nvx.status();
    EXPECT_EQ(report.adapt.coalesce_window_ns, 480000u);
    EXPECT_EQ(report.adapt.credit_window, 1024u);
    EXPECT_EQ(report.adapt.ship_batch, 8u);
}

TEST(AdaptEngineTest, AutoTunerRunsInsideTheEngine)
{
    int gate[2];
    ASSERT_EQ(::pipe(gate), 0);
    core::EngineConfig config = fastConfig();
    config.adapt.enabled = true;
    config.adapt.tick_ns = 2000000; // 2 ms: several ticks per test
    core::Nvx nvx(config);
    auto app = [gate]() -> int {
        for (int i = 0; i < 500; ++i)
            sys::vgetpid();
        char go = 0;
        return sys::vread(gate[0], &go, 1) == 1 ? 0 : 9;
    };
    ASSERT_TRUE(nvx.start({app}).isOk());

    // The controller thread is sampling: adapt_active is up and the
    // sample counter moves without any manual driving.
    const std::uint64_t deadline = monotonicNs() + 5000000000ULL;
    while (nvx.status().adapt.samples < 3 && monotonicNs() < deadline)
        sleepNs(2000000);
    core::StatusReport report = nvx.status();
    EXPECT_EQ(report.adapt.active, 1u);
    EXPECT_GE(report.adapt.samples, 3u);

    ASSERT_EQ(::write(gate[1], "g", 1), 1);
    auto results = nvx.wait();
    EXPECT_EQ(results[0].status, 0);
    // stop() ran during wait(): the gauge is down again.
    EXPECT_EQ(nvx.status().adapt.active, 0u);
    ::close(gate[0]);
    ::close(gate[1]);
}

} // namespace
} // namespace varan
