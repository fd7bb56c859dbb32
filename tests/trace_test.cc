/**
 * @file
 * Observability-layer tests: log2 histogram mapping and Prometheus
 * exposition, the flight recorder, the seqlock divergence ledger (unit
 * + loss clamp), the wire Divergence frame (protocol v5), out-of-
 * process layout attach, the structured on_divergence_record hook (and
 * the deprecated counter form), cross-node divergence relay, and an
 * end-to-end exec of the `varanctl` binary against a live engine.
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "core/nvx.h"
#include "netio/socketio.h"
#include "syscalls/sys.h"
#include "trace/inspect.h"
#include "wire/protocol.h"
#include "wire/receiver.h"
#include "wire/shipper.h"

namespace varan::trace {
namespace {

core::EngineConfig
fastConfig()
{
    core::EngineConfig config;
    config.ring.capacity = 64;
    config.shm_bytes = 16 << 20;
    config.ring.progress_timeout_ns = 10000000000ULL; // 10 s test safety
    return config;
}

/** Listing 1 (section 5.2): allow a follower getuid the leader never
 *  made while the leader sits at getpid. */
const char *kAllowGetuidRule =
    "ld event[0]\n"
    "jeq #39, checkmine /* leader at getpid */\n"
    "jmp bad\n"
    "checkmine:\n"
    "ld [0]\n"
    "jeq #102, good /* follower wants getuid */\n"
    "bad: ret #0\n"
    "good: ret #0x7fff0000\n";

TEST(TraceUnitTest, HistogramBucketsAndBounds)
{
    // Bucket i holds values of bit-width i; bound(i) = 2^i - 1.
    EXPECT_EQ(histogramBucket(0), 0u);
    EXPECT_EQ(histogramBucket(1), 1u);
    EXPECT_EQ(histogramBucket(2), 2u);
    EXPECT_EQ(histogramBucket(3), 2u);
    EXPECT_EQ(histogramBucket(4), 3u);
    EXPECT_EQ(histogramBucket(1023), 10u);
    EXPECT_EQ(histogramBucket(1024), 11u);
    EXPECT_EQ(histogramBucket(~0ULL),
              static_cast<unsigned>(kHistogramBuckets - 1));
    EXPECT_EQ(histogramBound(0), 0u);
    EXPECT_EQ(histogramBound(1), 1u);
    EXPECT_EQ(histogramBound(2), 3u);
    EXPECT_EQ(histogramBound(10), 1023u);
    // Every value lands in the bucket whose bound covers it.
    for (std::uint64_t v : {0ULL, 1ULL, 7ULL, 100ULL, 123456789ULL}) {
        unsigned b = histogramBucket(v);
        EXPECT_LE(v, histogramBound(b)) << v;
        if (b > 0) {
            EXPECT_GT(v, histogramBound(b - 1)) << v;
        }
    }
}

TEST(TraceUnitTest, HistogramRecordAccumulates)
{
    auto h = std::make_unique<Histogram>();
    histogramRecord(*h, 0);
    histogramRecord(*h, 5);
    histogramRecord(*h, 5);
    histogramRecord(*h, 1000000);
    EXPECT_EQ(h->count.load(), 4u);
    EXPECT_EQ(h->sum.load(), 1000010u);
    EXPECT_EQ(h->buckets[0].load(), 1u);
    EXPECT_EQ(h->buckets[histogramBucket(5)].load(), 2u);
    EXPECT_EQ(h->buckets[histogramBucket(1000000)].load(), 1u);
}

TEST(TraceUnitTest, FlightRecorderWrapsOldestFirst)
{
    auto tb = std::make_unique<TraceBlock>();
    tb->enabled.store(1);
    const std::size_t total = kTraceRecords + 100;
    for (std::size_t i = 0; i < total; ++i)
        stamp(*tb, Stage::LeaderPublish, 0, 0,
              static_cast<std::uint32_t>(i), i);
    std::vector<TraceRecord> out(kTraceRecords);
    const std::size_t n = snapshotTrace(*tb, out.data(), out.size());
    ASSERT_EQ(n, kTraceRecords);
    // Oldest surviving record is (total - kTraceRecords), newest last.
    EXPECT_EQ(out.front().code,
              static_cast<std::uint32_t>(total - kTraceRecords));
    EXPECT_EQ(out.back().code, static_cast<std::uint32_t>(total - 1));
}

TEST(TraceUnitTest, LedgerRoundTrip)
{
    auto tb = std::make_unique<TraceBlock>();
    for (std::uint32_t i = 0; i < 5; ++i) {
        DivergenceRecord rec = {};
        rec.lamport = i;
        rec.observed_nr = 100 + i;
        ledgerAppend(*tb, rec);
    }
    std::uint64_t cursor = 0;
    DivergenceRecord out[8];
    EXPECT_EQ(ledgerRead(*tb, &cursor, out, 8), 5u);
    EXPECT_EQ(out[0].lamport, 0u);
    EXPECT_EQ(out[4].observed_nr, 104u);
    EXPECT_EQ(cursor, 5u);
    // Nothing new: the cursor holds.
    EXPECT_EQ(ledgerRead(*tb, &cursor, out, 8), 0u);
}

TEST(TraceUnitTest, LedgerClampsLostCursor)
{
    auto tb = std::make_unique<TraceBlock>();
    const std::uint64_t total = kLedgerSlots + 40;
    for (std::uint64_t i = 0; i < total; ++i) {
        DivergenceRecord rec = {};
        rec.lamport = i;
        ledgerAppend(*tb, rec);
    }
    // A reader that never consumed resumes at the oldest record still
    // retained instead of spinning on overwritten slots.
    std::uint64_t cursor = 0;
    DivergenceRecord out[8];
    ASSERT_EQ(ledgerRead(*tb, &cursor, out, 8), 8u);
    EXPECT_EQ(out[0].lamport, total - kLedgerSlots);
    // Drain the rest; the final record is the newest append.
    std::size_t n;
    DivergenceRecord last = out[7];
    while ((n = ledgerRead(*tb, &cursor, out, 8)) > 0)
        last = out[n - 1];
    EXPECT_EQ(last.lamport, total - 1);
    EXPECT_EQ(cursor, total);
}

TEST(WireDivergenceFrameTest, RoundTrip)
{
    DivergenceRecord records[3] = {};
    records[0].lamport = 7;
    records[0].expected_nr = 39;
    records[0].observed_nr = 102;
    records[1].action = static_cast<std::uint8_t>(DivergenceAction::Fatal);
    records[2].origin_id = 42;

    std::uint8_t frame[wire::kDivergenceFrameMaxBytes];
    const std::size_t len = wire::encodeDivergenceFrame(records, 3, frame);
    ASSERT_EQ(len, sizeof(wire::FrameHeader) + 3 * sizeof(DivergenceRecord));

    wire::FrameHeader header = {};
    std::memcpy(&header, frame, sizeof(header));
    EXPECT_TRUE(wire::headerValid(header));
    EXPECT_EQ(header.version, wire::kProtocolVersion);
    EXPECT_EQ(header.type,
              static_cast<std::uint16_t>(wire::FrameType::Divergence));

    DivergenceRecord out[4] = {};
    const std::size_t n = wire::decodeDivergenceFrame(
        header, frame + sizeof(header), header.body_len, out, 4);
    ASSERT_EQ(n, 3u);
    EXPECT_EQ(out[0].lamport, 7u);
    EXPECT_EQ(out[0].observed_nr, 102u);
    EXPECT_EQ(out[1].action,
              static_cast<std::uint8_t>(DivergenceAction::Fatal));
    EXPECT_EQ(out[2].origin_id, 42u);
}

TEST(WireDivergenceFrameTest, CorruptBodyRejected)
{
    DivergenceRecord rec = {};
    rec.lamport = 99;
    std::uint8_t frame[wire::kDivergenceFrameMaxBytes];
    wire::encodeDivergenceFrame(&rec, 1, frame);
    wire::FrameHeader header = {};
    std::memcpy(&header, frame, sizeof(header));
    frame[sizeof(header) + 3] ^= 0x40; // flip one body bit
    DivergenceRecord out[1];
    EXPECT_EQ(wire::decodeDivergenceFrame(header, frame + sizeof(header),
                                          header.body_len, out, 1),
              SIZE_MAX);
    // Truncated body is also refused.
    EXPECT_EQ(wire::decodeDivergenceFrame(header, frame + sizeof(header),
                                          header.body_len - 8, out, 1),
              SIZE_MAX);
}

TEST(LayoutAttachTest, RoundTripAndRejection)
{
    auto r = shmem::Region::create(8 << 20);
    ASSERT_TRUE(r.ok());
    shmem::Region region = std::move(r.value());
    // An uninitialised region (no control magic) is refused.
    EXPECT_FALSE(core::EngineLayout::attach(&region).ok());

    core::EngineLayout created =
        core::EngineLayout::create(&region, 2, 0, 64);
    auto attached = core::EngineLayout::attach(&region);
    ASSERT_TRUE(attached.ok());
    EXPECT_EQ(attached.value().control, created.control);
    EXPECT_EQ(attached.value().pool_header, created.pool_header);
    core::ControlBlock *cb = attached.value().controlBlock(&region);
    EXPECT_EQ(cb->num_variants, 2u);
    EXPECT_EQ(cb->ring_capacity, 64u);
}

TEST(TraceEngineTest, StructuredDivergenceHookDeliversRecord)
{
    core::EngineConfig config = fastConfig();
    config.rewrite_rules.push_back(kAllowGetuidRule);
    std::mutex mutex;
    std::vector<DivergenceRecord> seen;
    config.on_divergence_record = [&](const DivergenceRecord &rec) {
        std::lock_guard<std::mutex> guard(mutex);
        seen.push_back(rec);
    };
    auto app = []() -> int {
        if (core::Monitor::instance() &&
            core::Monitor::instance()->variantId() == 1) {
            sys::vgetuid(); // deliberate divergence, resolved by rule
        }
        sys::vgetpid();
        return 0;
    };
    core::Nvx nvx(config);
    auto results = nvx.run({app, app});
    EXPECT_FALSE(results[0].crashed);
    EXPECT_FALSE(results[1].crashed);
    ASSERT_GE(seen.size(), 1u); // monitor thread joined: safe to read
    const DivergenceRecord &rec = seen.front();
    EXPECT_EQ(rec.expected_nr, 39u);  // leader event: getpid
    EXPECT_EQ(rec.observed_nr, 102u); // follower executed getuid
    EXPECT_EQ(rec.variant, 1u);
    EXPECT_EQ(rec.origin, 0u);
    EXPECT_EQ(rec.action,
              static_cast<std::uint8_t>(DivergenceAction::Resolved));
    EXPECT_NE(rec.arg_digest, 0u);
}

/** The migration target for the removed counter-form `on_divergence`
 *  hook: counter-style accounting is a fold over the structured
 *  records (see the README migration note). */
TEST(TraceEngineTest, CounterAccountingViaRecordHook)
{
    core::EngineConfig config = fastConfig();
    config.rewrite_rules.push_back(kAllowGetuidRule);
    std::atomic<std::uint64_t> resolved{0};
    std::atomic<std::uint64_t> fatal{0};
    config.on_divergence_record = [&](const DivergenceRecord &rec) {
        if (rec.action == static_cast<std::uint8_t>(
                              DivergenceAction::Resolved))
            resolved.fetch_add(1);
        else
            fatal.fetch_add(1);
    };
    auto app = []() -> int {
        if (core::Monitor::instance() &&
            core::Monitor::instance()->variantId() == 1)
            sys::vgetuid();
        sys::vgetpid();
        return 0;
    };
    core::Nvx nvx(config);
    auto results = nvx.run({app, app});
    EXPECT_FALSE(results[0].crashed);
    EXPECT_FALSE(results[1].crashed);
    EXPECT_GE(resolved.load(), 1u);
    EXPECT_EQ(fatal.load(), 0u);
}

TEST(TraceEngineTest, DisabledTraceStillRecordsLedger)
{
    core::EngineConfig config = fastConfig();
    config.trace_enabled = false;
    config.rewrite_rules.push_back(kAllowGetuidRule);
    auto app = []() -> int {
        if (core::Monitor::instance() &&
            core::Monitor::instance()->variantId() == 1)
            sys::vgetuid();
        for (int i = 0; i < 128; ++i)
            sys::vgetpid();
        return 0;
    };
    core::Nvx nvx(config);
    auto results = nvx.run({app, app});
    EXPECT_FALSE(results[0].crashed);
    EXPECT_FALSE(results[1].crashed);
    const core::StatusReport report = nvx.status();
    EXPECT_EQ(report.trace.enabled, 0u);
    // The hook path must work without tracing: the ledger is not gated.
    EXPECT_GE(report.trace.ledger_records, 1u);
    // The flight recorder and sampled histograms are off.
    EXPECT_EQ(report.trace.trace_records, 0u);
    EXPECT_EQ(report.trace.publish_lag.count, 0u);
}

/** The golden list: every metric family statusText() emits. CI greps
 *  these same names against docs/OBSERVABILITY.md. */
const char *const kMetricNames[] = {
    "varan_num_variants", "varan_ring_capacity", "varan_leader",
    "varan_epoch", "varan_live_mask", "varan_num_tuples",
    "varan_stream_generation", "varan_promotions_total",
    "varan_events_streamed_total", "varan_divergences_resolved_total",
    "varan_divergences_fatal_total", "varan_fd_transfers_total",
    "varan_variant_state", "varan_variant_syscalls_total",
    "varan_variant_ring_lag", "varan_variant_restarts_total",
    "varan_pool_spills_total", "varan_pool_global_live_chunks",
    "varan_shipper_active", "varan_shipper_link_up",
    "varan_shipper_peers", "varan_shipper_frames_total",
    "varan_shipper_events_total", "varan_shipper_bytes_total",
    "varan_shipper_credit_stalls_total",
    "varan_shipper_drain_passes_total",
    "varan_shipper_status_pushes_total", "varan_receiver_active",
    "varan_receiver_events_total", "varan_receiver_promoted",
    "varan_receiver_fenced", "varan_quorum_active",
    "varan_quorum_members", "varan_quorum_live_members",
    "varan_quorum_term", "varan_quorum_holder",
    "varan_quorum_elections_total", "varan_quorum_leases_won_total",
    "varan_quorum_votes_granted_total", "varan_quorum_fences_total",
    "varan_recorder_active", "varan_recorder_events_total",
    "varan_adapt_active", "varan_adapt_samples_total",
    "varan_adapt_decisions_total", "varan_adapt_pinned_mask",
    "varan_tuning_ship_batch", "varan_tuning_credit_window",
    "varan_tuning_coalesce_window_ns",
    "varan_trace_enabled", "varan_trace_records_total",
    "varan_divergence_records_total", "varan_publish_lag_ns",
    "varan_credit_stall_ns",
    "varan_blackout_ns",
};

TEST(PrometheusTest, GoldenMetricNameList)
{
    core::StatusReport report = {};
    report.num_variants = 1;
    const std::string text = core::statusText(report);
    // Every golden name has a HELP header...
    for (const char *name : kMetricNames)
        EXPECT_NE(text.find(std::string("# HELP ") + name + " "),
                  std::string::npos)
            << name;
    // ... and every HELP header in the page is on the golden list, so
    // adding a metric without updating the list (and the docs CI gate
    // keyed off it) fails here first.
    std::set<std::string> golden(std::begin(kMetricNames),
                                 std::end(kMetricNames));
    std::size_t pos = 0;
    while ((pos = text.find("# HELP ", pos)) != std::string::npos) {
        pos += 7;
        const std::size_t end = text.find(' ', pos);
        ASSERT_NE(end, std::string::npos);
        EXPECT_TRUE(golden.count(text.substr(pos, end - pos)))
            << text.substr(pos, end - pos);
    }
}

TEST(PrometheusTest, HistogramExpositionMatchesScriptedLatencies)
{
    auto r = shmem::Region::create(8 << 20);
    ASSERT_TRUE(r.ok());
    shmem::Region region = std::move(r.value());
    core::EngineLayout layout =
        core::EngineLayout::create(&region, 1, 0, 64);
    core::ControlBlock *cb = layout.controlBlock(&region);
    // Scripted samples: 0, 1, 5, 100, 1000000 ns.
    for (std::uint64_t v : {0ULL, 1ULL, 5ULL, 100ULL, 1000000ULL})
        histogramRecord(cb->trace.publish_lag, v);

    const std::string text =
        core::statusText(core::collectStatus(&region, layout));
    // Cumulative buckets at the scripted boundaries.
    EXPECT_NE(text.find("varan_publish_lag_ns_bucket{le=\"0\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("varan_publish_lag_ns_bucket{le=\"1\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("varan_publish_lag_ns_bucket{le=\"7\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("varan_publish_lag_ns_bucket{le=\"127\"} 4\n"),
              std::string::npos);
    EXPECT_NE(
        text.find("varan_publish_lag_ns_bucket{le=\"1048575\"} 5\n"),
        std::string::npos);
    EXPECT_NE(text.find("varan_publish_lag_ns_bucket{le=\"+Inf\"} 5\n"),
              std::string::npos);
    EXPECT_NE(text.find("varan_publish_lag_ns_sum 1000106\n"),
              std::string::npos);
    EXPECT_NE(text.find("varan_publish_lag_ns_count 5\n"),
              std::string::npos);
}

TEST(PrometheusTest, LiveEngineHistogramIsCumulativeAndConsistent)
{
    core::EngineConfig config = fastConfig();
    auto app = []() -> int {
        for (int i = 0; i < 512; ++i)
            sys::vgetpid(); // enough for the 1-in-64 lag sampling
        return 0;
    };
    core::Nvx nvx(config);
    auto results = nvx.run({app, app});
    EXPECT_FALSE(results[0].crashed);
    EXPECT_FALSE(results[1].crashed);
    const core::StatusReport report = nvx.status();
    EXPECT_GE(report.trace.publish_lag.count, 1u);
    EXPECT_GT(report.trace.trace_records, 0u);
    // Bucket counts sum to _count; the rendered series is cumulative.
    std::uint64_t total = 0;
    for (std::uint64_t bucket : report.trace.publish_lag.buckets)
        total += bucket;
    EXPECT_EQ(total, report.trace.publish_lag.count);
}

TEST(WireRelayTest, RemoteDivergenceRecordsShipUpstream)
{
    // A remote follower node diverges during replay; its receiver
    // relays the ledger record upstream and the leader-node ledger
    // carries it tagged origin=remote — one hook covers the fleet.
    int gate[2];
    ASSERT_EQ(::pipe(gate), 0);

    const std::string endpoint =
        "varan-trace-relay-" + std::to_string(::getpid());
    auto listening = netio::listenAbstract(endpoint);
    ASSERT_TRUE(listening.ok());

    auto leader_app = [gate]() -> int {
        for (int i = 0; i < 64; ++i)
            sys::vgetpid();
        char go = 0;
        return sys::vread(gate[0], &go, 1) == 1 ? 0 : 9;
    };
    auto remote_app = [gate]() -> int {
        // Extra getuid the stream does not carry: a divergence on the
        // remote node, resolved there by the Allow rule.
        sys::vgetuid();
        for (int i = 0; i < 64; ++i)
            sys::vgetpid();
        char go = 0;
        return sys::vread(gate[0], &go, 1) == 1 ? 0 : 9; // replayed
    };

    // Remote node: external-leader engine + receiver, with the rule.
    core::EngineConfig remote_config = fastConfig();
    remote_config.external_leader = true;
    remote_config.rewrite_rules.push_back(kAllowGetuidRule);
    core::Nvx remote_nvx(remote_config);
    ASSERT_TRUE(remote_nvx.start({remote_app}).isOk());
    wire::Receiver receiver(remote_nvx.region(), &remote_nvx.layout());
    std::thread accepting([&] {
        long conn = netio::acceptConnection(listening.value(), false);
        ASSERT_GE(conn, 0);
        ASSERT_TRUE(receiver.adopt(static_cast<int>(conn)).isOk());
        receiver.start();
    });

    // Leader node, gated so the link stays up until the relay lands.
    core::EngineConfig config = fastConfig();
    config.remote.endpoint = endpoint;
    core::Nvx nvx(config);
    ASSERT_TRUE(nvx.start({leader_app}).isOk());

    // Wait for a remote-origin record to reach the leader's ledger.
    bool relayed = false;
    DivergenceRecord relayed_rec = {};
    const std::uint64_t deadline = monotonicNs() + 20000000000ULL;
    while (!relayed && monotonicNs() < deadline) {
        const core::StatusReport report = nvx.status();
        for (std::uint32_t i = 0; i < report.trace.recent_count; ++i) {
            if (report.trace.recent[i].origin != 0) {
                relayed = true;
                relayed_rec = report.trace.recent[i];
            }
        }
        if (!relayed)
            sleepNs(20000000);
    }
    ASSERT_EQ(::write(gate[1], "g", 1), 1);

    auto results = nvx.waitFor(30000000000ULL);
    accepting.join();
    auto remote_results = remote_nvx.waitFor(30000000000ULL);
    ASSERT_TRUE(receiver.finish().isOk());
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].crashed);
    ASSERT_EQ(remote_results.size(), 1u);
    EXPECT_FALSE(remote_results[0].crashed);

    ASSERT_TRUE(relayed) << "no remote-origin divergence reached the "
                            "leader ledger";
    EXPECT_EQ(relayed_rec.origin, 1u);
    EXPECT_NE(relayed_rec.origin_id, 0u);
    EXPECT_EQ(relayed_rec.expected_nr, 39u);
    EXPECT_EQ(relayed_rec.observed_nr, 102u);
    EXPECT_GE(receiver.stats().divergence_records_sent, 1u);

    ::close(gate[0]);
    ::close(gate[1]);
    sys::vclose(static_cast<int>(listening.value()));
}

/** Directory holding this test binary (varanctl sits next to it). */
std::string
selfDirectory()
{
    char buf[512] = {};
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    std::string path(buf, n > 0 ? static_cast<std::size_t>(n) : 0);
    const std::size_t slash = path.rfind('/');
    return slash == std::string::npos ? "." : path.substr(0, slash);
}

std::string
runCommand(const std::string &command)
{
    FILE *pipe = ::popen(command.c_str(), "r");
    if (pipe == nullptr)
        return {};
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = ::fread(buf, 1, sizeof(buf), pipe)) > 0)
        out.append(buf, n);
    ::pclose(pipe);
    return out;
}

TEST(VaranctlTest, AttachAndDialAgainstLiveEngine)
{
    const std::string varanctl = selfDirectory() + "/varanctl";
    if (::access(varanctl.c_str(), X_OK) != 0)
        GTEST_SKIP() << "varanctl binary not built next to the tests";

    // A deliberately divergent engine, kept alive by its coordinator
    // (the Nvx object) after the variants finish: region and status
    // endpoint stay inspectable until it is destroyed.
    core::EngineConfig config = fastConfig();
    config.rewrite_rules.push_back(kAllowGetuidRule);
    const std::string endpoint =
        "varan-trace-ctl-" + std::to_string(::getpid());
    config.remote.status_endpoint = endpoint;
    auto app = []() -> int {
        if (core::Monitor::instance() &&
            core::Monitor::instance()->variantId() == 1)
            sys::vgetuid();
        for (int i = 0; i < 512; ++i)
            sys::vgetpid();
        return 0;
    };
    core::Nvx nvx(config);
    auto results = nvx.run({app, app});
    EXPECT_FALSE(results[0].crashed);
    EXPECT_FALSE(results[1].crashed);

    // attach: the live shared region through /proc/<pid>/fd.
    const std::string attach_out = runCommand(
        varanctl + " attach " + std::to_string(::getpid()) + " 2>&1");
    EXPECT_NE(attach_out.find("engine: 2 variant(s)"), std::string::npos)
        << attach_out;
    EXPECT_NE(attach_out.find("varan_publish_lag_ns_count"),
              std::string::npos);
    EXPECT_NE(attach_out.find("expected_nr=39 observed_nr=102"),
              std::string::npos);
    EXPECT_NE(attach_out.find("action=resolved"), std::string::npos);

    // dial: the wire Status RPC against the engine's status endpoint.
    const std::string dial_out =
        runCommand(varanctl + " dial " + endpoint + " 2>&1");
    EXPECT_NE(dial_out.find("engine: 2 variant(s)"), std::string::npos)
        << dial_out;
    EXPECT_NE(dial_out.find("varan_divergence_records_total 1"),
              std::string::npos);
    EXPECT_NE(dial_out.find("expected_nr=39 observed_nr=102"),
              std::string::npos);

    // Unknown pid / endpoint fail loudly, not with garbage output.
    EXPECT_EQ(runCommand(varanctl + " attach 1 2>/dev/null"), "");
}

} // namespace
} // namespace varan::trace
