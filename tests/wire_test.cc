/**
 * @file
 * Multi-node event shipping tests: frame validation, framing round
 * trips over a socketpair, corrupt/truncated frame rejection, a full
 * end-to-end leader -> wire -> remote-follower run through the
 * unmodified dispatch loop, link-drop failover with retransmission,
 * the pool-statistics handshake snapshot, the coordinator status RPC
 * (StatusReport encode/decode round trip + a live remote request
 * answered by the shipper), and — protocol v3 — epoch reconciliation
 * across leader generations, decodable stale-Hello rejection,
 * one-shipper/N-receiver fan-out with per-peer credit isolation, and
 * cross-node promotion (unit-level election plus the full
 * leader-node-death end-to-end scenario, whose links run through the
 * FaultLink harness so the death is a scripted frame-boundary cut
 * rather than a SIGKILL/reconnect race).
 */

#include <algorithm>
#include <csignal>
#include <cstring>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/nvx.h"
#include "harness/faultlink.h"
#include "netio/socketio.h"
#include "syscalls/sys.h"
#include "wire/protocol.h"
#include "wire/receiver.h"
#include "wire/shipper.h"

namespace varan::wire {
namespace {

constexpr std::uint32_t kCap = 64;

/** A leader-side harness: region + layout a test publishes into. */
struct FakeLeader {
    shmem::Region region;
    core::EngineLayout layout;

    FakeLeader()
    {
        auto r = shmem::Region::create(8 << 20);
        VARAN_CHECK(r.ok());
        region = std::move(r.value());
        layout = core::EngineLayout::create(&region, 1, 0, kCap);
    }

    /** Publish one event the way Monitor::publishEvent does. */
    void
    publish(std::uint32_t tuple, ring::Event event,
            const void *payload_data = nullptr,
            std::uint32_t payload_size = 0)
    {
        core::ControlBlock *cb = layout.controlBlock(&region);
        shmem::ShardedPool pool = layout.pool(&region);
        ring::RingBuffer ring = layout.tupleRing(&region, tuple);
        std::uint64_t *shadow = layout.tupleShadow(&region, tuple);

        shmem::Offset payload = 0;
        if (payload_data != nullptr) {
            payload = pool.allocate(tuple, payload_size, 1);
            VARAN_CHECK(payload != 0);
            std::memcpy(pool.pointer(payload, payload_size), payload_data,
                        payload_size);
            event.flags |= ring::kHasPayload;
            event.payload = static_cast<std::uint32_t>(payload);
            event.payload_size = payload_size;
        }
        std::uint64_t seq = 0;
        VARAN_CHECK(ring.claim(1, &seq, {}));
        std::uint64_t idx = seq & (cb->ring_capacity - 1);
        if (shadow[idx] != 0)
            pool.release(shadow[idx]);
        shadow[idx] = payload;
        ring.commit({&event, 1});
    }
};

/** A remote-side harness: external-leader layout + attached consumer. */
struct FakeRemote {
    shmem::Region region;
    core::EngineLayout layout;

    FakeRemote()
    {
        auto r = shmem::Region::create(8 << 20);
        VARAN_CHECK(r.ok());
        region = std::move(r.value());
        layout =
            core::EngineLayout::create(&region, 1, core::kNoLeader, kCap);
    }

    /** Drain everything re-materialized into tuple @p tuple. */
    std::vector<ring::Event>
    drain(std::uint32_t tuple)
    {
        ring::RingBuffer ring = layout.tupleRing(&region, tuple);
        std::vector<ring::Event> out;
        ring::Event event;
        // Slot 0 was pre-attached by the external-leader layout.
        while (ring.poll(0, &event))
            out.push_back(event);
        return out;
    }
};

ring::Event
syscallEvent(std::uint64_t timestamp, std::uint16_t nr, std::int64_t result)
{
    ring::Event event = {};
    event.type = ring::EventType::Syscall;
    event.timestamp = timestamp;
    event.nr = nr;
    event.result = result;
    return event;
}

TEST(WireProtocolTest, HeaderValidation)
{
    FrameHeader h = makeHeader(FrameType::Events, 128);
    h.tuple = 3;
    EXPECT_TRUE(headerValid(h));

    FrameHeader bad_magic = h;
    bad_magic.magic ^= 1;
    EXPECT_FALSE(headerValid(bad_magic));

    FrameHeader bad_version = h;
    bad_version.version = kProtocolVersion + 1;
    EXPECT_FALSE(headerValid(bad_version));

    FrameHeader bad_type = h;
    bad_type.type = 99;
    EXPECT_FALSE(headerValid(bad_type));

    FrameHeader bad_len = h;
    bad_len.body_len = kMaxBodyBytes + 1;
    EXPECT_FALSE(headerValid(bad_len));

    FrameHeader bad_tuple = h;
    bad_tuple.tuple = core::kMaxTuples;
    EXPECT_FALSE(headerValid(bad_tuple));
}

TEST(WireProtocolTest, ChecksumDetectsFlips)
{
    std::uint8_t body[64];
    for (std::size_t i = 0; i < sizeof(body); ++i)
        body[i] = static_cast<std::uint8_t>(i * 7);
    std::uint32_t crc = bodyChecksum(body, sizeof(body));
    body[40] ^= 0x10;
    EXPECT_NE(crc, bodyChecksum(body, sizeof(body)));
}

TEST(WireShipTest, FramingRoundTripWithPayloads)
{
    FakeLeader leader;
    FakeRemote remote;

    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

    Shipper::Options ship_opts;
    ship_opts.ship_batch = 8;
    Shipper shipper(&leader.region, &leader.layout, ship_opts);
    ASSERT_TRUE(shipper.attachTaps().isOk());

    Receiver receiver(&remote.region, &remote.layout);

    // Handshake needs both ends active: receiver first (it blocks on
    // Hello), then shipper.
    std::thread adopting([&] { ASSERT_TRUE(receiver.adopt(sv[1]).isOk()); });
    ASSERT_TRUE(shipper.handshake(sv[0]).isOk());
    adopting.join();

    // A mixed stream: payload-free, payload-carrying, fd event.
    const char note[] = "remote payload";
    leader.publish(0, syscallEvent(1, 39 /*getpid*/, 4242));
    leader.publish(0, syscallEvent(2, 0 /*read*/, sizeof(note)), note,
                   sizeof(note));
    ring::Event fd_event = syscallEvent(3, 2 /*open*/, 7);
    fd_event.flags |= ring::kFdTransfer;
    leader.publish(0, fd_event);

    EXPECT_EQ(shipper.pumpOnce(), 3u);
    EXPECT_EQ(receiver.serveOnce(1000), 1);

    auto events = remote.drain(0);
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].nr, 39);
    EXPECT_EQ(events[0].result, 4242);
    EXPECT_EQ(events[1].nr, 0);
    ASSERT_TRUE(events[1].hasPayload());
    EXPECT_EQ(events[1].payload_size, sizeof(note));
    shmem::ShardedPool pool = remote.layout.pool(&remote.region);
    EXPECT_EQ(std::memcmp(pool.pointer(events[1].payload, sizeof(note)),
                          note, sizeof(note)),
              0);
    // Descriptor transfer is virtualised across the wire.
    EXPECT_FALSE(events[2].transfersFd());

    EXPECT_EQ(receiver.stats().events, 3u);
    EXPECT_EQ(receiver.stats().corrupt_frames, 0u);
    // The fd event is an ack point: a credit went back immediately.
    EXPECT_GE(receiver.stats().credits_sent, 1u);

    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(WireShipTest, CorruptFrameDropsLink)
{
    FakeLeader leader;
    FakeRemote remote;
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

    Shipper shipper(&leader.region, &leader.layout);
    ASSERT_TRUE(shipper.attachTaps().isOk());
    Receiver receiver(&remote.region, &remote.layout);
    std::thread adopting([&] { ASSERT_TRUE(receiver.adopt(sv[1]).isOk()); });
    ASSERT_TRUE(shipper.handshake(sv[0]).isOk());
    adopting.join();

    // A frame whose checksum does not match its body.
    ring::Event event = syscallEvent(1, 39, 0);
    FrameHeader header = makeHeader(FrameType::Events, sizeof(event));
    header.tuple = 0;
    header.seq = 0;
    header.count = 1;
    header.body_crc = bodyChecksum(&event, sizeof(event)) ^ 0xdead;
    ASSERT_EQ(::send(sv[0], &header, sizeof(header), 0),
              static_cast<ssize_t>(sizeof(header)));
    ASSERT_EQ(::send(sv[0], &event, sizeof(event), 0),
              static_cast<ssize_t>(sizeof(event)));

    EXPECT_EQ(receiver.serveOnce(1000), -1);
    EXPECT_FALSE(receiver.linkUp());
    EXPECT_EQ(receiver.stats().corrupt_frames, 1u);
    EXPECT_EQ(receiver.stats().events, 0u);
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(WireShipTest, TruncatedFrameDropsLink)
{
    FakeLeader leader;
    FakeRemote remote;
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

    Shipper shipper(&leader.region, &leader.layout);
    ASSERT_TRUE(shipper.attachTaps().isOk());
    Receiver receiver(&remote.region, &remote.layout);
    std::thread adopting([&] { ASSERT_TRUE(receiver.adopt(sv[1]).isOk()); });
    ASSERT_TRUE(shipper.handshake(sv[0]).isOk());
    adopting.join();

    // Announce a 2-event frame but deliver half an event, then hang up.
    ring::Event event = syscallEvent(1, 39, 0);
    FrameHeader header = makeHeader(
        FrameType::Events, 2 * sizeof(ring::Event));
    header.tuple = 0;
    header.count = 2;
    header.body_crc = 0;
    ASSERT_EQ(::send(sv[0], &header, sizeof(header), 0),
              static_cast<ssize_t>(sizeof(header)));
    ASSERT_EQ(::send(sv[0], &event, sizeof(event) / 2, 0),
              static_cast<ssize_t>(sizeof(event) / 2));
    ::close(sv[0]);

    EXPECT_EQ(receiver.serveOnce(1000), -1);
    EXPECT_FALSE(receiver.linkUp());
    EXPECT_EQ(receiver.stats().events, 0u);
    ::close(sv[1]);
}

TEST(WireShipTest, HandshakeCarriesPoolStats)
{
    FakeLeader leader;
    FakeRemote remote;

    // Put visible pressure on tuple 0's arena before the handshake.
    shmem::ShardedPool pool = leader.layout.pool(&leader.region);
    ASSERT_NE(pool.allocate(0, 1000, 1), 0u);
    ASSERT_NE(pool.allocate(0, 1000, 1), 0u);

    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    Shipper shipper(&leader.region, &leader.layout);
    ASSERT_TRUE(shipper.attachTaps().isOk());
    Receiver receiver(&remote.region, &remote.layout);
    std::thread adopting([&] { ASSERT_TRUE(receiver.adopt(sv[1]).isOk()); });
    ASSERT_TRUE(shipper.handshake(sv[0]).isOk());
    adopting.join();

    const HelloBody &hello = receiver.remoteHello();
    EXPECT_EQ(hello.ring_capacity, kCap);
    EXPECT_EQ(hello.max_tuples, core::kMaxTuples);
    EXPECT_EQ(hello.pool.num_shards, core::kMaxTuples);
    EXPECT_EQ(hello.pool.shard[0].live_chunks, 2u);
    EXPECT_GT(hello.pool.shard[0].bytes_carved, 0u);
    EXPECT_GT(hello.pool.shard[0].free_chunks, 0u);
    EXPECT_EQ(hello.pool.shard[1].live_chunks, 0u);
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(WireShipTest, LinkDropFailoverRetransmitsWithoutLossOrDup)
{
    FakeLeader leader;
    FakeRemote remote;

    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

    Shipper::Options ship_opts;
    ship_opts.ship_batch = 4;
    Shipper shipper(&leader.region, &leader.layout, ship_opts);
    ASSERT_TRUE(shipper.attachTaps().isOk());

    Receiver::Options recv_opts;
    recv_opts.credit_every = 4; // ack the first frame promptly
    Receiver receiver(&remote.region, &remote.layout, recv_opts);
    std::thread adopting([&] { ASSERT_TRUE(receiver.adopt(sv[1]).isOk()); });
    ASSERT_TRUE(shipper.handshake(sv[0]).isOk());
    adopting.join();

    // First frame lands and is credited.
    for (std::uint64_t i = 0; i < 4; ++i)
        leader.publish(0, syscallEvent(i + 1, 39, 100 + i));
    EXPECT_EQ(shipper.pumpOnce(), 4u);
    EXPECT_EQ(receiver.serveOnce(1000), 1);
    EXPECT_EQ(receiver.stats().credits_sent, 1u);

    // The link dies mid-batch: a second frame is shipped but the
    // receiver never sees it.
    for (std::uint64_t i = 4; i < 6; ++i)
        leader.publish(0, syscallEvent(i + 1, 39, 100 + i));
    ::close(sv[1]); // remote end gone
    shipper.pumpOnce();
    // The write may only fail once the kernel notices; pump again.
    shipper.pumpOnce();
    EXPECT_FALSE(shipper.linkUp());
    ::close(sv[0]);

    // More events pile up while the link is down (buffered, unacked).
    for (std::uint64_t i = 6; i < 9; ++i)
        leader.publish(0, syscallEvent(i + 1, 39, 100 + i));
    shipper.pumpOnce();

    // Failover: a replacement socket, re-handshake, retransmit.
    int sv2[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv2), 0);
    std::thread readopting(
        [&] { ASSERT_TRUE(receiver.adopt(sv2[1]).isOk()); });
    ASSERT_TRUE(shipper.reconnect(sv2[0]).isOk());
    readopting.join();
    EXPECT_GE(shipper.stats().reconnects, 1u);
    EXPECT_GE(receiver.stats().reconnects, 1u);

    while (receiver.serveOnce(200) > 0) {
    }

    // Exactly events 1..9, in order, no duplicates, no holes.
    auto events = remote.drain(0);
    ASSERT_EQ(events.size(), 9u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].timestamp, i + 1);
        EXPECT_EQ(events[i].result,
                  static_cast<std::int64_t>(100 + i));
    }
    EXPECT_EQ(receiver.nextSeq(0), 9u);
    ::close(sv2[0]);
    ::close(sv2[1]);
}

TEST(WireEndToEndTest, RemoteFollowerConsumesLiveStream)
{
    // The real thing: a leader engine ships its rings through a socket
    // to a Receiver feeding an external-leader engine whose follower
    // replays the stream through the unmodified dispatch loop —
    // payloads, descriptor events, thread tuples and the exit.
    int pipe_fds[2];
    ASSERT_EQ(::pipe(pipe_fds), 0);

    auto app = [pipe_fds]() -> int {
        long pid = sys::vgetpid();
        long fd = sys::vopen("/dev/null", 0 /*O_RDONLY*/);
        char buf[32] = {};
        sys::vread(static_cast<int>(fd), buf, sizeof(buf));
        sys::vclose(static_cast<int>(fd));
        sys::vwrite(pipe_fds[1], "wire", 4);
        long t = 0;
        sys::vtime(&t);
        return static_cast<int>((pid ^ t) & 0x3f);
    };

    const std::string endpoint =
        "varan-wire-e2e-" + std::to_string(::getpid());
    auto listening = netio::listenAbstract(endpoint);
    ASSERT_TRUE(listening.ok());

    // Remote node: external-leader engine + receiver.
    core::EngineConfig remote_config;
    remote_config.ring.capacity = 128;
    remote_config.shm_bytes = 16 << 20;
    remote_config.external_leader = true;
    remote_config.ring.progress_timeout_ns = 20000000000ULL;
    core::Nvx remote_nvx(remote_config);
    ASSERT_TRUE(remote_nvx.start({app}).isOk());
    Receiver receiver(remote_nvx.region(), &remote_nvx.layout());

    std::thread accepting([&] {
        long conn = netio::acceptConnection(listening.value(), false);
        ASSERT_GE(conn, 0);
        ASSERT_TRUE(receiver.adopt(static_cast<int>(conn)).isOk());
        receiver.start();
    });

    // Leader node: ordinary engine with remote shipping on.
    int live_status = 0;
    {
        core::EngineConfig config;
        config.ring.capacity = 128;
        config.shm_bytes = 16 << 20;
        config.remote.endpoint = endpoint;
        config.tuning.ship_batch = 8;
        core::Nvx nvx(config);
        ASSERT_TRUE(nvx.start({app}).isOk());
        auto results = nvx.waitFor(30000000000ULL);
        ASSERT_EQ(results.size(), 1u);
        ASSERT_FALSE(results[0].crashed);
        live_status = results[0].status;
        ASSERT_GT(nvx.shipper()->stats().events, 0u);
    }
    accepting.join();

    auto remote_results = remote_nvx.waitFor(30000000000ULL);
    ASSERT_TRUE(receiver.finish().isOk());
    ASSERT_EQ(remote_results.size(), 1u);
    EXPECT_FALSE(remote_results[0].crashed);
    // Bit-exact replay: the remote follower reproduces pid ^ time.
    EXPECT_EQ(remote_results[0].status, live_status);

    // The pipe write happened exactly once (on the leader node).
    char buf[8] = {};
    EXPECT_EQ(::read(pipe_fds[0], buf, 4), 4);
    EXPECT_STREQ(buf, "wire");

    EXPECT_GT(receiver.stats().events, 0u);
    EXPECT_GT(receiver.stats().payload_bytes, 0u);
    EXPECT_EQ(receiver.stats().corrupt_frames, 0u);
    EXPECT_GT(receiver.remoteHello().ring_capacity, 0u);

    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    sys::vclose(static_cast<int>(listening.value()));
}

TEST(WireEndToEndTest, ReceiverRecordsAdoptedStreamToLog)
{
    // Same wire path as above, but the receiver doubles as a recorder:
    // Options::record_path sinks every adopted event into an rr log v2
    // capture that readLog() accepts cleanly afterwards.
    auto app = []() -> int {
        for (int i = 0; i < 10; ++i)
            sys::vgetpid();
        long fd = sys::vopen("/dev/null", 0 /*O_RDONLY*/);
        char buf[16] = {};
        sys::vread(static_cast<int>(fd), buf, sizeof(buf));
        sys::vclose(static_cast<int>(fd));
        return 11;
    };

    const std::string endpoint =
        "varan-wire-rec-" + std::to_string(::getpid());
    const std::string log_path =
        "/tmp/varan-wire-rrlog-" + std::to_string(::getpid()) + ".log";
    auto listening = netio::listenAbstract(endpoint);
    ASSERT_TRUE(listening.ok());

    core::EngineConfig remote_config;
    remote_config.ring.capacity = 128;
    remote_config.shm_bytes = 16 << 20;
    remote_config.external_leader = true;
    remote_config.ring.progress_timeout_ns = 20000000000ULL;
    core::Nvx remote_nvx(remote_config);
    ASSERT_TRUE(remote_nvx.start({app}).isOk());
    Receiver::Options options;
    options.record_path = log_path;
    Receiver receiver(remote_nvx.region(), &remote_nvx.layout(), options);

    std::thread accepting([&] {
        long conn = netio::acceptConnection(listening.value(), false);
        ASSERT_GE(conn, 0);
        ASSERT_TRUE(receiver.adopt(static_cast<int>(conn)).isOk());
        receiver.start();
    });

    {
        core::EngineConfig config;
        config.ring.capacity = 128;
        config.shm_bytes = 16 << 20;
        config.remote.endpoint = endpoint;
        config.tuning.ship_batch = 8;
        core::Nvx nvx(config);
        ASSERT_TRUE(nvx.start({app}).isOk());
        auto results = nvx.waitFor(30000000000ULL);
        ASSERT_EQ(results.size(), 1u);
        ASSERT_FALSE(results[0].crashed);
    }
    accepting.join();

    auto remote_results = remote_nvx.waitFor(30000000000ULL);
    ASSERT_TRUE(receiver.finish().isOk());
    ASSERT_EQ(remote_results.size(), 1u);
    EXPECT_EQ(remote_results[0].status, 11);

    // Every event the receiver published also reached the capture, and
    // the capture parses as a clean v2 log.
    const Receiver::Stats stats = receiver.stats();
    EXPECT_EQ(stats.log_errno, 0);
    EXPECT_GT(stats.logged_events, 0u);
    EXPECT_EQ(stats.logged_events, stats.events);

    auto log = rr::readLog(log_path);
    ASSERT_TRUE(log.ok());
    EXPECT_EQ(log.value().version, rr::kLogVersion);
    EXPECT_FALSE(log.value().truncated);
    ASSERT_EQ(log.value().records.size(), stats.logged_events);
    bool saw_payload = false;
    for (const auto &record : log.value().records)
        saw_payload = saw_payload || !record.payload.empty();
    EXPECT_TRUE(saw_payload); // the vread result rode along

    ::unlink(log_path.c_str());
    sys::vclose(static_cast<int>(listening.value()));
}

// --- epoch reconciliation (protocol v3) --------------------------------

TEST(WireEpochTest, HandshakeCarriesEpochStamp)
{
    FakeLeader leader;
    FakeRemote remote;
    core::ControlBlock *lcb = leader.layout.controlBlock(&leader.region);
    lcb->epoch.store(3, std::memory_order_release);

    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    Shipper shipper(&leader.region, &leader.layout);
    ASSERT_TRUE(shipper.attachTaps().isOk());
    Receiver receiver(&remote.region, &remote.layout);
    std::thread adopting([&] { ASSERT_TRUE(receiver.adopt(sv[1]).isOk()); });
    ASSERT_TRUE(shipper.handshake(sv[0]).isOk());
    adopting.join();

    EXPECT_EQ(receiver.remoteHello().engine_epoch, 3u);
    // A live leader publishes stream generation 1 (layout init).
    EXPECT_EQ(receiver.remoteHello().stream_generation, 1u);
    // The adopted stamp is mirrored into the receiving node's control
    // block, so its own StatusReport names the stream it consumes.
    core::StatusReport local = receiver.localStatus();
    EXPECT_EQ(local.epoch, 3u);
    EXPECT_EQ(local.stream_generation, 1u);
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(WireEpochTest, ReceiverSurvivesTwoLeaderGenerations)
{
    // A receiver outlives its leader node: generation 1 ships a
    // prefix, dies; a promoted node (generation 2, same logical
    // stream, taps attached at the materialized position) takes over.
    // The receiver must rebase and resume with no loss and no
    // duplication.
    FakeRemote remote;
    Receiver receiver(&remote.region, &remote.layout);

    {
        FakeLeader first;
        int sv[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
        Shipper shipper(&first.region, &first.layout);
        ASSERT_TRUE(shipper.attachTaps().isOk());
        std::thread adopting(
            [&] { ASSERT_TRUE(receiver.adopt(sv[1]).isOk()); });
        ASSERT_TRUE(shipper.handshake(sv[0]).isOk());
        adopting.join();

        for (std::uint64_t i = 0; i < 6; ++i)
            first.publish(0, syscallEvent(i + 1, 39, 100 + i));
        EXPECT_EQ(shipper.pumpOnce(), 6u);
        EXPECT_EQ(receiver.serveOnce(1000), 1);
        EXPECT_EQ(receiver.nextSeq(0), 6u);

        // The leader node dies: no Bye, the link just goes away.
        ::close(sv[0]);
        ::close(sv[1]);
    }

    // The promoted node: it materialized the same 6-event prefix
    // before taking over (its rings hold the stream up to there), its
    // epoch and generation are bumped, and its shipper taps attach at
    // the promotion point — exactly what Receiver promotion produces.
    FakeLeader promoted;
    core::ControlBlock *pcb =
        promoted.layout.controlBlock(&promoted.region);
    pcb->epoch.store(1, std::memory_order_release);
    pcb->stream_generation.store(2, std::memory_order_release);
    for (std::uint64_t i = 0; i < 6; ++i)
        promoted.publish(0, syscallEvent(i + 1, 39, 100 + i));

    Shipper shipper2(&promoted.region, &promoted.layout);
    ASSERT_TRUE(shipper2.attachTaps().isOk()); // floor = 6, not 0
    for (std::uint64_t i = 6; i < 10; ++i)
        promoted.publish(0, syscallEvent(i + 1, 39, 100 + i));

    int sv2[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv2), 0);
    std::thread readopting(
        [&] { ASSERT_TRUE(receiver.adopt(sv2[1]).isOk()); });
    ASSERT_TRUE(shipper2.handshake(sv2[0]).isOk());
    readopting.join();

    EXPECT_EQ(shipper2.pumpOnce(), 4u);
    while (receiver.serveOnce(200) > 0) {
    }

    // Exactly events 1..10, in order: the generation-1 prefix plus the
    // generation-2 suffix, nothing twice, nothing missing.
    auto events = remote.drain(0);
    ASSERT_EQ(events.size(), 10u);
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].timestamp, i + 1);
    EXPECT_EQ(receiver.nextSeq(0), 10u);
    EXPECT_EQ(receiver.stats().rebases, 1u);
    EXPECT_EQ(receiver.stats().duplicates_dropped, 0u);
    core::StatusReport local = receiver.localStatus();
    EXPECT_EQ(local.stream_generation, 2u);
    EXPECT_EQ(local.epoch, 1u);
    ::close(sv2[0]);
    ::close(sv2[1]);
}

TEST(WireEpochTest, StaleGenerationHelloRejectedWithDecodableError)
{
    // A resurrected pre-failover leader (stream generation 1) knocks
    // on a receiver that already reconciled against generation 2: the
    // receiver must refuse with an Error frame the shipper can decode,
    // not silently rewind the stream.
    FakeRemote remote;
    Receiver receiver(&remote.region, &remote.layout);

    FakeLeader current;
    current.layout.controlBlock(&current.region)
        ->stream_generation.store(2, std::memory_order_release);
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    Shipper shipper(&current.region, &current.layout);
    ASSERT_TRUE(shipper.attachTaps().isOk());
    std::thread adopting([&] { ASSERT_TRUE(receiver.adopt(sv[1]).isOk()); });
    ASSERT_TRUE(shipper.handshake(sv[0]).isOk());
    adopting.join();

    FakeLeader stale; // default: generation 1
    int sv2[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv2), 0);
    Shipper stale_shipper(&stale.region, &stale.layout);
    ASSERT_TRUE(stale_shipper.attachTaps().isOk());
    Status adopt_status = Status::ok();
    std::thread rejecting([&] { adopt_status = receiver.adopt(sv2[1]); });
    Status shaken = stale_shipper.handshake(sv2[0]);
    rejecting.join();

    EXPECT_FALSE(shaken.isOk());
    EXPECT_FALSE(adopt_status.isOk());
    ErrorBody error = stale_shipper.lastError();
    EXPECT_EQ(error.code,
              static_cast<std::uint32_t>(WireError::StaleGeneration));
    EXPECT_EQ(error.local_generation, 2u); // what the receiver holds
    EXPECT_EQ(error.peer_generation, 1u);  // what the stale side offered
    EXPECT_EQ(receiver.stats().errors_sent, 1u);
    EXPECT_EQ(stale_shipper.stats().errors_received, 1u);
    // The live link is untouched by the rejected knock.
    EXPECT_TRUE(shipper.linkUp());
    ::close(sv[0]);
    ::close(sv[1]);
    ::close(sv2[0]);
    ::close(sv2[1]);
}

// --- one shipper, N receivers ------------------------------------------

TEST(WireFanOutTest, TwoReceiversBothGetTheStream)
{
    FakeLeader leader;
    FakeRemote remote_a;
    FakeRemote remote_b;

    int sva[2], svb[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sva), 0);
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, svb), 0);

    Shipper::Options ship_opts;
    ship_opts.ship_batch = 4;
    Shipper shipper(&leader.region, &leader.layout, ship_opts);
    ASSERT_TRUE(shipper.attachTaps().isOk());

    Receiver receiver_a(&remote_a.region, &remote_a.layout);
    Receiver receiver_b(&remote_b.region, &remote_b.layout);
    std::thread adopt_a(
        [&] { ASSERT_TRUE(receiver_a.adopt(sva[1]).isOk()); });
    ASSERT_TRUE(shipper.addPeer(sva[0]).isOk());
    adopt_a.join();
    std::thread adopt_b(
        [&] { ASSERT_TRUE(receiver_b.adopt(svb[1]).isOk()); });
    ASSERT_TRUE(shipper.addPeer(svb[0]).isOk());
    adopt_b.join();
    EXPECT_EQ(shipper.peerCount(), 2u);

    const char note[] = "fan-out payload";
    for (std::uint64_t i = 0; i < 11; ++i)
        leader.publish(0, syscallEvent(i + 1, 39, 100 + i));
    leader.publish(0, syscallEvent(12, 0 /*read*/, sizeof(note)), note,
                   sizeof(note));
    while (shipper.pumpOnce() > 0) {
    }
    while (receiver_a.serveOnce(200) > 0) {
    }
    while (receiver_b.serveOnce(200) > 0) {
    }

    for (FakeRemote *remote : {&remote_a, &remote_b}) {
        auto events = remote->drain(0);
        ASSERT_EQ(events.size(), 12u);
        for (std::size_t i = 0; i < events.size(); ++i)
            EXPECT_EQ(events[i].timestamp, i + 1);
        ASSERT_TRUE(events[11].hasPayload());
        shmem::ShardedPool pool = remote->layout.pool(&remote->region);
        EXPECT_EQ(std::memcmp(pool.pointer(events[11].payload,
                                           sizeof(note)),
                              note, sizeof(note)),
                  0);
    }
    EXPECT_EQ(receiver_a.stats().events, 12u);
    EXPECT_EQ(receiver_b.stats().events, 12u);
    // Events are drained (and counted) once, transmitted per peer.
    EXPECT_EQ(shipper.stats().events, 12u);
    EXPECT_EQ(shipper.stats().peers, 2u);

    ::close(sva[0]);
    ::close(sva[1]);
    ::close(svb[0]);
    ::close(svb[1]);
}

TEST(WireFanOutTest, StalledPeerDoesNotGateTheOther)
{
    // Peer B stops serving (no credits) while peer A keeps consuming:
    // A must receive the whole stream — the drain is gated by the
    // *fastest* peer — and B is eventually evicted as hopelessly
    // behind instead of pinning the retransmit buffer forever.
    FakeLeader leader;
    FakeRemote remote_a;
    FakeRemote remote_b;

    int sva[2], svb[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sva), 0);
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, svb), 0);

    Shipper::Options ship_opts;
    ship_opts.ship_batch = 8;
    ship_opts.credit_window = 8;
    ship_opts.retain_limit = 16;
    Shipper shipper(&leader.region, &leader.layout, ship_opts);
    ASSERT_TRUE(shipper.attachTaps().isOk());

    Receiver::Options prompt_credits;
    prompt_credits.credit_every = 4;
    Receiver receiver_a(&remote_a.region, &remote_a.layout,
                        prompt_credits);
    Receiver receiver_b(&remote_b.region, &remote_b.layout);
    std::thread adopt_a(
        [&] { ASSERT_TRUE(receiver_a.adopt(sva[1]).isOk()); });
    ASSERT_TRUE(shipper.addPeer(sva[0]).isOk());
    adopt_a.join();
    std::thread adopt_b(
        [&] { ASSERT_TRUE(receiver_b.adopt(svb[1]).isOk()); });
    ASSERT_TRUE(shipper.addPeer(svb[0]).isOk());
    adopt_b.join();

    // B never serves another frame from here on.
    std::uint64_t published = 0;
    for (int round = 0; round < 16; ++round) {
        for (int i = 0; i < 4; ++i)
            leader.publish(0, syscallEvent(++published, 39, 0));
        shipper.pumpOnce();
        receiver_a.serveOnce(200);
        shipper.pumpOnce(); // deliver A's credits, re-open the window
    }
    while (shipper.pumpOnce() > 0) {
    }
    while (receiver_a.serveOnce(200) > 0) {
    }

    // A saw everything, in order, despite B's stall.
    auto events = remote_a.drain(0);
    ASSERT_EQ(events.size(), published);
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].timestamp, i + 1);

    // B fell past retain_limit and was evicted.
    EXPECT_EQ(shipper.stats().peers_evicted, 1u);
    EXPECT_EQ(shipper.peerCount(), 1u);
    EXPECT_LT(receiver_b.stats().events, published);

    ::close(sva[0]);
    ::close(sva[1]);
    ::close(svb[0]);
    ::close(svb[1]);
}

// --- publish-driven pump wake -------------------------------------------

/** A leader, a remote node and a handshaken shipper/receiver pair over
 *  a socketpair. */
struct WakePair {
    FakeLeader leader;
    FakeRemote remote;
    int sv[2] = {-1, -1};
    std::unique_ptr<Shipper> shipper;
    std::unique_ptr<Receiver> receiver;

    explicit WakePair(Shipper::Options options)
    {
        VARAN_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0);
        shipper = std::make_unique<Shipper>(&leader.region, &leader.layout,
                                            options);
        VARAN_CHECK(shipper->attachTaps().isOk());
        receiver = std::make_unique<Receiver>(&remote.region, &remote.layout);
        std::thread adopting(
            [this] { VARAN_CHECK(receiver->adopt(sv[1]).isOk()); });
        VARAN_CHECK(shipper->handshake(sv[0]).isOk());
        adopting.join();
    }

    ~WakePair()
    {
        ::close(sv[0]);
        ::close(sv[1]);
    }

    ring::RingBuffer
    leaderRing()
    {
        return leader.layout.tupleRing(&leader.region, 0);
    }

    /** Wait until the idle pump sleeps announced in the tap's waitlock
     *  (FakeLeader has no followers: the tap is the ring's only
     *  consumer). */
    bool
    awaitPumpAsleep()
    {
        const std::uint64_t deadline = monotonicNs() + 5000000000ULL;
        while (leaderRing().consumersWaiting() == 0) {
            if (monotonicNs() > deadline)
                return false;
            std::this_thread::yield();
        }
        return true;
    }

    /** Poll the remote ring until @p want events arrived in total;
     *  @return the arrival time (0 on a 5 s timeout). */
    std::uint64_t
    awaitRemote(std::vector<ring::Event> &got, std::size_t want)
    {
        const std::uint64_t deadline = monotonicNs() + 5000000000ULL;
        for (;;) {
            for (const ring::Event &event : remote.drain(0))
                got.push_back(event);
            if (got.size() >= want)
                return monotonicNs();
            if (monotonicNs() > deadline)
                return 0;
            std::this_thread::yield();
        }
    }
};

TEST(WireWakeTest, IdleShipperDeliversAPublishWellUnderTheTick)
{
    // The pump sleeps on the tap ring's waitlock: a publish wakes it,
    // the tick only bounds peer-input polling.
    Shipper::Options options;
    options.tick_ms = 200;
    WakePair pair(options);
    pair.receiver->start();
    pair.shipper->start();

    std::vector<std::uint64_t> latencies;
    std::vector<ring::Event> got;
    for (std::uint64_t i = 1; i <= 20; ++i) {
        ASSERT_TRUE(pair.awaitPumpAsleep());
        const std::uint64_t t0 = monotonicNs();
        pair.leader.publish(0, syscallEvent(i, 39, 0));
        const std::uint64_t arrived = pair.awaitRemote(got, i);
        ASSERT_NE(arrived, 0u) << "event " << i << " never arrived";
        latencies.push_back(arrived - t0);
    }
    std::sort(latencies.begin(), latencies.end());
    const std::uint64_t median = latencies[latencies.size() / 2];
    EXPECT_LT(median, 20000000u) << "median " << median << " ns";
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].timestamp, i + 1);

    ASSERT_TRUE(pair.shipper->finish().isOk());
    ASSERT_TRUE(pair.receiver->finish().isOk());
}

TEST(WireWakeTest, FullBatchShipsAtOnceAndAShortRunLingersUnannounced)
{
    Shipper::Options options;
    options.ship_batch = 8;
    options.tick_ms = 200;
    WakePair pair(options);
    constexpr std::uint64_t kWindowNs = 100000000; // the knob's ceiling
    core::TuningHandle(&pair.leader.layout.controlBlock(&pair.leader.region)
                            ->tuning)
        .set(core::Knob::CoalesceWindowNs, kWindowNs);
    pair.receiver->start();
    pair.shipper->start();

    // A whole ship batch in one commit ships without the linger.
    std::vector<ring::Event> got;
    ASSERT_TRUE(pair.awaitPumpAsleep());
    ring::Event burst[8];
    for (std::uint64_t i = 0; i < 8; ++i)
        burst[i] = syscallEvent(i + 1, 39, 0);
    std::uint64_t t0 = monotonicNs();
    ASSERT_EQ(pair.leaderRing().publishBatch(burst), 8u);
    std::uint64_t arrived = pair.awaitRemote(got, 8);
    ASSERT_NE(arrived, 0u);
    EXPECT_LT(arrived - t0, kWindowNs / 2);

    // A single event wakes the pump, which then lingers for the window
    // to batch what follows. The linger is not announced in the ring's
    // waitlock, so the publishes during it cost the leader no wake.
    ASSERT_TRUE(pair.awaitPumpAsleep());
    const std::uint64_t frames_before = pair.shipper->stats().frames;
    t0 = monotonicNs();
    pair.leader.publish(0, syscallEvent(9, 39, 0));
    const std::uint64_t deadline = t0 + 5000000000ULL;
    while (pair.leaderRing().consumersWaiting() != 0 &&
           monotonicNs() < deadline)
        std::this_thread::yield();
    for (std::uint64_t ts = 10; ts <= 12; ++ts) {
        EXPECT_EQ(pair.leaderRing().consumersWaiting(), 0u);
        pair.leader.publish(0, syscallEvent(ts, 39, 0));
    }
    EXPECT_EQ(pair.shipper->stats().events, 8u) << "shipped mid-linger";
    arrived = pair.awaitRemote(got, 12);
    ASSERT_NE(arrived, 0u);
    EXPECT_GE(arrived - t0, kWindowNs / 2);
    EXPECT_EQ(pair.shipper->stats().frames - frames_before, 1u)
        << "the lingered run should ship as one frame";
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].timestamp, i + 1);

    ASSERT_TRUE(pair.shipper->finish().isOk());
    ASSERT_TRUE(pair.receiver->finish().isOk());
}

TEST(WireWakeTest, PublishAfterAnEmptyPassIsNotMistakenForCreditStall)
{
    // A publish landing between a pass that drained nothing and the
    // idle step is ordinary work: waitForWork() must return for it at
    // once, not wait out a tick for credits that nothing needs.
    Shipper::Options options;
    options.tick_ms = 2000;
    WakePair pair(options);
    ASSERT_EQ(pair.shipper->pumpOnce(), 0u);
    pair.leader.publish(0, syscallEvent(1, 39, 0));
    const std::uint64_t t0 = monotonicNs();
    pair.shipper->waitForWork();
    EXPECT_LT(monotonicNs() - t0, 1000000000u);
    EXPECT_EQ(pair.shipper->pumpOnce(), 1u);
}

TEST(WireWakeTest, CreditGatedBacklogDoesNotSpinThePump)
{
    // The receiver does not serve, so no credit comes back: once the
    // window is full the ring backlog cannot ship, and the pump must
    // wait for peer input instead of re-polling the rings.
    Shipper::Options options;
    options.credit_window = 64;
    options.ship_batch = 16;
    WakePair pair(options);
    std::uint64_t ts = 0;
    for (int i = 0; i < 64; ++i)
        pair.leader.publish(0, syscallEvent(++ts, 39, 0));
    while (pair.shipper->pumpOnce() > 0) {
    }
    for (int i = 0; i < 10; ++i)
        pair.leader.publish(0, syscallEvent(++ts, 39, 0));
    EXPECT_EQ(pair.shipper->pumpOnce(), 0u);
    ASSERT_GT(pair.shipper->stats().credit_stalls, 0u);

    pair.shipper->start();
    const std::uint64_t passes_before = pair.shipper->stats().drain_passes;
    sleepNs(100000000); // 100 ms: five ticks of 20 ms
    const std::uint64_t passes =
        pair.shipper->stats().drain_passes - passes_before;
    EXPECT_LE(passes, 20u) << "the pump spun on a closed credit window";

    // Let credits flow: the backlog ships and the pump shuts down clean.
    // The receiver serves on its own thread while this one drains the
    // 64-slot remote ring, so a frame never waits on a full ring.
    pair.receiver->start();
    std::vector<ring::Event> got;
    ASSERT_NE(pair.awaitRemote(got, ts), 0u);
    EXPECT_EQ(got.size(), ts);
    ASSERT_TRUE(pair.shipper->finish().isOk());
    ASSERT_TRUE(pair.receiver->finish().isOk());
}

// --- shutdown ------------------------------------------------------------

/** A status push on every pump pass, so stats().status_pushes counts
 *  the passes a shutdown makes; an idle pump sleeps until stopped. */
Shipper::Options
pushEveryPass()
{
    Shipper::Options options;
    options.status_push_ns = 1;
    options.tick_ms = 10000;
    return options;
}

TEST(WireShutdownTest, FinishAfterStartRunsOneFinalSweep)
{
    // With nothing left to ship, the final sweep is one pass. A second
    // sweep (the pump thread's exit, then finish() after the join)
    // would hold shutdown for two drain deadlines on a stuck peer.
    WakePair pair(pushEveryPass());
    pair.receiver->start();
    pair.shipper->start();
    ASSERT_TRUE(pair.awaitPumpAsleep());
    const std::uint64_t before = pair.shipper->stats().status_pushes;
    ASSERT_TRUE(pair.shipper->finish().isOk());
    EXPECT_EQ(pair.shipper->stats().status_pushes - before, 1u);
    ASSERT_TRUE(pair.receiver->finish().isOk());
}

TEST(WireShutdownTest, DestructorSweepsWhatFinishWouldHave)
{
    // A hand-driven shipper dropped without finish() still ships what
    // the leader published before it went away.
    WakePair pair(Shipper::Options{});
    pair.receiver->start();
    for (std::uint64_t ts = 1; ts <= 3; ++ts)
        pair.leader.publish(0, syscallEvent(ts, 39, 0));
    pair.shipper.reset();
    std::vector<ring::Event> got;
    ASSERT_NE(pair.awaitRemote(got, 3), 0u);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].timestamp, i + 1);
    ASSERT_TRUE(pair.receiver->finish().isOk());
}

// --- cross-node promotion ----------------------------------------------

TEST(WirePromotionTest, ReceiverPromotesAfterLinkLoss)
{
    // Unit-level promotion: the link dies, nobody reconnects within
    // promote_after, and the receiver elects the local engine's
    // LeaderCandidate — epoch and stream generation bump, leader_id
    // flips, and a resurrected old shipper is refused as stale.
    FakeLeader leader;
    FakeRemote remote;

    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    Shipper shipper(&leader.region, &leader.layout);
    ASSERT_TRUE(shipper.attachTaps().isOk());

    std::atomic<std::uint32_t> promoted_epoch{0};
    std::atomic<std::uint32_t> promoted_leader{0xffffffffu};
    Receiver::Options opts;
    opts.promote_after_ns = 200000000ULL; // 200 ms
    opts.on_promote = [&](std::uint32_t epoch, std::uint32_t leader_id) {
        promoted_epoch.store(epoch);
        promoted_leader.store(leader_id);
    };
    Receiver receiver(&remote.region, &remote.layout, opts);
    std::thread adopting([&] { ASSERT_TRUE(receiver.adopt(sv[1]).isOk()); });
    ASSERT_TRUE(shipper.handshake(sv[0]).isOk());
    adopting.join();

    for (std::uint64_t i = 0; i < 3; ++i)
        leader.publish(0, syscallEvent(i + 1, 39, 0));
    EXPECT_EQ(shipper.pumpOnce(), 3u);
    EXPECT_EQ(receiver.serveOnce(1000), 1);

    receiver.start();
    // The leader node dies: both socket ends vanish, no Bye.
    ::close(sv[0]);
    ::close(sv[1]);

    const std::uint64_t deadline = monotonicNs() + 5000000000ULL;
    while (!receiver.promoted() && monotonicNs() < deadline)
        sleepNs(5000000);
    ASSERT_TRUE(receiver.promoted());

    core::ControlBlock *cb = remote.layout.controlBlock(&remote.region);
    EXPECT_EQ(cb->leader_id.load(std::memory_order_acquire), 0u);
    EXPECT_EQ(cb->epoch.load(std::memory_order_acquire), 1u);
    EXPECT_EQ(cb->stream_generation.load(std::memory_order_acquire), 2u);
    EXPECT_EQ(cb->promotions.load(std::memory_order_acquire), 1u);
    EXPECT_EQ(promoted_epoch.load(), 1u);
    EXPECT_EQ(promoted_leader.load(), 0u);
    core::StatusReport local = receiver.localStatus();
    EXPECT_EQ(local.receiver.promoted, 1u);
    EXPECT_EQ(local.leader, 0u);

    // Promotion is idempotent.
    EXPECT_FALSE(receiver.promoteNow());

    // The dead leader comes back: this node promoted and consumes no
    // stream at all now — the refusal says so decodably.
    int sv2[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv2), 0);
    Status adopt_status = Status::ok();
    std::thread rejecting([&] { adopt_status = receiver.adopt(sv2[1]); });
    Status shaken = shipper.reconnect(sv2[0]);
    rejecting.join();
    EXPECT_FALSE(shaken.isOk());
    EXPECT_FALSE(adopt_status.isOk());
    EXPECT_EQ(shipper.lastError().code,
              static_cast<std::uint32_t>(WireError::PeerNotReceiving));
    EXPECT_EQ(shipper.lastError().local_generation, 2u);

    ASSERT_TRUE(receiver.finish().isOk());
    ::close(sv2[0]);
    ::close(sv2[1]);
}

// --- the coordinator status RPC ----------------------------------------

TEST(WireStatusTest, StatusReportFrameRoundTripBitExact)
{
    // Fill every byte of a StatusReport with a pattern, push it through
    // the wire encoding and back: the decoded struct must be bit-exact.
    core::StatusReport in;
    auto *raw = reinterpret_cast<std::uint8_t *>(&in);
    for (std::size_t i = 0; i < sizeof(in); ++i)
        raw[i] = static_cast<std::uint8_t>(i * 131 + 7);
    in.num_variants = 3;
    in.leader = 1;
    in.events_streamed = 0x0123456789abcdefULL;
    in.variants[2].ring_lag = 42;
    in.shipper.active = 1;

    std::uint8_t frame[kStatusFrameBytes];
    encodeStatusFrame(in, frame);

    FrameHeader header = {};
    std::memcpy(&header, frame, sizeof(header));
    ASSERT_TRUE(headerValid(header));
    ASSERT_EQ(static_cast<FrameType>(header.type), FrameType::Status);
    ASSERT_EQ(header.body_len, sizeof(core::StatusReport));

    core::StatusReport out = {};
    ASSERT_TRUE(decodeStatusFrame(header, frame + sizeof(header),
                                  header.body_len, &out));
    EXPECT_EQ(std::memcmp(&in, &out, sizeof(in)), 0);

    // A flipped body byte must fail the checksum, not decode silently.
    frame[sizeof(header) + 100] ^= 0x40;
    EXPECT_FALSE(decodeStatusFrame(header, frame + sizeof(header),
                                   header.body_len, &out));
}

TEST(WireStatusTest, StatusRequestServedOverSocketpair)
{
    // Receiver sends the empty-body request; the shipper answers with
    // a full report assembled from the shared region + its own stats.
    FakeLeader leader;
    FakeRemote remote;
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

    Shipper shipper(&leader.region, &leader.layout);
    ASSERT_TRUE(shipper.attachTaps().isOk());
    Receiver receiver(&remote.region, &remote.layout);
    std::thread adopting([&] { ASSERT_TRUE(receiver.adopt(sv[1]).isOk()); });
    ASSERT_TRUE(shipper.handshake(sv[0]).isOk());
    adopting.join();

    for (std::uint64_t i = 0; i < 3; ++i)
        leader.publish(0, syscallEvent(i + 1, 39, 0));
    EXPECT_EQ(shipper.pumpOnce(), 3u);
    EXPECT_EQ(receiver.serveOnce(1000), 1);

    ASSERT_TRUE(receiver.requestStatus().isOk());
    EXPECT_EQ(receiver.stats().status_requests, 1u);
    // The shipper's pump delivers the request and writes the reply.
    shipper.pumpOnce();
    EXPECT_EQ(shipper.stats().status_requests_served, 1u);
    EXPECT_EQ(receiver.serveOnce(1000), 1);

    core::StatusReport report = {};
    ASSERT_TRUE(receiver.remoteStatus(&report));
    EXPECT_EQ(receiver.stats().status_reports, 1u);
    EXPECT_EQ(report.num_variants, 1u);
    EXPECT_EQ(report.ring_capacity, kCap);
    EXPECT_EQ(report.shipper.active, 1u);
    EXPECT_EQ(report.shipper.link_up, 1u);
    EXPECT_EQ(report.shipper.events, 3u);
    EXPECT_EQ(report.pool.num_shards, core::kMaxTuples);
    EXPECT_EQ(report.receiver.active, 0u); // filled by the remote side

    // The receiving node's own consolidated report: local engine state
    // plus this receiver's wire section (counterpart of Nvx::status()).
    core::StatusReport local = receiver.localStatus();
    EXPECT_EQ(local.receiver.active, 1u);
    EXPECT_EQ(local.receiver.link_up, 1u);
    EXPECT_EQ(local.receiver.events, receiver.stats().events);
    EXPECT_EQ(local.receiver.credits_sent, receiver.stats().credits_sent);
    EXPECT_EQ(local.shipper.active, 0u);
    EXPECT_EQ(local.ring_capacity, kCap);

    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(WireEndToEndTest, StatusRpcMatchesLiveLeaderGetters)
{
    // The acceptance scenario: a remote node requests the coordinator
    // status over the wire while the leader engine runs; the decoded
    // StatusReport's counters must match the leader's live getters.
    int gate[2];
    ASSERT_EQ(::pipe(gate), 0);

    auto app = [gate]() -> int {
        for (int i = 0; i < 6; ++i)
            sys::vgetpid();
        long fd = sys::vopen("/dev/null", 0 /*O_RDONLY*/);
        char buf[8] = {};
        sys::vread(static_cast<int>(fd), buf, sizeof(buf));
        sys::vclose(static_cast<int>(fd));
        char go = 0;
        sys::vread(gate[0], &go, 1); // parks the leader, stream quiesces
        return 0;
    };

    const std::string endpoint =
        "varan-wire-status-" + std::to_string(::getpid());
    auto listening = netio::listenAbstract(endpoint);
    ASSERT_TRUE(listening.ok());

    core::EngineConfig remote_config;
    remote_config.ring.capacity = 128;
    remote_config.shm_bytes = 16 << 20;
    remote_config.external_leader = true;
    remote_config.ring.progress_timeout_ns = 20000000000ULL;
    core::Nvx remote_nvx(remote_config);
    ASSERT_TRUE(remote_nvx.start({core::VariantSpec(app)}).isOk());
    Receiver receiver(remote_nvx.region(), &remote_nvx.layout());

    std::thread accepting([&] {
        long conn = netio::acceptConnection(listening.value(), false);
        ASSERT_GE(conn, 0);
        ASSERT_TRUE(receiver.adopt(static_cast<int>(conn)).isOk());
        receiver.start();
    });

    core::EngineConfig config;
    config.ring.capacity = 128;
    config.shm_bytes = 16 << 20;
    config.remote.endpoint = endpoint;
    config.tuning.ship_batch = 8;
    core::Nvx nvx(config);
    ASSERT_TRUE(nvx.start({core::VariantSpec(app).named("leader")}).isOk());

    // Let the leader publish its pre-gate stream (9 syscall events),
    // then request the status while everything is quiescent.
    std::uint64_t deadline = monotonicNs() + 10000000000ULL;
    while (nvx.eventsStreamed() < 9 && monotonicNs() < deadline)
        sleepNs(1000000);
    ASSERT_GE(nvx.eventsStreamed(), 9u);
    // ...and the shipper drain them, so the report's wire section is
    // deterministic when the snapshot is taken.
    while (nvx.shipper()->stats().events < 9 && monotonicNs() < deadline)
        sleepNs(1000000);
    ASSERT_GE(nvx.shipper()->stats().events, 9u);
    while (!receiver.linkUp() && monotonicNs() < deadline)
        sleepNs(1000000);
    ASSERT_TRUE(receiver.linkUp());

    ASSERT_TRUE(receiver.requestStatus().isOk());
    core::StatusReport report = {};
    while (!receiver.remoteStatus(&report) && monotonicNs() < deadline)
        sleepNs(1000000);
    ASSERT_TRUE(receiver.remoteStatus(&report)) << "no status reply";

    // The RPC's counters agree with the leader's live getters.
    EXPECT_EQ(report.events_streamed, nvx.eventsStreamed());
    EXPECT_EQ(report.divergences_resolved, nvx.divergencesResolved());
    EXPECT_EQ(report.divergences_fatal, nvx.divergencesFatal());
    EXPECT_EQ(report.fd_transfers, nvx.fdTransfers());
    EXPECT_EQ(report.leader,
              static_cast<std::uint32_t>(nvx.currentLeader()));
    EXPECT_EQ(report.epoch, nvx.epoch());
    EXPECT_EQ(report.num_variants, 1u);
    EXPECT_EQ(report.ring_capacity, 128u);
    EXPECT_EQ(report.variants[0].state,
              static_cast<std::uint32_t>(core::VariantState::Running));
    EXPECT_EQ(report.shipper.active, 1u);
    EXPECT_GT(report.shipper.events, 0u);
    EXPECT_EQ(report.pool.spills, nvx.poolSpills());

    // Release the leader and drain both engines.
    ASSERT_EQ(::write(gate[1], "gg", 2), 2);
    auto results = nvx.waitFor(30000000000ULL);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].crashed);
    accepting.join();
    auto remote_results = remote_nvx.waitFor(30000000000ULL);
    ASSERT_TRUE(receiver.finish().isOk());
    ASSERT_EQ(remote_results.size(), 1u);
    EXPECT_FALSE(remote_results[0].crashed);

    ::close(gate[0]);
    ::close(gate[1]);
    sys::vclose(static_cast<int>(listening.value()));
}

TEST(WireEndToEndTest, CrossNodePromotionAfterLeaderNodeDeath)
{
    // The acceptance scenario for cross-node failover: a leader node
    // (run in a forked child so it can be SIGKILLed like a real node
    // loss) fans its stream out to two receiver nodes. Mid-stream the
    // leader node dies. Receiver node 1 promotes within promote_after:
    // its local variant is elected, continues executing from the exact
    // replay point, and ships the promoted stream (bumped epoch +
    // generation) to the surviving node 2 — which reconciles against
    // the new generation and replays to completion without loss or
    // duplication.
    int gate[2];
    ASSERT_EQ(::pipe(gate), 0);

    auto app = [gate]() -> int {
        for (int i = 0; i < 8; ++i)
            sys::vgetpid();
        char go = 0;
        sys::vread(gate[0], &go, 1); // parks the leader mid-stream
        for (int i = 0; i < 4; ++i)
            sys::vgetpid();
        return 42;
    };

    const std::string ep1 =
        "varan-wire-promote1-" + std::to_string(::getpid());
    const std::string ep2 =
        "varan-wire-promote2-" + std::to_string(::getpid());
    auto listening1 = netio::listenAbstract(ep1);
    auto listening2 = netio::listenAbstract(ep2);
    ASSERT_TRUE(listening1.ok());
    ASSERT_TRUE(listening2.ok());

    // The leader node: a separate process, so killing it takes down
    // its coordinator, zygote, variant and shipper at once — a node
    // loss, not an orderly Bye. Forked before any engine or thread
    // exists in this process.
    pid_t leader_node = ::fork();
    ASSERT_GE(leader_node, 0);
    if (leader_node == 0) {
        core::EngineConfig config;
        config.ring.capacity = 128;
        config.shm_bytes = 16 << 20;
        config.remote.endpoints = {ep1, ep2};
        config.tuning.ship_batch = 8;
        core::Nvx nvx(config);
        if (!nvx.start({core::VariantSpec(app).named("leader")}).isOk())
            ::_exit(1);
        nvx.wait(); // parked on the gate until killed
        ::_exit(0);
    }

    // Receiver node 1: external-leader engine, promotion armed, node 2
    // configured as the standby peer of the post-promotion stream.
    core::EngineConfig remote_config;
    remote_config.ring.capacity = 128;
    remote_config.shm_bytes = 16 << 20;
    remote_config.external_leader = true;
    remote_config.ring.progress_timeout_ns = 20000000000ULL;
    core::Nvx remote1(remote_config);
    ASSERT_TRUE(
        remote1.start({core::VariantSpec(app).named("standby1")}).isOk());
    std::atomic<std::uint32_t> promoted_epoch{0};
    Receiver::Options r1_opts;
    r1_opts.promote_after_ns = 500000000ULL; // 500 ms
    r1_opts.standby_peers = {ep2};
    r1_opts.promoted_ship.ship_batch = 8;
    r1_opts.on_promote = [&](std::uint32_t epoch, std::uint32_t) {
        promoted_epoch.store(epoch);
    };
    Receiver receiver1(remote1.region(), &remote1.layout(), r1_opts);

    // Receiver node 2: a plain observer that must survive both leader
    // generations.
    core::Nvx remote2(remote_config);
    ASSERT_TRUE(
        remote2.start({core::VariantSpec(app).named("standby2")}).isOk());
    Receiver receiver2(remote2.region(), &remote2.layout());

    // Both leader links run through FaultLink proxies: "node death"
    // below is a scripted frame-boundary cut, not a race against the
    // kernel tearing down a SIGKILLed process's sockets.
    ASSERT_TRUE(netio::waitReadable(
        static_cast<int>(listening1.value()), 15000));
    long conn1 = netio::acceptConnection(
        static_cast<int>(listening1.value()), false);
    ASSERT_GE(conn1, 0);
    testing::FaultLink link1(static_cast<int>(conn1));
    ASSERT_TRUE(receiver1.adopt(link1.releaseB()).isOk());
    receiver1.start();
    ASSERT_TRUE(netio::waitReadable(
        static_cast<int>(listening2.value()), 15000));
    long conn2 = netio::acceptConnection(
        static_cast<int>(listening2.value()), false);
    ASSERT_GE(conn2, 0);
    testing::FaultLink link2(static_cast<int>(conn2));
    ASSERT_TRUE(receiver2.adopt(link2.releaseB()).isOk());
    receiver2.start();

    // Let the pre-gate stream (8 events) reach both receiver nodes.
    std::uint64_t deadline = monotonicNs() + 15000000000ULL;
    while ((receiver1.nextSeq(0) < 8 || receiver2.nextSeq(0) < 8) &&
           monotonicNs() < deadline) {
        sleepNs(5000000);
    }
    ASSERT_GE(receiver1.nextSeq(0), 8u);
    ASSERT_GE(receiver2.nextSeq(0), 8u);

    // The leader node dies mid-stream: both links sever at a frame
    // boundary the instant cut() returns, so the failover clock below
    // starts from a deterministic event. The SIGKILL afterwards only
    // reaps the parked child — no timing rides on it.
    const std::uint64_t killed_at = monotonicNs();
    link1.cut();
    link2.cut();
    ASSERT_EQ(::kill(leader_node, SIGKILL), 0);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(leader_node, &wstatus, 0), leader_node);

    // Node 1 promotes within promote_after (plus scheduling slack) and
    // dials node 2 with the promoted stream; accept that connection.
    ASSERT_TRUE(netio::waitReadable(
        static_cast<int>(listening2.value()), 15000));
    long conn3 = netio::acceptConnection(
        static_cast<int>(listening2.value()), false);
    ASSERT_GE(conn3, 0);
    ASSERT_TRUE(receiver2.adopt(static_cast<int>(conn3)).isOk());
    ASSERT_TRUE(receiver1.promoted());
    const std::uint64_t promoted_by = monotonicNs();
    EXPECT_LT(promoted_by - killed_at, 10000000000ULL);
    // The hook fires after the standby links are up; give it a beat.
    deadline = monotonicNs() + 10000000000ULL;
    while (promoted_epoch.load() == 0 && monotonicNs() < deadline)
        sleepNs(5000000);
    EXPECT_GE(promoted_epoch.load(), 1u);

    // Release the gate: the promoted leader (node 1's variant) resumes
    // from the exact replay point, executes the read and the post-gate
    // tail, and ships it all to node 2.
    ASSERT_EQ(::write(gate[1], "g", 1), 1);

    auto results1 = remote1.waitFor(30000000000ULL);
    ASSERT_EQ(results1.size(), 1u);
    EXPECT_FALSE(results1[0].crashed);
    EXPECT_EQ(results1[0].status, 42);

    auto results2 = remote2.waitFor(30000000000ULL);
    ASSERT_EQ(results2.size(), 1u);
    EXPECT_FALSE(results2[0].crashed);
    EXPECT_EQ(results2[0].status, 42);

    // Node 2 reconciled the generations without loss or duplication:
    // its engine saw exactly the events node 1's engine did.
    EXPECT_EQ(remote2.eventsStreamed(), remote1.eventsStreamed());
    EXPECT_EQ(receiver2.stats().duplicates_dropped, 0u);
    EXPECT_EQ(receiver2.stats().corrupt_frames, 0u);
    EXPECT_EQ(receiver2.stats().rebases, 1u);

    // The promoted engine serves a StatusReport over the wire showing
    // the bumped epoch, the bumped generation and a live leader.
    ASSERT_TRUE(receiver2.requestStatus().isOk());
    core::StatusReport report = {};
    deadline = monotonicNs() + 10000000000ULL;
    while (!receiver2.remoteStatus(&report) && monotonicNs() < deadline)
        sleepNs(5000000);
    ASSERT_TRUE(receiver2.remoteStatus(&report)) << "no status reply";
    EXPECT_EQ(report.epoch, promoted_epoch.load());
    EXPECT_EQ(report.stream_generation, 2u);
    EXPECT_EQ(report.leader, 0u);
    EXPECT_GE(report.promotions, 1u);
    EXPECT_EQ(report.shipper.active, 1u);
    EXPECT_GT(report.shipper.events, 0u);

    core::StatusReport local1 = receiver1.localStatus();
    EXPECT_EQ(local1.receiver.promoted, 1u);
    EXPECT_EQ(local1.stream_generation, 2u);

    ASSERT_TRUE(receiver1.finish().isOk());
    ASSERT_TRUE(receiver2.finish().isOk());
    ::close(gate[0]);
    ::close(gate[1]);
    sys::vclose(static_cast<int>(listening1.value()));
    sys::vclose(static_cast<int>(listening2.value()));
}

} // namespace
} // namespace varan::wire
