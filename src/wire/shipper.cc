#include "wire/shipper.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "common/clock.h"
#include "common/fd.h"
#include "common/futex.h"
#include "common/logging.h"
#include "wire/io.h"

namespace varan::wire {

Shipper::Shipper(const shmem::Region *region,
                 const core::EngineLayout *layout, Options options)
    : region_(region), layout_(layout), options_(options),
      tuning_(&layout->controlBlock(region)->tuning),
      retain_explicit_(options.retain_limit != 0)
{
    if (options_.ship_batch == 0)
        options_.ship_batch = 1;
    if (options_.ship_batch > kMaxShipBatch)
        options_.ship_batch = kMaxShipBatch;
    if (options_.credit_window == 0)
        options_.credit_window = 1;
    if (options_.retain_limit != 0 &&
        options_.retain_limit < options_.credit_window)
        options_.retain_limit = options_.credit_window;
    // Seed the live knobs (first-seeder-wins): a shipper constructed
    // after a retune — a promoted shipper on a receiver node — finds
    // the seeded bit set and adopts the live value instead of
    // clobbering it with its own construction options.
    core::seedKnob(*tuning_, core::Knob::ShipBatch, options_.ship_batch);
    core::seedKnob(*tuning_, core::Knob::CreditWindow,
                   options_.credit_window);
}

std::size_t
Shipper::liveShipBatch() const
{
    std::uint64_t batch = core::liveKnob(*tuning_, core::Knob::ShipBatch);
    if (batch > kMaxShipBatch)
        batch = kMaxShipBatch;
    if (batch == 0)
        batch = 1;
    return static_cast<std::size_t>(batch);
}

std::size_t
Shipper::liveCreditWindow() const
{
    std::uint64_t window =
        core::liveKnob(*tuning_, core::Knob::CreditWindow);
    if (window == 0)
        window = 1;
    return static_cast<std::size_t>(window);
}

std::size_t
Shipper::liveRetainLimit() const
{
    // An explicit retain_limit is an operator decision and stays put;
    // the default tracks the live credit window so retuning the window
    // never turns healthy peers into stragglers.
    if (retain_explicit_)
        return options_.retain_limit;
    return 4 * liveCreditWindow();
}

Shipper::~Shipper()
{
    stopAndSweep();
    for (std::uint32_t t = 0; t < core::kMaxTuples; ++t) {
        if (tuples_[t].tap_slot >= 0) {
            ring::RingBuffer ring = layout_->tupleRing(region_, t);
            ring.detachConsumer(tuples_[t].tap_slot);
            tuples_[t].tap_slot = -1;
        }
    }
}

Status
Shipper::attachTaps()
{
    for (std::uint32_t t = 0; t < core::kMaxTuples; ++t) {
        ring::RingBuffer ring = layout_->tupleRing(region_, t);
        tuples_[t].tap_slot = -1;
        for (int slot = core::kTapConsumerSlot;
             slot < static_cast<int>(ring::kMaxConsumers); ++slot) {
            if (ring.attachConsumerAt(slot)) {
                tuples_[t].tap_slot = slot;
                break;
            }
        }
        if (tuples_[t].tap_slot < 0)
            return Status(Errno{EBUSY});
        // The tap attaches at the current ring head. On a fresh engine
        // (pre-spawn hook) that is sequence 0; on a promoted engine it
        // is the stream position the receiver materialized — the
        // shipper owns only the suffix from here, which becomes its
        // cursor floor for peer admission.
        const std::uint64_t base =
            ring.headSeq() - ring.lag(tuples_[t].tap_slot);
        tuples_[t].next_seq = base;
        tuples_[t].floor_seq = base;
    }
    return Status::ok();
}

Status
Shipper::sendHello(int socket_fd)
{
    core::ControlBlock *cb = layout_->controlBlock(region_);
    HelloBody body = {};
    body.num_variants = cb->num_variants;
    body.ring_capacity = cb->ring_capacity;
    body.max_tuples = core::kMaxTuples;
    body.num_tuples = cb->num_tuples.load(std::memory_order_acquire);
    body.leader_id = cb->leader_id.load(std::memory_order_acquire);
    body.engine_epoch = cb->epoch.load(std::memory_order_acquire);
    body.stream_generation =
        cb->stream_generation.load(std::memory_order_acquire);
    body.events_streamed =
        cb->events_streamed.load(std::memory_order_relaxed);
    body.pool = layout_->pool(region_).stats();

    FrameHeader header = makeHeader(FrameType::Hello, sizeof(body));
    header.body_crc = bodyChecksum(&body, sizeof(body));
    struct iovec iov[2] = {{&header, sizeof(header)}, {&body, sizeof(body)}};
    if (!writevAll(socket_fd, iov, 2))
        return Status::fromErrno();
    return Status::ok();
}

Status
Shipper::addPeer(int socket_fd)
{
    // The handshake is the one blocking exchange on this socket: a
    // receiver that wedges mid-handshake must surface as a failed
    // adopt, never a hung thread. Steady-state sends are non-blocking
    // (queueBytes), so these timeouts only govern the handshake and
    // the credit reads. The blocking I/O runs *before* mutex_ is
    // taken: a wedged connecting peer must not freeze shipping and
    // credit handling for the healthy peers.
    struct timeval io_timeout = {10, 0};
    ::setsockopt(socket_fd, SOL_SOCKET, SO_SNDTIMEO, &io_timeout,
                 sizeof(io_timeout));
    ::setsockopt(socket_fd, SOL_SOCKET, SO_RCVTIMEO, &io_timeout,
                 sizeof(io_timeout));

    Status hello = sendHello(socket_fd);
    if (!hello.isOk())
        return hello;

    FrameHeader ack_header = {};
    if (!readFull(socket_fd, &ack_header, sizeof(ack_header)))
        return Status(Errno{EPIPE});
    if (!headerValid(ack_header))
        return Status(Errno{EPROTO});
    if (static_cast<FrameType>(ack_header.type) == FrameType::Error &&
        ack_header.body_len == sizeof(ErrorBody)) {
        // The receiver refused the link and said why (stale epoch or
        // generation, usually a resurrected pre-failover leader).
        std::uint8_t body[sizeof(ErrorBody)];
        ErrorBody error = {};
        if (readFull(socket_fd, body, sizeof(body)) &&
            decodeErrorFrame(ack_header, body, sizeof(body), &error)) {
            std::lock_guard<std::mutex> guard(mutex_);
            last_error_ = error;
            ++stats_.errors_received;
            warn("wire shipper: peer refused handshake (code %u, peer "
                 "epoch %u gen %u, ours %u/%u)",
                 error.code, error.local_epoch, error.local_generation,
                 error.peer_epoch, error.peer_generation);
        }
        return Status(Errno{EPROTO});
    }
    if (static_cast<FrameType>(ack_header.type) != FrameType::HelloAck ||
        ack_header.body_len != sizeof(HelloAckBody)) {
        return Status(Errno{EPROTO});
    }
    HelloAckBody ack = {};
    if (!readFull(socket_fd, &ack, sizeof(ack)))
        return Status(Errno{EPIPE});
    if (ack_header.body_crc != bodyChecksum(&ack, sizeof(ack)) ||
        ack.max_tuples != core::kMaxTuples) {
        return Status(Errno{EPROTO});
    }

    // Handshake I/O done; bind (or reject) the session under the lock.
    // Admission is checked here, where floor/drain cursors are stable.
    std::lock_guard<std::mutex> guard(mutex_);
    core::ControlBlock *cb = layout_->controlBlock(region_);
    const std::uint32_t generation =
        cb->stream_generation.load(std::memory_order_acquire);
    const std::uint32_t epoch = cb->epoch.load(std::memory_order_acquire);
    if (ack.stream_generation > generation ||
        (ack.stream_generation == generation &&
         ack.engine_epoch > epoch)) {
        // The receiver has reconciled against a newer stream than this
        // shipper publishes: *we* are the stale side. (The receiver
        // normally rejects first; this guards a racing promotion.)
        warn("wire shipper: receiver is ahead (gen %u epoch %u vs our "
             "%u/%u) — this shipper is stale",
             ack.stream_generation, ack.engine_epoch, generation, epoch);
        return Status(Errno{EPROTO});
    }

    // Admission: this shipper can only serve the suffix past its
    // cursor floor (a promoted shipper never saw the earlier prefix,
    // and retired frames are gone). Anything else needs a resync this
    // stream cannot provide — tell the peer in a decodable way.
    for (std::uint32_t t = 0; t < core::kMaxTuples; ++t) {
        WireError code = WireError::None;
        if (ack.next_seq[t] < tuples_[t].floor_seq)
            code = WireError::PeerTooFarBehind;
        else if (ack.next_seq[t] > tuples_[t].next_seq)
            code = WireError::CursorAheadOfStream;
        if (code == WireError::None)
            continue;
        ErrorBody error = {};
        error.code = static_cast<std::uint32_t>(code);
        error.local_epoch = epoch;
        error.local_generation = generation;
        error.peer_epoch = ack.engine_epoch;
        error.peer_generation = ack.stream_generation;
        error.detail = code == WireError::PeerTooFarBehind
                           ? tuples_[t].floor_seq
                           : tuples_[t].next_seq;
        std::uint8_t frame[kErrorFrameBytes];
        encodeErrorFrame(error, frame);
        writeFull(socket_fd, frame, sizeof(frame));
        ++stats_.errors_sent;
        warn("wire shipper: rejecting peer %#llx on tuple %u (code %u: "
             "cursor %llu, floor %llu, head %llu)",
             static_cast<unsigned long long>(ack.receiver_id), t,
             error.code,
             static_cast<unsigned long long>(ack.next_seq[t]),
             static_cast<unsigned long long>(tuples_[t].floor_seq),
             static_cast<unsigned long long>(tuples_[t].next_seq));
        return Status(Errno{EPROTO});
    }

    // Bind or resume the session keyed by the receiver's identity.
    PeerSession *peer = nullptr;
    for (auto &candidate : peers_) {
        if (candidate->receiver_id == ack.receiver_id) {
            peer = candidate.get();
            break;
        }
    }
    const bool resumed = peer != nullptr;
    if (!peer) {
        peers_.push_back(std::make_unique<PeerSession>());
        peer = peers_.back().get();
        peer->receiver_id = ack.receiver_id;
    } else {
        if (peer->socket_fd >= 0)
            loop_.remove(peer->socket_fd);
        ++stats_.reconnects;
        peer->outbox.clear();
        peer->outbox_head = 0;
    }
    peer->socket_fd = socket_fd;
    for (std::uint32_t t = 0; t < core::kMaxTuples; ++t) {
        if (ack.next_seq[t] > peer->acked[t])
            peer->acked[t] = ack.next_seq[t];
        peer->sent[t] = ack.next_seq[t];
    }

    Status added = loop_.add(socket_fd, EPOLLIN, [this, socket_fd](
                                                    std::uint32_t) {
        handlePeerInput(socket_fd);
    });
    if (!added.isOk())
        return added;
    peer->link_up = true;
    refreshLinkUp();
    retireAcked();

    // Retransmit the tail the receiver has not confirmed. Frames that
    // partially overlap the resume cursor are sent as-is — the
    // receiver drops the duplicate prefix per event.
    const std::uint64_t frames_before = stats_.frames;
    sendBacklog(*peer);
    if (resumed)
        stats_.retransmitted_frames += stats_.frames - frames_before;
    return Status::ok();
}

Status
Shipper::reconnect(int socket_fd)
{
    return addPeer(socket_fd);
}

void
Shipper::dropPeerLink(PeerSession &peer)
{
    if (peer.socket_fd >= 0)
        loop_.remove(peer.socket_fd);
    peer.link_up = false;
    refreshLinkUp();
}

void
Shipper::refreshLinkUp()
{
    bool any = false;
    for (const auto &peer : peers_)
        any = any || peer->link_up;
    link_up_.store(any, std::memory_order_release);
}

Shipper::PeerSession *
Shipper::peerByFd(int fd)
{
    for (auto &peer : peers_) {
        if (peer->socket_fd == fd && peer->link_up)
            return peer.get();
    }
    return nullptr;
}

std::uint64_t
Shipper::fastestAcked(std::uint32_t tuple) const
{
    // The drain gate: as long as one live peer keeps crediting, the
    // rings keep draining — a stalled peer buffers (and is eventually
    // evicted) instead of gating its siblings or the leader. Only
    // *live* sessions gate: a fast peer that died must not keep the
    // drain racing ahead of the surviving slower peers (which would
    // grow the buffer until the healthy peers read as stragglers).
    // With no live session at all, fall back to every session's
    // cursor: events confirmed before a link drop stay confirmed, so
    // a sole disconnected peer still drains up to acked + window —
    // the reconnect-and-retransmit window.
    std::uint64_t fastest = tuples_[tuple].floor_seq;
    bool any_live = false;
    for (const auto &peer : peers_) {
        if (!peer->link_up)
            continue;
        any_live = true;
        if (peer->acked[tuple] > fastest)
            fastest = peer->acked[tuple];
    }
    if (!any_live) {
        for (const auto &peer : peers_) {
            if (peer->acked[tuple] > fastest)
                fastest = peer->acked[tuple];
        }
    }
    return fastest;
}

void
Shipper::flushOutbox(PeerSession &peer)
{
    while (peer.outbox_head < peer.outbox.size()) {
        ssize_t n = ::send(peer.socket_fd,
                           peer.outbox.data() + peer.outbox_head,
                           peer.outbox.size() - peer.outbox_head,
                           MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            dropPeerLink(peer);
            return;
        }
        peer.outbox_head += static_cast<std::size_t>(n);
    }
    peer.outbox.clear();
    peer.outbox_head = 0;
}

bool
Shipper::queueBytes(PeerSession &peer, const std::uint8_t *data,
                    std::size_t len)
{
    // Never block the pump on one peer's socket: try the kernel buffer
    // first, spill the remainder to the session outbox. A frame is
    // only *started* while the outbox is under its cap, so the cap
    // bounds memory without ever tearing a frame mid-stream.
    if (!peer.outbox.empty()) {
        flushOutbox(peer);
        if (!peer.link_up)
            return true; // dropped; retransmit covers it on reconnect
        if (!peer.outbox.empty()) {
            if (peer.outbox.size() - peer.outbox_head + len >
                options_.outbox_limit) {
                return false;
            }
            peer.outbox.insert(peer.outbox.end(), data, data + len);
            return true;
        }
    }
    std::size_t written = 0;
    while (written < len) {
        ssize_t n = ::send(peer.socket_fd, data + written, len - written,
                           MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                peer.outbox.assign(data + written, data + len);
                peer.outbox_head = 0;
                return true;
            }
            dropPeerLink(peer);
            return true;
        }
        written += static_cast<std::size_t>(n);
    }
    return true;
}

void
Shipper::sendBacklog(PeerSession &peer)
{
    if (!peer.link_up)
        return;
    flushOutbox(peer);
    const std::size_t credit_window = liveCreditWindow();
    for (const PendingFrame &frame : unacked_) {
        if (!peer.link_up)
            return;
        const std::uint32_t t = frame.tuple;
        const std::uint64_t end = frame.seq + frame.count;
        if (end <= peer.acked[t])
            continue; // the receiver already holds it
        if (frame.seq > peer.sent[t])
            continue; // an earlier frame was held back: keep order
        if (end <= peer.sent[t])
            continue; // already on the wire
        if (end > peer.acked[t] + credit_window)
            continue; // this peer's window is closed
        if (!queueBytes(peer, frame.bytes.data(), frame.bytes.size()))
            return; // outbox cap hit: retry next pass
        peer.sent[t] = end;
        ++stats_.frames;
        stats_.bytes += frame.bytes.size();
    }
}

void
Shipper::fanOut()
{
    for (auto &peer : peers_)
        sendBacklog(*peer);
}

void
Shipper::retireAcked()
{
    // A frame leaves the retransmit buffer once the *slowest*
    // registered session has credited past it (sessions awaiting
    // reconnect still count: their tail must stay retransmittable
    // until eviction gives up on them).
    while (!unacked_.empty()) {
        const PendingFrame &front = unacked_.front();
        std::uint64_t slowest = tuples_[front.tuple].next_seq;
        for (const auto &peer : peers_) {
            if (peer->acked[front.tuple] < slowest)
                slowest = peer->acked[front.tuple];
        }
        if (peers_.empty() || front.seq + front.count > slowest)
            break;
        tuples_[front.tuple].floor_seq = front.seq + front.count;
        unacked_.pop_front();
    }
}

void
Shipper::evictStragglers()
{
    const std::size_t retain_limit = liveRetainLimit();
    for (std::size_t i = 0; i < peers_.size();) {
        PeerSession &peer = *peers_[i];
        bool evict = false;
        for (std::uint32_t t = 0; t < core::kMaxTuples && !evict; ++t) {
            if (tuples_[t].next_seq - peer.acked[t] > retain_limit) {
                evict = true;
            }
        }
        if (!evict) {
            ++i;
            continue;
        }
        warn("wire shipper: evicting peer %#llx (%s, > %zu events "
             "behind) — it must resync from a fresh stream",
             static_cast<unsigned long long>(peer.receiver_id),
             peer.link_up ? "stalled" : "link down", retain_limit);
        dropPeerLink(peer);
        peers_.erase(peers_.begin() + static_cast<std::ptrdiff_t>(i));
        ++stats_.peers_evicted;
    }
    retireAcked();
}

void
Shipper::handlePeerInput(int fd)
{
    // Invoked from loop_.runOnce() inside pumpOnce(), which already
    // holds mutex_ — every loop_ access is serialized through it.
    PeerSession *peer = peerByFd(fd);
    if (!peer)
        return;
    FrameHeader header = {};
    if (!readFull(fd, &header, sizeof(header)) || !headerValid(header)) {
        dropPeerLink(*peer);
        return;
    }
    switch (static_cast<FrameType>(header.type)) {
      case FrameType::Credit:
        handleCredits(*peer, header);
        break;
      case FrameType::Status:
        // The status RPC: an empty-body Status frame is a request for
        // the coordinator snapshot; anything else from the receiver on
        // this frame type is a protocol violation.
        if (header.body_len != 0) {
            dropPeerLink(*peer);
            return;
        }
        serveStatusRequest(*peer);
        break;
      case FrameType::Error: {
        ErrorBody error = {};
        if (header.body_len == sizeof(error) &&
            readFull(fd, &error, sizeof(error)) &&
            header.body_crc == bodyChecksum(&error, sizeof(error))) {
            last_error_ = error;
            ++stats_.errors_received;
            warn("wire shipper: peer %#llx reported error %u",
                 static_cast<unsigned long long>(peer->receiver_id),
                 error.code);
        }
        dropPeerLink(*peer);
        break;
      }
      case FrameType::Divergence: {
        // A remote follower diverged: relay its ledger records into the
        // leader's ledger, tagged with the sending receiver, so the
        // coordinator's on_divergence_record hook fires fleet-wide.
        std::uint8_t body[kDivergenceFrameMaxRecords *
                          sizeof(trace::DivergenceRecord)];
        trace::DivergenceRecord records[kDivergenceFrameMaxRecords];
        if (header.body_len > sizeof(body) ||
            !readFull(fd, body, header.body_len)) {
            dropPeerLink(*peer);
            return;
        }
        const std::size_t n = decodeDivergenceFrame(
            header, body, header.body_len, records,
            kDivergenceFrameMaxRecords);
        if (n == SIZE_MAX) {
            dropPeerLink(*peer);
            return;
        }
        core::ControlBlock *cb = layout_->controlBlock(region_);
        for (std::size_t i = 0; i < n; ++i) {
            records[i].origin = 1;
            records[i].origin_id = peer->receiver_id;
            trace::ledgerAppend(cb->trace, records[i]);
        }
        stats_.divergence_records += n;
        break;
      }
      case FrameType::Bye:
        dropPeerLink(*peer);
        break;
      case FrameType::Lease:
      case FrameType::Vote:
      case FrameType::Fence:
        // Quorum traffic rides dedicated receiver<->receiver links
        // (quorum/lease.h), never a data session: a peer mixing the
        // planes is confused enough to drop.
        warn("wire shipper: peer %#llx sent quorum frame type %u on a "
             "data session",
             static_cast<unsigned long long>(peer->receiver_id),
             header.type);
        dropPeerLink(*peer);
        break;
      default:
        // Unexpected frame from the receiver: protocol violation.
        dropPeerLink(*peer);
        break;
    }
}

void
Shipper::handleCredits(PeerSession &peer, const FrameHeader &header)
{
    if (header.body_len != header.count * sizeof(CreditEntry)) {
        dropPeerLink(peer);
        return;
    }
    std::vector<CreditEntry> entries(header.count);
    if (!readFull(peer.socket_fd, entries.data(), header.body_len)) {
        dropPeerLink(peer);
        return;
    }
    if (header.body_crc != bodyChecksum(entries.data(), header.body_len)) {
        dropPeerLink(peer);
        return;
    }
    for (const CreditEntry &entry : entries) {
        if (entry.tuple >= core::kMaxTuples)
            continue;
        if (entry.delivered > peer.acked[entry.tuple])
            peer.acked[entry.tuple] = entry.delivered;
        ++stats_.credits_received;
    }
    retireAcked();
}

void
Shipper::fillWireStatus(core::ShipperWireStatus &out, const Stats &stats,
                        bool link_up)
{
    out.active = 1;
    out.link_up = link_up ? 1 : 0;
    out.peers = stats.peers;
    out.peers_evicted = stats.peers_evicted;
    out.frames = stats.frames;
    out.events = stats.events;
    out.bytes = stats.bytes;
    out.payload_bytes = stats.payload_bytes;
    out.credits_received = stats.credits_received;
    out.retransmitted_frames = stats.retransmitted_frames;
    out.reconnects = stats.reconnects;
}

void
Shipper::serveStatusRequest(PeerSession &peer)
{
    // Runs under mutex_ (handlePeerInput is invoked from loop_.runOnce
    // inside pumpOnce), so stats_ and the session are stable.
    core::StatusReport report = core::collectStatus(region_, *layout_);
    Stats snapshot = stats_;
    snapshot.peers = static_cast<std::uint32_t>(peers_.size());
    fillWireStatus(report.shipper, snapshot,
                   link_up_.load(std::memory_order_acquire));

    std::uint8_t frame[kStatusFrameBytes];
    encodeStatusFrame(report, frame);
    if (!queueBytes(peer, frame, sizeof(frame)))
        return; // outbox cap hit: the receiver will re-request
    ++stats_.frames;
    stats_.bytes += sizeof(frame);
    ++stats_.status_requests_served;
}

std::size_t
Shipper::drainTuple(std::uint32_t tuple)
{
    TupleShip &ship = tuples_[tuple];
    if (ship.tap_slot < 0)
        return 0;

    ring::RingBuffer ring = layout_->tupleRing(region_, tuple);
    if (ring.lag(ship.tap_slot) == 0)
        return 0;
    ++stats_.drain_passes;

    // Credit window against the *fastest* peer: the drain (and with it
    // the leader, through ring backpressure) is only gated when every
    // peer has stopped crediting. Slower peers are served from the
    // retransmit buffer. Both the window and the batch size are live
    // `Tuning` knobs, re-read here — at the batch boundary — so a
    // retune applies to the very next frame.
    core::ControlBlock *cb = layout_->controlBlock(region_);
    const std::size_t credit_window = liveCreditWindow();
    const std::uint64_t unacked = ship.next_seq - fastestAcked(tuple);
    if (unacked >= credit_window) {
        ++stats_.credit_stalls;
        blocked_ = true;
        if (trace::enabled(cb->trace) && ship.stall_since_ns == 0)
            ship.stall_since_ns = monotonicNs();
        return 0;
    }
    if (ship.stall_since_ns != 0) {
        // The window reopened: the whole closed span is one sample.
        const std::uint64_t now = monotonicNs();
        if (now > ship.stall_since_ns) {
            trace::histogramRecord(cb->trace.credit_stall,
                                   now - ship.stall_since_ns);
        }
        ship.stall_since_ns = 0;
    }
    std::size_t budget = credit_window - unacked;
    const std::size_t ship_batch = liveShipBatch();
    if (budget > ship_batch)
        budget = ship_batch;

    ring::Event events[kMaxShipBatch];

    ring::WaitSpec nowait;
    nowait.spin_iterations = 0;
    nowait.timeout_ns = 1; // poll
    std::size_t n = ring.peekBatch(ship.tap_slot, events, budget, nowait);
    if (n == 0)
        return 0;

    // Serialize one Events frame: header, event run, payload bytes of
    // every payload-carrying event, in event order. Payloads are copied
    // out of the pool *before* the tap cursor advances, while the
    // gating protocol still pins them. The frame is serialized once
    // and fanned out to every peer from the retransmit buffer.
    shmem::ShardedPool pool = layout_->pool(region_);
    const std::size_t payload_bytes = eventsPayloadBytes(events, n);
    PendingFrame frame;
    frame.tuple = tuple;
    frame.seq = ship.next_seq;
    frame.count = static_cast<std::uint32_t>(n);
    const std::size_t body_len = n * sizeof(ring::Event) + payload_bytes;
    frame.bytes.resize(sizeof(FrameHeader) + body_len);

    auto *body = frame.bytes.data() + sizeof(FrameHeader);
    std::memcpy(body, events, n * sizeof(ring::Event));
    auto *payload_out = body + n * sizeof(ring::Event);
    for (std::size_t i = 0; i < n; ++i) {
        if (!events[i].hasPayload())
            continue;
        const void *payload =
            pool.pointer(events[i].payload, events[i].payload_size);
        std::memcpy(payload_out, payload, events[i].payload_size);
        payload_out += events[i].payload_size;
    }

    FrameHeader header = makeHeader(FrameType::Events,
                                    static_cast<std::uint32_t>(body_len));
    header.tuple = tuple;
    header.seq = frame.seq;
    header.count = frame.count;
    header.body_crc = bodyChecksum(body, body_len);
    std::memcpy(frame.bytes.data(), &header, sizeof(header));

    // The copy is complete: release the ring slots back to the leader.
    ring.advanceBy(ship.tap_slot, n);
    ship.next_seq += n;
    stats_.events += n;
    stats_.payload_bytes += payload_bytes;

    if (trace::enabled(cb->trace)) {
        trace::stamp(cb->trace, trace::Stage::ShipperDrain, 0,
                     static_cast<std::uint8_t>(tuple),
                     static_cast<std::uint32_t>(n), monotonicNs(),
                     frame.seq, payload_bytes);
    }

    unacked_.push_back(std::move(frame));
    return n;
}

std::size_t
Shipper::pumpOnce()
{
    std::lock_guard<std::mutex> guard(mutex_);
    // Deliver any pending credit frames first so the windows reopen.
    loop_.runOnce(0);
    core::ControlBlock *cb = layout_->controlBlock(region_);
    std::uint32_t tuples = cb->num_tuples.load(std::memory_order_acquire);
    std::size_t drained = 0;
    blocked_ = false; // drainTuple() sets it when a window gates a ring
    for (std::uint32_t t = 0; t < tuples && t < core::kMaxTuples; ++t)
        drained += drainTuple(t);
    fanOut();
    evictStragglers();
    maybePushStatus();
    blocked_ = blocked_ || unsentLocked();
    return drained;
}

void
Shipper::maybePushStatus()
{
    // Runs under mutex_ (from pumpOnce), like serveStatusRequest.
    if (options_.status_push_ns == 0 || peers_.empty())
        return;
    const std::uint64_t now = monotonicNs();
    if (now - last_status_push_ns_ < options_.status_push_ns)
        return;
    last_status_push_ns_ = now;

    core::StatusReport report = core::collectStatus(region_, *layout_);
    Stats snapshot = stats_;
    snapshot.peers = static_cast<std::uint32_t>(peers_.size());
    fillWireStatus(report.shipper, snapshot,
                   link_up_.load(std::memory_order_acquire));
    std::uint8_t frame[kStatusFrameBytes];
    encodeStatusFrame(report, frame);
    for (auto &peer : peers_) {
        if (!peer->link_up)
            continue;
        if (!queueBytes(*peer, frame, sizeof(frame)))
            continue; // outbox cap hit: the next interval retries
        ++stats_.frames;
        stats_.bytes += sizeof(frame);
    }
    ++stats_.status_pushes;
}

bool
Shipper::ringBacklog()
{
    std::lock_guard<std::mutex> guard(mutex_);
    for (std::uint32_t t = 0; t < core::kMaxTuples; ++t) {
        if (tuples_[t].tap_slot < 0)
            continue;
        ring::RingBuffer ring = layout_->tupleRing(region_, t);
        if (ring.lag(tuples_[t].tap_slot) > 0)
            return true;
    }
    return false;
}

bool
Shipper::unsentBacklog()
{
    std::lock_guard<std::mutex> guard(mutex_);
    return unsentLocked();
}

bool
Shipper::unsentLocked() const
{
    // Any live peer with bytes parked in its outbox, or buffered
    // frames its send cursor has not covered yet? The shutdown tail
    // counts as delivered only once it reached the kernel for every
    // peer that is still reachable.
    for (const auto &peer : peers_) {
        if (!peer->link_up)
            continue;
        if (peer->outbox.size() > peer->outbox_head)
            return true;
        for (std::uint32_t t = 0; t < core::kMaxTuples; ++t) {
            // acked can outrun sent (a resumed session credits frames
            // this incarnation never wrote): delivered either way.
            const std::uint64_t covered =
                std::max(peer->sent[t], peer->acked[t]);
            if (covered < tuples_[t].next_seq)
                return true;
        }
    }
    return false;
}

void
Shipper::drainRemaining()
{
    // Ship everything still in the rings *and* everything drained but
    // not yet on the wire (closed credit window, full socket buffer).
    // pumpOnce() yields zero while such backlog remains — then the
    // blocker is an in-flight Credit frame or kernel buffer space, so
    // wait for it (bounded: a dead or wedged receiver must not hold
    // shutdown hostage).
    const std::uint64_t deadline = monotonicNs() + 10000000000ULL; // 10 s
    for (;;) {
        if (pumpOnce() > 0)
            continue;
        if (!link_up_.load(std::memory_order_acquire))
            break;
        if (!ringBacklog() && !unsentBacklog())
            break;
        if (monotonicNs() >= deadline) {
            warn("wire shipper: shutdown with undelivered backlog "
                 "(credit window closed or receiver not reading)");
            break;
        }
        loop_.waitReady(options_.tick_ms); // credits: next pumpOnce()
    }
}

void
Shipper::waitForWork()
{
    // Read the wake word before the stop flag: a stopPump() after this
    // check bumps the word past wake_seen and the sleep returns at once.
    const std::uint32_t wake_seen = wake_.load(std::memory_order_seq_cst);
    if (stopping_.load(std::memory_order_seq_cst))
        return;
    ring::RingTap taps[core::kMaxTuples];
    std::size_t n = 0;
    bool blocked = false;
    {
        std::lock_guard<std::mutex> guard(mutex_);
        blocked = blocked_;
        for (std::uint32_t t = 0; t < core::kMaxTuples; ++t) {
            if (tuples_[t].tap_slot >= 0) {
                taps[n++] = {layout_->tupleRing(region_, t),
                             tuples_[t].tap_slot};
            }
        }
    }
    // None of these sleeps holds mutex_: the pump re-locks the moment
    // it wakes, so a stats() or handshake caller waiting on a lock held
    // across the wait could starve for seconds on a busy machine.
    if (blocked) {
        // Only a peer can unblock this backlog (credits, socket space).
        // A publish is not a reason to wake: it could not ship either.
        loop_.waitReady(options_.tick_ms);
        return;
    }
    const std::uint64_t ready = ring::RingBuffer::awaitAny(
        {taps, n}, &wake_, wake_seen,
        static_cast<std::uint64_t>(options_.tick_ms) * 1000000ULL);
    if (ready == 0 || ready >= liveShipBatch())
        return;
    // Relaxed batching with a bounded staleness cap (the live
    // CoalesceWindowNs knob): let a short run grow into one frame. This
    // sleep is on the shipper's own word, not announced in the rings,
    // so the publishes it waits for do not each wake us.
    futexWait(&wake_, wake_seen,
              core::liveKnob(*tuning_, core::Knob::CoalesceWindowNs));
}

void
Shipper::pumpLoop()
{
    while (!stopping_.load(std::memory_order_acquire)) {
        if (pumpOnce() == 0)
            waitForWork();
    }
}

void
Shipper::stopPump()
{
    stopping_.store(true, std::memory_order_seq_cst);
    wake_.fetch_add(1, std::memory_order_seq_cst);
    futexWake(&wake_, 1);
}

void
Shipper::stopAndSweep()
{
    stopPump();
    if (thread_.joinable())
        thread_.join();
    if (swept_)
        return;
    swept_ = true;
    // Final sweep: ship whatever the leader published before stop.
    drainRemaining();
}

void
Shipper::start()
{
    VARAN_CHECK(!thread_.joinable());
    thread_ = std::thread([this] { pumpLoop(); });
}

Status
Shipper::finish()
{
    stopAndSweep();
    std::lock_guard<std::mutex> guard(mutex_);
    for (auto &peer : peers_) {
        if (!peer->link_up)
            continue;
        FrameHeader bye = makeHeader(FrameType::Bye, 0);
        queueBytes(*peer, reinterpret_cast<const std::uint8_t *>(&bye),
                   sizeof(bye));
        flushOutbox(*peer);
    }
    for (std::uint32_t t = 0; t < core::kMaxTuples; ++t) {
        if (tuples_[t].tap_slot >= 0) {
            ring::RingBuffer ring = layout_->tupleRing(region_, t);
            ring.detachConsumer(tuples_[t].tap_slot);
            tuples_[t].tap_slot = -1;
        }
    }
    return Status::ok();
}

std::size_t
Shipper::peerCount() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return peers_.size();
}

ErrorBody
Shipper::lastError() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return last_error_;
}

Shipper::Stats
Shipper::stats() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    Stats snapshot = stats_;
    snapshot.peers = static_cast<std::uint32_t>(peers_.size());
    return snapshot;
}

} // namespace varan::wire
