#include "wire/receiver.h"

#include <cerrno>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "common/clock.h"
#include "common/logging.h"
#include "netio/socketio.h"
#include "wire/io.h"

namespace varan::wire {

namespace {

/** Is any event in the run an externally-visible synchronization
 *  point (descriptor transfer, fork, exit)? Credits flush there. */
bool
hasAckPoint(const ring::Event *events, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i) {
        if (events[i].transfersFd() ||
            events[i].type == ring::EventType::Fork ||
            events[i].type == ring::EventType::Exit) {
            return true;
        }
    }
    return false;
}

} // namespace

Receiver::Receiver(const shmem::Region *region,
                   const core::EngineLayout *layout, Options options)
    : region_(region), layout_(layout), options_(std::move(options))
{
    if (options_.credit_every == 0)
        options_.credit_every = 1;
    // A stable identity for the shipper's session table: a fan-out
    // shipper matches a reconnecting receiver to its session (credit
    // cursors, retransmit tail) by this value, not by socket.
    receiver_id_ =
        (static_cast<std::uint64_t>(::getpid()) << 32) ^ monotonicNs() ^
        reinterpret_cast<std::uintptr_t>(this);
    // The quorum control plane (v6): a configured membership gates
    // promotion on a granted lease. Election rounds stamp the shared
    // flight recorder unless the caller pointed them elsewhere.
    if (options_.quorum.valid()) {
        if (options_.quorum.trace == nullptr) {
            options_.quorum.trace =
                &layout_->controlBlock(region_)->trace;
        }
        lease_ =
            std::make_unique<quorum::LeaseManager>(options_.quorum);
    }
}

Receiver::~Receiver()
{
    stopping_.store(true, std::memory_order_release);
    if (thread_.joinable())
        thread_.join();
}

void
Receiver::sendHandshakeError(int socket_fd, WireError code,
                             const HelloBody &hello)
{
    ErrorBody error = {};
    error.code = static_cast<std::uint32_t>(code);
    error.local_epoch = last_epoch_;
    error.local_generation = last_generation_;
    error.peer_epoch = hello.engine_epoch;
    error.peer_generation = hello.stream_generation;
    std::uint8_t frame[kErrorFrameBytes];
    encodeErrorFrame(error, frame);
    writeFull(socket_fd, frame, sizeof(frame));
    ++stats_.errors_sent;
}

Status
Receiver::adopt(int socket_fd)
{
    std::lock_guard<std::mutex> guard(mutex_);
    if (seen_hello_)
        ++stats_.reconnects;
    socket_fd_ = socket_fd;

    // Bound credit writes and frame reads the same way the shipper
    // bounds its side: a wedged peer (stalled mid-frame, or a
    // connector that never sends its Hello) becomes a dropped link or
    // a failed adopt, never a hang.
    struct timeval io_timeout = {10, 0};
    ::setsockopt(socket_fd_, SOL_SOCKET, SO_SNDTIMEO, &io_timeout,
                 sizeof(io_timeout));
    ::setsockopt(socket_fd_, SOL_SOCKET, SO_RCVTIMEO, &io_timeout,
                 sizeof(io_timeout));

    FrameHeader header = {};
    if (!readFull(socket_fd_, &header, sizeof(header)))
        return Status(Errno{EPIPE});
    if (!headerValid(header) ||
        static_cast<FrameType>(header.type) != FrameType::Hello ||
        header.body_len != sizeof(HelloBody)) {
        return Status(Errno{EPROTO});
    }
    HelloBody hello = {};
    if (!readFull(socket_fd_, &hello, sizeof(hello)))
        return Status(Errno{EPIPE});
    if (header.body_crc != bodyChecksum(&hello, sizeof(hello)))
        return Status(Errno{EPROTO});

    // Geometry must match the local layout bit for bit: the follower
    // replays against rings and arenas shaped like the leader's.
    core::ControlBlock *cb = layout_->controlBlock(region_);
    if (hello.ring_capacity != cb->ring_capacity ||
        hello.max_tuples != core::kMaxTuples) {
        sendHandshakeError(socket_fd_, WireError::GeometryMismatch, hello);
        return Status(Errno{EPROTO});
    }

    // A promoted node leads its own generation and consumes no stream:
    // nothing shipped here would ever be read (the serve loop is
    // parked). Refuse decodably — this is what a concurrently promoted
    // sibling sees, where the stale checks below would wrongly pass an
    // equal-or-newer stamp and mirror a foreign stamp into an engine
    // that is itself leading.
    if (promoted_.load(std::memory_order_acquire)) {
        warn("wire receiver: refusing shipper (gen %u epoch %u) — this "
             "node promoted and leads generation %u",
             hello.stream_generation, hello.engine_epoch,
             last_generation_);
        sendHandshakeError(socket_fd_, WireError::PeerNotReceiving,
                           hello);
        return Status(Errno{EBUSY});
    }

    // Epoch reconciliation: never accept a stream older than what this
    // receiver already reconciled against. A resurrected pre-failover
    // leader (stale generation) or a leader whose epoch regressed
    // within a generation must not rewind the materialized stream —
    // answer with a decodable Error so the operator sees *why*.
    if (hello.stream_generation < last_generation_) {
        warn("wire receiver: rejecting stale generation %u (reconciled "
             "against %u)",
             hello.stream_generation, last_generation_);
        sendHandshakeError(socket_fd_, WireError::StaleGeneration, hello);
        return Status(Errno{EPROTO});
    }
    if (hello.stream_generation == last_generation_ &&
        hello.engine_epoch < last_epoch_) {
        warn("wire receiver: rejecting stale epoch %u (reconciled "
             "against %u in generation %u)",
             hello.engine_epoch, last_epoch_, last_generation_);
        sendHandshakeError(socket_fd_, WireError::StaleEpoch, hello);
        return Status(Errno{EPROTO});
    }
    if (hello.stream_generation > last_generation_ &&
        last_generation_ != 0) {
        // A promotion happened upstream: the new leader continues the
        // same logical stream from what its node materialized, so our
        // prefix and resume cursors stay valid — rebase, don't reset.
        inform("wire receiver: rebasing onto generation %u epoch %u "
               "(was %u/%u)",
               hello.stream_generation, hello.engine_epoch,
               last_generation_, last_epoch_);
        ++stats_.rebases;
    }
    last_epoch_ = hello.engine_epoch;
    last_generation_ = hello.stream_generation;
    // Mirror the adopted stamp into the local control block so
    // collectStatus() on this node reports the stream it consumes.
    cb->epoch.store(last_epoch_, std::memory_order_release);
    cb->stream_generation.store(last_generation_,
                                std::memory_order_release);

    hello_ = hello;
    seen_hello_ = true;
    // A cached status reply belongs to the previous peer (failover may
    // have handed us a different node): force a fresh request.
    seen_status_ = false;

    HelloAckBody ack = {};
    ack.max_tuples = core::kMaxTuples;
    ack.engine_epoch = last_epoch_;
    ack.stream_generation = last_generation_;
    ack.receiver_id = receiver_id_;
    for (std::uint32_t t = 0; t < core::kMaxTuples; ++t)
        ack.next_seq[t] = next_seq_[t];
    FrameHeader ack_header = makeHeader(FrameType::HelloAck, sizeof(ack));
    ack_header.body_crc = bodyChecksum(&ack, sizeof(ack));
    struct iovec iov[2] = {{&ack_header, sizeof(ack_header)},
                           {&ack, sizeof(ack)}};
    if (!writevAll(socket_fd_, iov, 2))
        return Status::fromErrno();

    // First successful adopt opens the file sink; reconnects keep
    // appending to the same capture (duplicate suppression above
    // guarantees each event is logged exactly once).
    if (!options_.record_path.empty() && !log_.isOpen() &&
        log_.error() == 0) {
        Status opened = log_.open(options_.record_path);
        if (!opened.isOk()) {
            warn("wire receiver: cannot open record log %s: %s",
                 options_.record_path.c_str(),
                 opened.error().message().c_str());
            stats_.log_errno = opened.error().code;
        } else {
            log_.setFlushThreshold(64u << 10);
        }
    }

    link_up_.store(true, std::memory_order_release);
    return Status::ok();
}

void
Receiver::dropLink()
{
    link_up_.store(false, std::memory_order_release);
}

void
Receiver::sendCredit(std::uint32_t tuple)
{
    CreditEntry entry = {};
    entry.tuple = tuple;
    entry.delivered = next_seq_[tuple];
    FrameHeader header = makeHeader(FrameType::Credit, sizeof(entry));
    header.count = 1;
    header.body_crc = bodyChecksum(&entry, sizeof(entry));
    std::uint8_t frame[sizeof(header) + sizeof(entry)];
    std::memcpy(frame, &header, sizeof(header));
    std::memcpy(frame + sizeof(header), &entry, sizeof(entry));
    if (!writeFull(socket_fd_, frame, sizeof(frame))) {
        dropLink();
        return;
    }
    credited_[tuple] = next_seq_[tuple];
    uncredited_[tuple] = 0;
    ++stats_.credits_sent;
}

bool
Receiver::prepareEvent(std::uint32_t tuple, ring::Event &event,
                       const std::uint8_t *payload_bytes)
{
    core::ControlBlock *cb = layout_->controlBlock(region_);
    shmem::ShardedPool pool = layout_->pool(region_);

    // Re-host the payload in the local arena of the publishing tuple —
    // the follower resolves offsets against its local pool exactly as
    // it would against the leader's.
    if (event.hasPayload() && event.payload_size > 0) {
        shmem::Offset payload =
            pool.allocate(tuple, event.payload_size, 1);
        if (payload == 0) {
            warn("wire receiver: local pool exhausted (%u bytes)",
                 event.payload_size);
            return false;
        }
        std::memcpy(pool.pointer(payload, event.payload_size),
                    payload_bytes, event.payload_size);
        event.payload = static_cast<std::uint32_t>(payload);
        stats_.payload_bytes += event.payload_size;
    } else if (event.hasPayload()) {
        event.flags &= ~static_cast<std::uint32_t>(ring::kHasPayload);
        event.payload = 0;
    }

    // No data channel spans nodes: descriptor transfer is virtual, the
    // remote follower mirrors numbers from the event alone.
    event.flags &= ~static_cast<std::uint32_t>(ring::kFdTransfer);

    // Fork events open tuples here exactly as a live leader would.
    if (event.type == ring::EventType::Fork) {
        auto t = static_cast<std::uint32_t>(event.args[0]);
        if (t < core::kMaxTuples) {
            std::uint32_t current =
                cb->num_tuples.load(std::memory_order_acquire);
            while (current <= t &&
                   !cb->num_tuples.compare_exchange_weak(
                       current, t + 1, std::memory_order_acq_rel)) {
            }
            cb->tuples[t].active.store(1, std::memory_order_release);
        }
    }
    return true;
}

std::size_t
Receiver::publishRun(std::uint32_t tuple, ring::Event *events,
                     std::size_t count)
{
    // The batched mirror of the shipper's relaxed shipping: one
    // claim/commit — one head store, one wake — per ring chunk rather
    // than per event. Each claimed slot's payload shadow is recycled,
    // as the leader's publishEvent does for its one slot.
    core::ControlBlock *cb = layout_->controlBlock(region_);
    shmem::ShardedPool pool = layout_->pool(region_);
    ring::RingBuffer ring = layout_->tupleRing(region_, tuple);
    std::uint64_t *shadow = layout_->tupleShadow(region_, tuple);
    const std::uint64_t mask = cb->ring_capacity - 1;
    ring::WaitSpec wait;
    wait.timeout_ns = options_.publish_timeout_ns;

    std::size_t done = 0;
    while (done < count) {
        const std::size_t chunk =
            std::min<std::size_t>(count - done, cb->ring_capacity);
        std::uint64_t seq = 0;
        if (!ring.claim(chunk, &seq, wait)) {
            warn("wire receiver: local ring %u wedged", tuple);
            break;
        }
        for (std::size_t k = 0; k < chunk; ++k) {
            const ring::Event &event = events[done + k];
            std::uint64_t idx = (seq + k) & mask;
            if (shadow[idx] != 0)
                pool.release(shadow[idx]);
            shadow[idx] = event.hasPayload() ? event.payload : 0;
        }
        ring.commit({events + done, chunk});
        done += chunk;
    }
    cb->events_streamed.fetch_add(done, std::memory_order_relaxed);
    if (done > 0 && trace::enabled(cb->trace)) {
        trace::stamp(cb->trace, trace::Stage::ReceiverPublish, 0,
                     static_cast<std::uint8_t>(tuple),
                     static_cast<std::uint32_t>(done), monotonicNs(),
                     count);
    }
    return done;
}

void
Receiver::releasePrepared(ring::Event *events, std::size_t count)
{
    shmem::ShardedPool pool = layout_->pool(region_);
    for (std::size_t i = 0; i < count; ++i) {
        if (events[i].hasPayload() && events[i].payload != 0)
            pool.release(events[i].payload);
    }
}

bool
Receiver::applyEvents(const FrameHeader &header,
                      std::vector<std::uint8_t> &body)
{
    const std::uint32_t tuple = header.tuple;
    const std::size_t count = header.count;
    if (body.size() < count * sizeof(ring::Event)) {
        ++stats_.corrupt_frames;
        return false;
    }
    auto *events = reinterpret_cast<ring::Event *>(body.data());
    if (eventsPayloadBytes(events, count) !=
        body.size() - count * sizeof(ring::Event)) {
        ++stats_.corrupt_frames;
        return false;
    }

    // Decide the ack policy on the pristine events: prepareEvent
    // rewrites flags (kFdTransfer is virtualised away) as it goes.
    const bool ack_point = hasAckPoint(events, count);

    // Frames carry a contiguous sequence run, so retransmit overlap is
    // always a prefix: drop already-delivered events, reject holes.
    if (header.seq + count <= next_seq_[tuple]) {
        stats_.duplicates_dropped += count;
        return true; // whole frame already delivered
    }
    if (header.seq > next_seq_[tuple]) {
        warn("wire receiver: tuple %u gap (want %llu, got %llu)", tuple,
             static_cast<unsigned long long>(next_seq_[tuple]),
             static_cast<unsigned long long>(header.seq));
        ++stats_.corrupt_frames;
        return false;
    }
    const std::size_t skip =
        static_cast<std::size_t>(next_seq_[tuple] - header.seq);
    stats_.duplicates_dropped += skip;

    const std::uint8_t *payload_cursor =
        body.data() + count * sizeof(ring::Event);
    for (std::size_t i = 0; i < count; ++i) {
        ring::Event &event = events[i];
        const std::uint8_t *payload = payload_cursor;
        if (event.hasPayload())
            payload_cursor += event.payload_size;
        if (i < skip)
            continue; // duplicate prefix: payload bytes consumed above
        if (!prepareEvent(tuple, event, payload)) {
            // Already-prepared events own local pool chunks; drop them
            // or a retransmit after reconnect would re-allocate and
            // leak them — compounding the exhaustion that failed us.
            releasePrepared(events + skip, i - skip);
            return false;
        }
    }

    const std::size_t fresh = count - skip;
    const std::size_t published =
        publishRun(tuple, events + skip, fresh);
    // Committed slots own their payloads (the shadow releases them on
    // reuse); the unpublished tail must be released here. next_seq_
    // advances only past what landed, so a reconnect retransmits the
    // rest cleanly.
    if (published < fresh)
        releasePrepared(events + skip + published, fresh - published);
    next_seq_[tuple] += published;
    stats_.events += published;
    uncredited_[tuple] += published;

    // File-backed sink: persist exactly the published window, reading
    // payload bytes from the pristine wire body (prepareEvent left
    // payload_size untouched). A latched writer error makes every
    // append a fast no-op, so a dead disk never jeopardises the link.
    if (log_.isOpen() && published > 0) {
        const std::uint8_t *cursor =
            body.data() + count * sizeof(ring::Event);
        for (std::size_t i = 0; i < skip + published; ++i) {
            const std::uint8_t *payload = cursor;
            const std::size_t size =
                events[i].hasPayload() ? events[i].payload_size : 0;
            cursor += size;
            if (i < skip)
                continue;
            if (log_.append(tuple, events[i], payload, size).isOk())
                ++stats_.logged_events;
        }
        if (ack_point)
            (void)log_.flush();
        if (log_.error() != 0 && stats_.log_errno == 0) {
            warn("wire receiver: record log failed: %s",
                 std::strerror(log_.error()));
            stats_.log_errno = log_.error();
        }
    }

    if (published < fresh)
        return false;

    // Relaxed acking: flush credits at externally-visible events or
    // once enough deliveries accumulated.
    if (ack_point || uncredited_[tuple] >= options_.credit_every)
        sendCredit(tuple);
    return true;
}

bool
Receiver::readFrame()
{
    FrameHeader header = {};
    if (!readFull(socket_fd_, &header, sizeof(header))) {
        dropLink();
        return false;
    }
    if (!headerValid(header)) {
        ++stats_.corrupt_frames;
        dropLink();
        return false;
    }
    std::vector<std::uint8_t> body(header.body_len);
    if (header.body_len > 0 &&
        !readFull(socket_fd_, body.data(), body.size())) {
        dropLink();
        return false;
    }
    if (header.body_crc != bodyChecksum(body.data(), body.size())) {
        ++stats_.corrupt_frames;
        dropLink();
        return false;
    }

    ++stats_.frames;
    switch (static_cast<FrameType>(header.type)) {
      case FrameType::Events:
        if (!applyEvents(header, body)) {
            dropLink();
            return false;
        }
        return true;
      case FrameType::Status:
        // The status RPC reply: a serialized core::StatusReport.
        if (!decodeStatusFrame(header, body.data(), body.size(),
                               &remote_status_)) {
            ++stats_.corrupt_frames;
            dropLink();
            return false;
        }
        seen_status_ = true;
        ++stats_.status_reports;
        return true;
      case FrameType::Error:
        // A decodable rejection mid-stream (e.g. the shipper evicted
        // this receiver as too far behind): remember it and drop.
        if (decodeErrorFrame(header, body.data(), body.size(),
                             &last_error_)) {
            ++stats_.errors_received;
            warn("wire receiver: shipper reported error %u "
                 "(its epoch %u gen %u)",
                 last_error_.code, last_error_.local_epoch,
                 last_error_.local_generation);
        } else {
            ++stats_.corrupt_frames;
        }
        dropLink();
        return false;
      case FrameType::Bye:
        // Orderly end: flush remaining credits so the shipper retires
        // its retransmit buffer, then close down.
        for (std::uint32_t t = 0; t < core::kMaxTuples; ++t) {
            if (next_seq_[t] > credited_[t])
                sendCredit(t);
        }
        dropLink();
        return false;
      case FrameType::Hello:
      case FrameType::HelloAck:
      case FrameType::Credit:
      default:
        // Nothing the shipper should send mid-stream.
        ++stats_.corrupt_frames;
        dropLink();
        return false;
    }
}

int
Receiver::serveOnce(int timeout_ms)
{
    int fd = -1;
    {
        std::lock_guard<std::mutex> guard(mutex_);
        if (!link_up_.load(std::memory_order_acquire))
            return -1;
        fd = socket_fd_;
    }
    // Wait for the first frame without mutex_: the serve loop re-locks
    // the moment it unlocks, so a requestStatus()/remoteStatus() caller
    // waiting on a lock held across the wait could starve for seconds
    // on a busy machine. The wake-up is only a hint (the link may have
    // been replaced meanwhile); the locked pass below re-checks.
    struct pollfd wait = {fd, POLLIN, 0};
    ::poll(&wait, 1, timeout_ms);

    std::lock_guard<std::mutex> guard(mutex_);
    if (!link_up_.load(std::memory_order_acquire))
        return -1;
    struct pollfd pfd = {socket_fd_, POLLIN, 0};
    int frames = 0;
    for (;;) {
        int n = ::poll(&pfd, 1, 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return frames;
        if (pfd.revents & (POLLERR | POLLNVAL)) {
            dropLink();
            return -1;
        }
        if (!readFrame())
            return -1;
        ++frames;
        if (stopping_.load(std::memory_order_acquire))
            return frames;
    }
}

bool
Receiver::promoteLocked(std::uint32_t *epoch_out,
                        std::uint32_t *leader_out)
{
    if (promoted_.load(std::memory_order_acquire) ||
        stopping_.load(std::memory_order_acquire)) {
        return false;
    }
    core::ControlBlock *cb = layout_->controlBlock(region_);
    if (cb->leader_id.load(std::memory_order_acquire) != core::kNoLeader) {
        // Not an external-leader engine (or already promoted): nothing
        // to take over.
        return false;
    }

    // The same election markVariantDead runs locally: the lowest live
    // LeaderCandidate takes over. FollowerOnly variants (sanitizer
    // builds) are never promoted, across nodes either.
    const std::uint32_t live =
        cb->live_mask.load(std::memory_order_acquire);
    std::uint32_t new_leader = core::kNoLeader;
    for (std::uint32_t v = 0; v < cb->num_variants; ++v) {
        if (!(live & (1u << v)))
            continue;
        if (cb->variants[v].role.load(std::memory_order_acquire) ==
            static_cast<std::uint32_t>(core::VariantRole::LeaderCandidate)) {
            new_leader = v;
            break;
        }
    }
    if (new_leader == core::kNoLeader) {
        warn("wire receiver: leader node lost but no local leader "
             "candidate survives — cannot promote");
        return false;
    }

    // The quorum gate (v6): win a lease for the bumped generation from
    // a majority of the membership *before* any side effect. A denied
    // or unreachable quorum means another receiver is promoting (or
    // this node is the partitioned minority, in which case acquire()
    // fenced it) — either way, nothing here may bump the stream.
    std::uint64_t lease_term = 0;
    if (lease_) {
        lease_term = lease_->acquire(last_generation_ + 1);
        if (lease_term == 0) {
            if (lease_->fenced()) {
                warn("wire receiver: promotion refused — fenced off "
                     "the quorum (term %llu); buffering until the "
                     "partition heals",
                     static_cast<unsigned long long>(lease_->term()));
            } else {
                inform("wire receiver: promotion lost the election "
                       "(term %llu held by node %u) — staying standby",
                       static_cast<unsigned long long>(lease_->term()),
                       lease_->holder());
            }
            return false;
        }
    }

    dropLink();

    // Arm the failover-blackout clock: the span from here to the
    // promoted leader's first publish is the cross-node blackout (the
    // actual leader death happened at least promote_after_ns earlier,
    // but this is the first moment this node *knows*). The first
    // post-promotion publishEvent consumes the mark.
    if (trace::enabled(cb->trace)) {
        std::uint64_t expected = 0;
        cb->trace.leader_death_ns.compare_exchange_strong(
            expected, monotonicNs(), std::memory_order_acq_rel);
    }

    // Standby shipping: attach the taps *before* the election so the
    // promoted stream is complete from its first event (nothing can
    // publish until leader_id flips).
    if (!options_.standby_peers.empty()) {
        promoted_shipper_ =
            std::make_unique<Shipper>(region_, layout_,
                                      options_.promoted_ship);
        Status taps = promoted_shipper_->attachTaps();
        if (!taps.isOk()) {
            warn("wire receiver: standby shipper tap attach failed: %s",
                 taps.error().message().c_str());
            promoted_shipper_.reset();
        }
    }

    const std::uint32_t epoch =
        cb->epoch.fetch_add(1, std::memory_order_acq_rel) + 1;
    const std::uint32_t generation =
        cb->stream_generation.fetch_add(1, std::memory_order_acq_rel) + 1;
    cb->promotions.fetch_add(1, std::memory_order_acq_rel);
    cb->leader_id.store(new_leader, std::memory_order_release);
    // A resurrected pre-failover shipper must fail the next adopt().
    last_epoch_ = epoch;
    last_generation_ = generation;
    promoted_.store(true, std::memory_order_release);
    if (trace::enabled(cb->trace)) {
        trace::stamp(cb->trace, trace::Stage::Election,
                     static_cast<std::uint8_t>(new_leader), 0, epoch,
                     monotonicNs(), generation, lease_term);
    }
    inform("wire receiver: leader node lost — promoted local variant %u "
           "(epoch %u, stream generation %u, lease term %llu)",
           new_leader, epoch, generation,
           static_cast<unsigned long long>(lease_term));

    // Ship the promoted stream to the surviving nodes. A standby that
    // cannot be reached just misses the new stream — promotion itself
    // must not fail on it.
    if (promoted_shipper_) {
        for (const std::string &endpoint : options_.standby_peers) {
            auto sock = netio::connectAbstract(endpoint, 2000);
            if (!sock.ok()) {
                warn("wire receiver: standby peer '%s' unreachable",
                     endpoint.c_str());
                continue;
            }
            Status added = promoted_shipper_->addPeer(sock.value());
            if (!added.isOk()) {
                warn("wire receiver: standby peer '%s' refused the "
                     "promoted stream: %s",
                     endpoint.c_str(), added.error().message().c_str());
                ::close(sock.value());
            }
        }
        promoted_shipper_->start();
    }

    *epoch_out = epoch;
    *leader_out = new_leader;
    return true;
}

bool
Receiver::promoteNow()
{
    std::uint32_t epoch = 0;
    std::uint32_t leader = 0;
    bool took_over = false;
    {
        std::lock_guard<std::mutex> guard(mutex_);
        took_over = promoteLocked(&epoch, &leader);
    }
    // The hook runs unlocked so it may call back into the receiver
    // (stats(), localStatus()) without deadlocking.
    if (took_over && options_.on_promote)
        options_.on_promote(epoch, leader);
    return took_over;
}

void
Receiver::shipDivergences()
{
    std::lock_guard<std::mutex> guard(mutex_);
    if (!link_up_.load(std::memory_order_acquire))
        return;
    core::ControlBlock *cb = layout_->controlBlock(region_);
    trace::DivergenceRecord records[kDivergenceFrameMaxRecords];
    const std::size_t n =
        trace::ledgerRead(cb->trace, &ledger_ship_cursor_, records,
                          kDivergenceFrameMaxRecords);
    if (n == 0)
        return;
    std::uint8_t frame[kDivergenceFrameMaxBytes];
    const std::size_t len = encodeDivergenceFrame(
        records, static_cast<std::uint32_t>(n), frame);
    if (!writeFull(socket_fd_, frame, len)) {
        dropLink();
        return;
    }
    stats_.divergence_records_sent += n;
}

void
Receiver::serveLoop()
{
    // quiet = no frame arrived and no adopt() succeeded. Once it
    // exceeds promote_after the leader node is presumed dead; halfway
    // there, a Status request doubles as a liveness probe so an idle
    // but healthy leader is never deposed (its reply is a frame and
    // resets the clock).
    std::uint64_t quiet_since = monotonicNs();
    bool probe_sent = false;
    const std::uint64_t promote_after = options_.promote_after_ns;

    while (!stopping_.load(std::memory_order_acquire)) {
        if (promoted_.load(std::memory_order_acquire)) {
            // This node leads now; the promoted shipper's own pump
            // serves the stream. Stay parked until finish().
            sleepNs(1000000);
            continue;
        }
        if (link_up_.load(std::memory_order_acquire)) {
            int frames = serveOnce(options_.tick_ms);
            // Local followers replaying the remote stream append their
            // divergences to this node's ledger; relay anything new
            // upstream so the leader's coordinator sees it.
            shipDivergences();
            if (frames > 0) {
                quiet_since = monotonicNs();
                probe_sent = false;
                continue;
            }
            if (frames < 0)
                continue; // link dropped; the quiet clock keeps running
            if (promote_after == 0)
                continue;
            const std::uint64_t now = monotonicNs();
            if (!probe_sent && now - quiet_since > promote_after / 2) {
                // Idle or dead? Ask. requestStatus() drops the link
                // itself when the socket is already gone.
                requestStatus();
                probe_sent = true;
            }
            if (now - quiet_since > promote_after &&
                !promoteNow()) {
                // Lost the election or fenced: another receiver is
                // taking (or holds) the lease. Back off a full
                // deadline before contending again.
                quiet_since = monotonicNs();
                probe_sent = false;
            }
        } else {
            // Link down: wait for an adopt() from the failover path —
            // or take over when nobody re-connects in time.
            if (promote_after != 0 &&
                monotonicNs() - quiet_since > promote_after) {
                if (!promoteNow()) {
                    quiet_since = monotonicNs();
                    probe_sent = false;
                }
                continue;
            }
            sleepNs(1000000);
            if (link_up_.load(std::memory_order_acquire)) {
                quiet_since = monotonicNs();
                probe_sent = false;
            }
        }
    }
}

void
Receiver::start()
{
    VARAN_CHECK(!thread_.joinable());
    if (lease_) {
        if (!options_.quorum.listen_endpoint.empty()) {
            Status listening = lease_->listen();
            if (!listening.isOk()) {
                warn("wire receiver: quorum listen on '%s' failed: %s",
                     options_.quorum.listen_endpoint.c_str(),
                     listening.error().message().c_str());
            }
        }
        lease_->dialPeers();
        lease_->start();
    }
    thread_ = std::thread([this] { serveLoop(); });
}

Status
Receiver::finish()
{
    stopping_.store(true, std::memory_order_release);
    if (thread_.joinable())
        thread_.join();
    if (lease_)
        lease_->stop();
    if (promoted_shipper_)
        promoted_shipper_->finish();
    std::lock_guard<std::mutex> guard(mutex_);
    if (link_up_.load(std::memory_order_acquire)) {
        FrameHeader bye = makeHeader(FrameType::Bye, 0);
        writeFull(socket_fd_, &bye, sizeof(bye));
        dropLink();
    }
    if (log_.isOpen()) {
        Status closed = log_.close();
        if (!closed.isOk() && stats_.log_errno == 0)
            stats_.log_errno = closed.error().code;
    }
    return Status::ok();
}

Status
Receiver::requestStatus()
{
    std::lock_guard<std::mutex> guard(mutex_);
    if (!link_up_.load(std::memory_order_acquire))
        return Status(Errno{EPIPE});
    FrameHeader request = makeStatusRequest();
    if (!writeFull(socket_fd_, &request, sizeof(request))) {
        dropLink();
        return Status(Errno{EPIPE});
    }
    ++stats_.status_requests;
    return Status::ok();
}

bool
Receiver::remoteStatus(core::StatusReport *out) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    if (!seen_status_)
        return false;
    *out = remote_status_;
    return true;
}

core::StatusReport
Receiver::localStatus() const
{
    core::StatusReport report = core::collectStatus(region_, *layout_);
    std::lock_guard<std::mutex> guard(mutex_);
    report.receiver.active = 1;
    report.receiver.link_up =
        link_up_.load(std::memory_order_acquire) ? 1 : 0;
    report.receiver.promoted =
        promoted_.load(std::memory_order_acquire) ? 1 : 0;
    report.receiver.fenced = lease_ && lease_->fenced() ? 1 : 0;
    report.receiver.errors = static_cast<std::uint32_t>(
        stats_.errors_sent + stats_.errors_received);
    report.receiver.frames = stats_.frames;
    report.receiver.events = stats_.events;
    report.receiver.payload_bytes = stats_.payload_bytes;
    report.receiver.duplicates_dropped = stats_.duplicates_dropped;
    report.receiver.corrupt_frames = stats_.corrupt_frames;
    report.receiver.credits_sent = stats_.credits_sent;
    report.receiver.reconnects = stats_.reconnects;
    if (lease_)
        lease_->fillStatus(&report.quorum);
    return report;
}

std::uint64_t
Receiver::nextSeq(std::uint32_t tuple) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    VARAN_CHECK(tuple < core::kMaxTuples);
    return next_seq_[tuple];
}

ErrorBody
Receiver::lastError() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return last_error_;
}

Receiver::Stats
Receiver::stats() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return stats_;
}

} // namespace varan::wire
