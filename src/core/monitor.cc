#include "core/monitor.h"

#include <atomic>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <new>
#include <unistd.h>

#include "common/clock.h"
#include "common/fdpass.h"
#include "common/hash.h"
#include "common/logging.h"
#include "syscalls/raw.h"

namespace varan::core {

namespace {

Monitor *g_monitor = nullptr;
int g_crash_control_fd = -1;
std::uint32_t g_crash_variant_id = 0;
ControlBlock *g_crash_control_block = nullptr;

thread_local int t_tuple = 0; // main thread produces/consumes tuple 0

// Set in the child side of an intercepted fork: such a process owns
// only its own tuple and must not tear down variant-wide state on exit.
bool g_fork_child = false;

/** Publisher variant id travels in the event flags' top nibble. */
constexpr std::uint32_t kPublisherShift = 24;

std::uint32_t
publisherOf(const ring::Event &event)
{
    return (event.flags >> kPublisherShift) & 0xf;
}

void
crashHandler(int sig, siginfo_t *, void *)
{
    // Async-signal-safe: mark shared state, one write(), re-raise.
    if (g_crash_control_block) {
        VariantSlot &slot =
            g_crash_control_block->variants[g_crash_variant_id];
        slot.state.store(static_cast<std::uint32_t>(VariantState::Crashed),
                         std::memory_order_release);
        slot.exit_status.store(128 + sig, std::memory_order_release);
    }
    if (g_crash_control_fd >= 0) {
        CtrlMsg msg;
        msg.type = CtrlMsg::VariantCrashed;
        msg.variant = static_cast<std::int32_t>(g_crash_variant_id);
        msg.value = sig;
        [[maybe_unused]] ssize_t rc =
            ::send(g_crash_control_fd, &msg, sizeof(msg), MSG_NOSIGNAL);
    }
    ::signal(sig, SIG_DFL);
    ::raise(sig);
}

/** Winning divergence verdicts before a rewrite rule is logged as hot. */
constexpr std::uint64_t kHotRuleThreshold = 1000;

} // namespace

Monitor::Monitor(const shmem::Region *region, EngineLayout layout,
                 ChannelSet *channels, Config config)
    : region_(region), layout_(layout),
      cb_(layout.controlBlock(region)), channels_(channels),
      config_(config),
      role_(cb_->leader_id.load(std::memory_order_acquire) ==
                    config.variant_id
                ? Role::Leader
                : Role::Follower),
      pool_(layout.pool(region)),
      clock_(layout.variantClock(region, config.variant_id))
{
    for (std::uint32_t t = 0; t < kMaxTuples; ++t) {
        rings_[t] = layout.tupleRing(region, t);
        shadows_[t] = layout.tupleShadow(region, t);
    }
    for (const std::string &text : config_.rules_text) {
        if (!rules_.addRule(text).isOk())
            fatal("invalid rewrite rule: %s", rules_.lastError().c_str());
    }
    // Hot-rule detection: a rule resolving divergences at this volume
    // is a standing pattern, not an incident — surface it once so the
    // operator knows interpretation cost is recurring on this variant.
    const std::uint32_t variant_id = config_.variant_id;
    rules_.onHotRule(
        kHotRuleThreshold,
        [variant_id](std::size_t index, const bpf::RuleHeat &heat) {
            inform("variant %u: rewrite rule #%zu is hot (%llu of %llu "
                   "evaluations resolved a divergence)",
                   variant_id, index,
                   static_cast<unsigned long long>(heat.decisions),
                   static_cast<unsigned long long>(heat.evaluations));
        });
    clock_resync_pending_ = config_.resync_clock;
    tick_wait_ = config_.wait;
    tick_wait_.timeout_ns = config_.tick_ns;
}

Monitor *
Monitor::initVariant(const shmem::Region *region, EngineLayout layout,
                     ChannelSet *channels, Config config)
{
    VARAN_CHECK(g_monitor == nullptr);
    g_monitor = new Monitor(region, layout, channels, config);
    g_monitor->cb_->variants[config.variant_id].pid.store(
        static_cast<std::uint32_t>(::getpid()), std::memory_order_release);
    t_tuple = 0;
    g_monitor->installCrashHandlers();
    sys::setDispatcher(g_monitor);
    return g_monitor;
}

Monitor *
Monitor::instance()
{
    return g_monitor;
}

void
Monitor::installCrashHandlers()
{
    g_crash_control_fd =
        channels_->controlVariantEnd(config_.variant_id);
    g_crash_variant_id = config_.variant_id;
    g_crash_control_block = cb_;
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_sigaction = crashHandler;
    action.sa_flags = SA_SIGINFO;
    ::sigemptyset(&action.sa_mask);
    for (int sig : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT})
        ::sigaction(sig, &action, nullptr);
}

void
Monitor::notifyCoordinator(CtrlMsg::Type type, std::int64_t value)
{
    CtrlMsg msg;
    msg.type = type;
    msg.variant = static_cast<std::int32_t>(config_.variant_id);
    msg.value = value;
    sendCtrl(channels_->controlVariantEnd(config_.variant_id), msg);
}

int
Monitor::currentTuple()
{
    return t_tuple;
}

void
Monitor::bindThreadToTuple(int tuple)
{
    t_tuple = tuple;
    if (g_monitor) {
        g_monitor->owned_tuples_.fetch_or(1u << tuple,
                                          std::memory_order_acq_rel);
    }
}

int
Monitor::openTuple()
{
    const int tuple = currentTuple();
    const int slot = static_cast<int>(config_.variant_id);
    const bool backlog = rings_[tuple].consumerActive(slot) &&
                         rings_[tuple].lag(slot) > 0;
    if (isLeader() && !backlog) {
        if (rings_[tuple].consumerActive(slot))
            rings_[tuple].detachConsumer(slot);
        std::uint32_t t =
            cb_->num_tuples.fetch_add(1, std::memory_order_acq_rel);
        VARAN_CHECK(t < kMaxTuples);
        cb_->tuples[t].active.store(1, std::memory_order_release);
        ring::Event event = {};
        event.type = ring::EventType::Fork;
        event.nr = 0;
        event.args[0] = t;
        event.result = 0;
        publishEvent(tuple, event, 0);
        return static_cast<int>(t);
    }
    // Follower: the tuple id arrives as a Fork event in the stream.
    const std::uint64_t dummy_args[6] = {};
    long t = dispatchFollower(tuple, /*nr=*/-1, dummy_args,
                              sys::syscallInfo(-1));
    return static_cast<int>(t);
}

long
Monitor::dispatch(long nr, const std::uint64_t args[6])
{
    const sys::SyscallInfo &info = sys::syscallInfo(nr);
    cb_->variants[config_.variant_id].syscalls.fetch_add(
        1, std::memory_order_relaxed);

    switch (info.cls) {
      case sys::SyscallClass::Unhandled:
        // Footnote 8: surface unhandled calls loudly, then fall through
        // to local execution so development can continue.
        warn("unhandled syscall %ld executed locally", nr);
        [[fallthrough]];
      case sys::SyscallClass::Local:
        return sys::rawSyscall(nr, args[0], args[1], args[2], args[3],
                               args[4], args[5]);
      case sys::SyscallClass::Fork:
        return handleFork(currentTuple(), nr, args);
      case sys::SyscallClass::Exit:
        return handleExit(currentTuple(), nr, args);
      default:
        break;
    }

    const int tuple = currentTuple();
    // A promoted leader keeps replaying a tuple until its backlog of
    // buffered events is drained; only then does it start recording.
    const int slot = static_cast<int>(config_.variant_id);
    const bool backlog = rings_[tuple].consumerActive(slot) &&
                         rings_[tuple].lag(slot) > 0;
    if (isLeader() && !backlog) {
        // Before producing, release this variant's own cursor (it was
        // pre-attached when someone else led) — otherwise the new
        // leader would gate on, and eventually consume, its own events.
        if (rings_[tuple].consumerActive(slot))
            rings_[tuple].detachConsumer(slot);
        return dispatchLeader(tuple, nr, args, info);
    }
    return dispatchFollower(tuple, nr, args, info);
}

shmem::Offset
Monitor::buildPayload(int tuple, const sys::SyscallInfo &info,
                      [[maybe_unused]] long nr,
                      const std::uint64_t args[6], long result,
                      std::uint32_t *size_out, bool *spilled)
{
    // Wire format: [out0: u32 len + bytes][out1: ...][fd numbers i32x2].
    std::uint32_t lens[2] = {sys::kChunkAbsent, sys::kChunkAbsent};
    std::size_t total = 0;
    for (int i = 0; i < 2; ++i) {
        if (info.out[i].arg < 0)
            continue;
        lens[i] = sys::outChunkLen(info.out[i], args, result);
        total += sizeof(std::uint32_t);
        if (lens[i] != sys::kChunkAbsent)
            total += lens[i];
    }
    const bool fd_array = info.fd_array_arg >= 0 && result >= 0;
    if (fd_array)
        total += 2 * sizeof(std::int32_t);
    if (total == 0) {
        *size_out = 0;
        return 0;
    }

    // The tuple's own arena serves first; exhaustion spills to the
    // global-fallback arena without touching any other tuple's arena.
    shmem::Offset payload = pool_.allocate(
        static_cast<std::uint32_t>(tuple), total, 1, spilled);
    if (payload == 0) {
        // Even the fallback is exhausted: fail loudly rather than
        // corrupt.
        panic("payload pool exhausted (%zu bytes requested)", total);
    }
    auto *p = static_cast<std::uint8_t *>(pool_.pointer(payload, total));
    for (int i = 0; i < 2; ++i) {
        if (info.out[i].arg < 0)
            continue;
        std::memcpy(p, &lens[i], sizeof(std::uint32_t));
        p += sizeof(std::uint32_t);
        if (lens[i] != sys::kChunkAbsent && lens[i] > 0) {
            std::memcpy(p,
                        reinterpret_cast<const void *>(
                            args[info.out[i].arg]),
                        lens[i]);
            p += lens[i];
        }
    }
    if (fd_array) {
        const auto *fds = reinterpret_cast<const std::int32_t *>(
            args[info.fd_array_arg]);
        std::memcpy(p, fds, 2 * sizeof(std::int32_t));
        p += 2 * sizeof(std::int32_t);
    }
    *size_out = static_cast<std::uint32_t>(total);
    return payload;
}

void
Monitor::publishEvent(int tuple, ring::Event &event, shmem::Offset payload)
{
    event.timestamp = clock_.tick();
    event.flags |= config_.variant_id << kPublisherShift;

    ring::RingBuffer &ring = rings_[tuple];
    ring::WaitSpec publish_wait = config_.wait;
    publish_wait.timeout_ns = kPublishStallNs;
    std::uint64_t seq = 0;
    if (!ring.claim(1, &seq, publish_wait))
        panic("ring publish stalled: follower wedged?");

    // Free the payload that previously lived in this ring slot — only
    // now, with the slot claimed, has the gating protocol proven every
    // consumer is done with it.
    std::uint64_t *shadow = shadows_[tuple];
    std::uint64_t slot_index = seq & (cb_->ring_capacity - 1);
    if (shadow[slot_index] != 0)
        pool_.release(shadow[slot_index]);
    shadow[slot_index] = payload;

    ring.commit({&event, 1});
    cb_->events_streamed.fetch_add(1, std::memory_order_relaxed);

    if (trace::enabled(cb_->trace)) {
        // Failover blackout: a pending leader-death mark means this is
        // the first event the promoted leader pushed into the stream —
        // the moment followers stop starving.
        std::uint64_t death =
            cb_->trace.leader_death_ns.load(std::memory_order_relaxed);
        if (death != 0 &&
            cb_->trace.leader_death_ns.compare_exchange_strong(
                death, 0, std::memory_order_acq_rel)) {
            const std::uint64_t now = monotonicNs();
            if (now > death)
                trace::histogramRecord(cb_->trace.blackout, now - death);
            trace::stamp(cb_->trace, trace::Stage::Promotion,
                         static_cast<std::uint8_t>(config_.variant_id),
                         static_cast<std::uint8_t>(tuple),
                         cb_->epoch.load(std::memory_order_relaxed), now,
                         now - death);
        }
        if (trace::sampled(event.timestamp)) {
            const std::uint64_t now = monotonicNs();
            trace::lagMark(cb_->trace, event.timestamp, now);
            trace::stamp(cb_->trace, trace::Stage::LeaderPublish,
                         static_cast<std::uint8_t>(config_.variant_id),
                         static_cast<std::uint8_t>(tuple), event.nr, now,
                         event.timestamp, seq);
        }
    }
}

long
Monitor::dispatchLeader(int tuple, long nr, const std::uint64_t args[6],
                        const sys::SyscallInfo &info)
{
    long result = sys::rawSyscall(nr, args[0], args[1], args[2], args[3],
                                  args[4], args[5]);
    if (result == sys::kErestartsys) {
        // Restart support (section 3.2): retry the interrupted call.
        result = sys::rawSyscall(nr, args[0], args[1], args[2], args[3],
                                 args[4], args[5]);
    }

    ring::Event event = {};
    event.type = ring::EventType::Syscall;
    event.nr = static_cast<std::uint16_t>(nr);
    event.result = result;
    for (unsigned i = 0; i < ring::kInlineArgs; ++i)
        event.args[i] = args[i];

    std::uint32_t payload_size = 0;
    bool spilled = false;
    shmem::Offset payload = buildPayload(tuple, info, nr, args, result,
                                         &payload_size, &spilled);
    if (payload != 0) {
        event.flags |= ring::kHasPayload;
        if (spilled)
            event.flags |= ring::kPayloadGlobalArena;
        event.payload = static_cast<std::uint32_t>(payload);
        event.payload_size = payload_size;
    } else if (config_.verify_divergence && info.hashed_in.arg >= 0 &&
               args[info.hashed_in.arg] != 0) {
        // Write-family call: followers must pass the same bytes.
        const auto hash_len =
            static_cast<std::uint32_t>(args[info.hashed_in.len_arg]);
        event.flags |= ring::kDataHash;
        event.payload = crc32c(
            reinterpret_cast<const void *>(args[info.hashed_in.arg]),
            hash_len);
        event.payload_size = hash_len;
    }

    // Descriptor transfer happens before publication so a follower that
    // sees the event will always find the descriptor in its channel.
    // The tag's upper half names the publishing tuple: all tuples share
    // one channel per variant pair, and the follower-side demux routes
    // each descriptor to the thread replaying that tuple.
    if (info.cls == sys::SyscallClass::FdCreating && result >= 0) {
        event.flags |= ring::kFdTransfer;
        const std::uint64_t tuple_tag = static_cast<std::uint64_t>(tuple)
                                        << 32;
        std::uint32_t live = cb_->live_mask.load(std::memory_order_acquire);
        for (std::uint32_t v = 0; v < cb_->num_variants; ++v) {
            if (v == config_.variant_id || !(live & (1u << v)))
                continue;
            int channel = channels_->data(config_.variant_id, v);
            if (info.fd_array_arg >= 0) {
                const auto *fds = reinterpret_cast<const std::int32_t *>(
                    args[info.fd_array_arg]);
                sendFd(channel, fds[0],
                       tuple_tag | static_cast<std::uint32_t>(fds[0]));
                sendFd(channel, fds[1],
                       tuple_tag | static_cast<std::uint32_t>(fds[1]));
            } else {
                sendFd(channel, static_cast<int>(result),
                       tuple_tag | static_cast<std::uint32_t>(result));
            }
            cb_->fd_transfers.fetch_add(1, std::memory_order_relaxed);
        }
    }

    publishEvent(tuple, event, payload);
    return result;
}

void
Monitor::applyPayload(const ring::Event &event,
                      const sys::SyscallInfo &info,
                      const std::uint64_t args[6])
{
    if (!event.hasPayload())
        return;
    const auto *p = static_cast<const std::uint8_t *>(
        pool_.pointer(event.payload, event.payload_size));
    for (int i = 0; i < 2; ++i) {
        if (info.out[i].arg < 0)
            continue;
        std::uint32_t len;
        std::memcpy(&len, p, sizeof(len));
        p += sizeof(len);
        if (len == sys::kChunkAbsent)
            continue;
        void *dst = reinterpret_cast<void *>(args[info.out[i].arg]);
        if (dst && len > 0)
            std::memcpy(dst, p, len);
        if (info.out[i].len_from == sys::LenFrom::DerefArg &&
            args[info.out[i].len_arg] != 0) {
            std::memcpy(reinterpret_cast<void *>(args[info.out[i].len_arg]),
                        &len, sizeof(len));
        }
        p += len;
    }
}

namespace {

/**
 * First descriptor number used to park in-flight transfers. recvmsg
 * assigns temporaries the lowest free number — squarely inside the
 * application range a concurrent mirror() may dup2 over, which would
 * silently destroy the in-flight descriptor. Parking moves every
 * received descriptor above the application range (and below the
 * engine channels at 960+) for the window between receipt and
 * mirroring.
 */
constexpr int kFdParkBase = 800;

Fd
parkFd(Fd low)
{
    long parked = sys::rawSyscall(SYS_fcntl, low.get(), F_DUPFD,
                                  kFdParkBase);
    if (parked < 0)
        return low; // table exhausted: keep the low number, best effort
    return Fd(static_cast<int>(parked)); // `low` closes on return
}

} // namespace

void
Monitor::resetProcessStateAfterFork(int child_tuple)
{
    // The child owns exactly its own tuple. Inherited inbox state is
    // the parent's: parked descriptors belong to the parent's tuples,
    // and a mutex may have been captured locked if another thread was
    // mid-queue-operation at fork time. Reconstruct in place — the
    // deliberate leak of the old deques' memory is one-shot and tiny,
    // and beats undefined behaviour from destroying a locked mutex.
    for (std::uint32_t v = 0; v < kMaxVariants; ++v)
        new (&fd_inboxes_[v]) FdInbox();
    owned_tuples_.store(1u << child_tuple, std::memory_order_release);
}

Result<Fd>
Monitor::recvFdFor(std::uint32_t publisher, std::uint32_t tuple)
{
    VARAN_CHECK(tuple < kMaxTuples);
    FdInbox &inbox = fd_inboxes_[publisher];
    // One drainer at a time: the lock is held across the blocking recv
    // so a waiting thread always finds its descriptor either parked by
    // the previous drainer or next on the channel — concurrent recvs
    // could strand a thread in recvmsg while its message sits parked.
    // Fork safety comes from resetFdRoutingAfterFork(), which discards
    // any inherited (possibly locked) inbox in the child.
    std::lock_guard<std::mutex> guard(inbox.mutex);
    std::deque<Fd> &mine = inbox.pending[tuple];
    if (!mine.empty()) {
        Fd fd = std::move(mine.front());
        mine.pop_front();
        return fd;
    }
    int channel = channels_->data(config_.variant_id, publisher);
    for (;;) {
        auto got = recvFd(channel);
        if (!got.ok())
            return Result<Fd>(got.error());
        const auto from = static_cast<std::uint32_t>(got.value().tag >> 32);
        if (from == tuple)
            return parkFd(std::move(got.value().fd));
        const std::uint32_t owned =
            owned_tuples_.load(std::memory_order_acquire);
        if (from < kMaxTuples && (owned & (1u << from))) {
            // A sibling thread of this process will come for it.
            inbox.pending[from].push_back(parkFd(std::move(got.value().fd)));
            continue;
        }
        // The message belongs to a tuple replayed by another process on
        // this shared channel (plain-fork process tuples): holding it
        // would starve that process forever, so fall back to carrier
        // semantics — mirroring uses the event's descriptor number, any
        // received object serves as the carrier, and the sibling
        // process symmetrically uses whatever message it draws.
        if (from >= kMaxTuples)
            warn("fd transfer with corrupt tuple tag %u", from);
        return parkFd(std::move(got.value().fd));
    }
}

void
Monitor::receiveFds(const ring::Event &event,
                    const sys::SyscallInfo &info,
                    const std::uint64_t args[6])
{
    if (!event.transfersFd() || event.result < 0)
        return;
    const std::uint32_t publisher = publisherOf(event);
    const auto tuple = static_cast<std::uint32_t>(currentTuple());

    auto mirror = [&](std::int32_t leader_number) {
        auto got = recvFdFor(publisher, tuple);
        if (!got.ok()) {
            warn("fd transfer from variant %u failed: %s", publisher,
                 got.error().message().c_str());
            return;
        }
        Fd received = std::move(got.value());
        if (received.get() != leader_number) {
            // Mirror the leader's numbering so later events (close,
            // epoll_ctl, ...) refer to the same descriptor here.
            sys::rawSyscall(SYS_dup2, received.get(), leader_number);
            // `received` closes the temporary on scope exit.
        } else {
            received.release(); // already at the right number
        }
    };

    if (info.fd_array_arg >= 0) {
        // The leader's two descriptor numbers are at the payload tail.
        VARAN_CHECK(event.hasPayload());
        const auto *tail = static_cast<const std::uint8_t *>(
                               pool_.pointer(event.payload,
                                             event.payload_size)) +
                           event.payload_size - 2 * sizeof(std::int32_t);
        std::int32_t fds[2];
        std::memcpy(fds, tail, sizeof(fds));
        mirror(fds[0]);
        mirror(fds[1]);
        auto *mine = reinterpret_cast<std::int32_t *>(
            args[info.fd_array_arg]);
        if (mine) {
            mine[0] = fds[0];
            mine[1] = fds[1];
        }
    } else {
        mirror(static_cast<std::int32_t>(event.result));
    }
}

void
Monitor::recordDivergence(const ring::Event &event, long nr,
                          const std::uint64_t args[6],
                          trace::DivergenceAction action)
{
    trace::DivergenceRecord rec = {};
    rec.lamport = event.timestamp;
    rec.arg_digest = crc32c(args, 6 * sizeof(std::uint64_t));
    rec.ns = monotonicNs();
    rec.origin_id = 0; // local node; the wire relay overwrites this
    rec.epoch = cb_->epoch.load(std::memory_order_acquire);
    rec.expected_nr = event.nr;
    rec.observed_nr = static_cast<std::uint32_t>(nr);
    rec.expected_type = static_cast<std::uint16_t>(event.type);
    rec.observed_type =
        static_cast<std::uint16_t>(ring::EventType::Syscall);
    rec.variant = static_cast<std::uint8_t>(config_.variant_id);
    rec.tuple = static_cast<std::uint8_t>(currentTuple());
    rec.action = static_cast<std::uint8_t>(action);
    trace::ledgerAppend(cb_->trace, rec);
    if (trace::enabled(cb_->trace)) {
        trace::stamp(cb_->trace, trace::Stage::Divergence, rec.variant,
                     rec.tuple, rec.observed_nr, rec.ns, rec.lamport,
                     rec.expected_nr);
    }
}

Monitor::DivergenceOutcome
Monitor::resolveDivergence(const ring::Event &event, long nr,
                           const std::uint64_t args[6], long *result_out)
{
    bpf::FilterContext ctx;
    ctx.data.nr = static_cast<std::int32_t>(nr);
    for (int i = 0; i < 6; ++i)
        ctx.data.args[i] = args[i];
    ctx.event = &event;

    bpf::RuleDecision decision = rules_.evaluate(ctx);
    switch (decision.action) {
      case bpf::RuleAction::Allow:
        // The follower performs its additional system call itself
        // (section 5.2); the leader's event stays queued.
        *result_out = sys::rawSyscall(nr, args[0], args[1], args[2],
                                      args[3], args[4], args[5]);
        recordDivergence(event, nr, args,
                         trace::DivergenceAction::Resolved);
        cb_->divergences_resolved.fetch_add(1, std::memory_order_relaxed);
        return DivergenceOutcome::ExecutedLocally;
      case bpf::RuleAction::Skip:
        recordDivergence(event, nr, args,
                         trace::DivergenceAction::Resolved);
        cb_->divergences_resolved.fetch_add(1, std::memory_order_relaxed);
        return DivergenceOutcome::SkippedEvent;
      case bpf::RuleAction::Errno:
        *result_out = -decision.err;
        recordDivergence(event, nr, args,
                         trace::DivergenceAction::Resolved);
        cb_->divergences_resolved.fetch_add(1, std::memory_order_relaxed);
        return DivergenceOutcome::SyntheticErrno;
      case bpf::RuleAction::Kill:
      default:
        recordDivergence(event, nr, args, trace::DivergenceAction::Fatal);
        fatalDivergence(event, nr);
    }
}

void
Monitor::fatalDivergence(const ring::Event &event, long nr)
{
    cb_->divergences_fatal.fetch_add(1, std::memory_order_relaxed);
    warn("fatal divergence: follower %u wants syscall %ld, leader "
         "streamed %u (type %u)",
         config_.variant_id, nr, event.nr,
         static_cast<unsigned>(event.type));
    VariantSlot &slot = cb_->variants[config_.variant_id];
    slot.state.store(static_cast<std::uint32_t>(VariantState::Crashed),
                     std::memory_order_release);
    slot.exit_status.store(kDivergenceExitStatus,
                           std::memory_order_release);
    notifyCoordinator(CtrlMsg::VariantCrashed, kDivergenceExitStatus);
    ::_exit(kDivergenceExitStatus);
}

bool
Monitor::maybePromote()
{
    std::lock_guard<std::mutex> guard(promote_mutex_);
    if (isLeader())
        return true;
    if (cb_->leader_id.load(std::memory_order_acquire) !=
        config_.variant_id) {
        return false;
    }
    // Switch the system call table (section 5.1): from here on this
    // variant records instead of replaying. Per-tuple backlogs drain
    // before each thread starts producing (see dispatch()).
    role_.store(Role::Leader, std::memory_order_release);
    if (trace::enabled(cb_->trace)) {
        trace::stamp(cb_->trace, trace::Stage::Promotion,
                     static_cast<std::uint8_t>(config_.variant_id), 0,
                     cb_->epoch.load(std::memory_order_acquire),
                     monotonicNs());
    }
    // Same line for a local election and a cross-node promotion (an
    // external-leader engine whose receiver elected this variant): the
    // generation tells an operator which stream identity this leader
    // now publishes.
    inform("variant %u promoted to leader (epoch %u, stream generation "
           "%u)",
           config_.variant_id, cb_->epoch.load(std::memory_order_acquire),
           cb_->stream_generation.load(std::memory_order_acquire));
    return true;
}

long
Monitor::dispatchFollower(int tuple, long nr, const std::uint64_t args[6],
                          const sys::SyscallInfo &info)
{
    const int slot = static_cast<int>(config_.variant_id);
    const bool expect_fork = nr < 0;
    const std::uint64_t deadline =
        monotonicNs() + config_.progress_timeout_ns;
    ring::RingBuffer &ring = rings_[tuple];
    PeekCache &cache = peeked_[tuple];

    for (;;) {
        // Promoted (and this tuple's backlog is drained)?
        if (isLeader() && ring.lag(slot) == 0) {
            cache.pos = cache.count = 0;
            if (ring.consumerActive(slot))
                ring.detachConsumer(slot);
            if (expect_fork) {
                // Re-run as leader: allocate and announce the tuple.
                std::uint32_t t = cb_->num_tuples.fetch_add(
                    1, std::memory_order_acq_rel);
                VARAN_CHECK(t < kMaxTuples);
                cb_->tuples[t].active.store(1, std::memory_order_release);
                ring::Event event = {};
                event.type = ring::EventType::Fork;
                event.args[0] = t;
                publishEvent(tuple, event, 0);
                return static_cast<long>(t);
            }
            return dispatchLeader(tuple, nr, args, info);
        }

        // Refill the read-ahead: one head acquire covers a whole run of
        // already-published events. The peeked slots stay claimed —
        // and their pool payloads alive — until each event is processed
        // and individually advanced below.
        if (cache.pos == cache.count) {
            cache.pos = 0;
            cache.count = static_cast<std::uint32_t>(
                ring.peekBatch(slot, cache.events, kPeekRun, tick_wait_));
            if (cache.count == 0) {
                if (cb_->leader_id.load(std::memory_order_acquire) ==
                    config_.variant_id) {
                    maybePromote();
                    continue;
                }
                if (monotonicNs() > deadline) {
                    panic("follower %u made no progress for %llu ms "
                          "(tuple %d, waiting for syscall %ld)",
                          config_.variant_id,
                          static_cast<unsigned long long>(
                              config_.progress_timeout_ns / 1000000),
                          tuple, nr);
                }
                continue;
            }
        }
        const ring::Event &event = cache.events[cache.pos];

        // A restarted incarnation joined at the stream tail: its shared
        // clock is frozen wherever the dead incarnation left it, so the
        // first observed event defines "now". Single-tuple semantics —
        // with several live tuples the cross-tuple order before this
        // point is unrecoverable (see RestartPolicy docs).
        if (clock_resync_pending_) {
            clock_.advanceTo(event.timestamp - 1);
            clock_resync_pending_ = false;
        }

        // Enforce the leader's total order across tuples (Figure 3).
        if (!clock_.awaitTurn(event.timestamp, tick_wait_))
            continue; // re-check promotion/shutdown, then retry

        const bool matches =
            expect_fork
                ? event.type == ring::EventType::Fork
                : (event.type == ring::EventType::Syscall &&
                   event.nr == static_cast<std::uint16_t>(nr));
        if (!matches) {
            long result = 0;
            switch (resolveDivergence(event, expect_fork ? -1 : nr, args,
                                      &result)) {
              case DivergenceOutcome::ExecutedLocally:
              case DivergenceOutcome::SyntheticErrno:
                // The leader's event stays queued (and cached).
                return result;
              case DivergenceOutcome::SkippedEvent:
                ring.advance(slot);
                ++cache.pos;
                clock_.advanceTo(event.timestamp);
                continue;
            }
        }

        if (expect_fork) {
            ring.advance(slot);
            ++cache.pos;
            clock_.advanceTo(event.timestamp);
            return static_cast<long>(event.args[0]);
        }

        // Content cross-check for write-family calls (section 2.2's
        // divergent-behaviour detection).
        if ((event.flags & ring::kDataHash) && config_.verify_divergence &&
            info.hashed_in.arg >= 0) {
            std::uint32_t my_hash = crc32c(
                reinterpret_cast<const void *>(args[info.hashed_in.arg]),
                event.payload_size);
            if (my_hash != event.payload) {
                recordDivergence(event, nr, args,
                                 trace::DivergenceAction::Fatal);
                fatalDivergence(event, nr);
            }
        }

        applyPayload(event, info, args);
        receiveFds(event, info, args);

        // The follower closes its own duplicate so descriptor tables
        // stay mirrored.
        if (nr == SYS_close)
            sys::rawSyscall(SYS_close, args[0]);

        if (trace::enabled(cb_->trace) &&
            trace::sampled(event.timestamp)) {
            // Same 1-in-64 predicate as the leader's lagMark: the pair
            // meets on the shared table and yields one publish→dispatch
            // sample with no cross-process coordination.
            const std::uint64_t now = monotonicNs();
            trace::lagMatch(cb_->trace, event.timestamp, now);
            trace::stamp(cb_->trace, trace::Stage::FollowerDispatch,
                         static_cast<std::uint8_t>(config_.variant_id),
                         static_cast<std::uint8_t>(tuple), event.nr, now,
                         event.timestamp);
        }

        ring.advance(slot);
        ++cache.pos;
        clock_.advanceTo(event.timestamp);
        return event.result;
    }
}

long
Monitor::handleFork([[maybe_unused]] int tuple, [[maybe_unused]] long nr,
                    [[maybe_unused]] const std::uint64_t args[6])
{
    // clone() with thread flags is the VThread path; plain fork/clone
    // spawns a process tuple.
    int child_tuple = openTuple();
    long result = sys::rawSyscall(SYS_fork);
    if (result == 0) {
        // The child keeps the parent's role: leader children lead their
        // tuple, follower children follow it. Inherited fd-routing
        // state is the parent's and must not survive into the child.
        bindThreadToTuple(child_tuple);
        g_fork_child = true;
        resetProcessStateAfterFork(child_tuple);
    }
    return result;
}

long
Monitor::handleExit(int tuple, long nr, const std::uint64_t args[6])
{
    const int status = static_cast<int>(args[0]);
    const int slot = static_cast<int>(config_.variant_id);

    if (!isLeader()) {
        // Replay until the Exit event is reached. The drained events are
        // discarded (no payload is read), so the backlog can be consumed
        // in batches: one cursor advance covers a whole run of events
        // and the slots go back to the producer immediately — an exiting
        // consumer must not gate the leader (the failover invariant of
        // section 5.1). The variant clock is still stepped per event, in
        // timestamp order, so sibling tuples observe the same
        // happens-before order as with single-event replay.
        constexpr std::size_t kExitDrainBatch = 32;
        ring::RingBuffer &ring = rings_[tuple];
        // Drop the read-ahead: the drain re-reads from the cursor, and
        // nothing may serve stale cached events after it.
        peeked_[tuple].pos = peeked_[tuple].count = 0;
        ring::Event batch[kExitDrainBatch];
        const std::uint64_t deadline =
            monotonicNs() + config_.progress_timeout_ns;
        bool draining = true;
        while (draining) {
            if (isLeader())
                break; // promoted mid-exit: just leave
            std::size_t n =
                ring.consumeBatch(slot, batch, kExitDrainBatch, tick_wait_);
            if (n == 0) {
                if (cb_->leader_id.load(std::memory_order_acquire) ==
                    config_.variant_id) {
                    maybePromote();
                    continue;
                }
                if (monotonicNs() > deadline)
                    break; // give up waiting; exit anyway
                continue;
            }
            for (std::size_t i = 0; i < n && draining; ++i) {
                if (clock_resync_pending_) {
                    clock_.advanceTo(batch[i].timestamp - 1);
                    clock_resync_pending_ = false;
                }
                while (!clock_.awaitTurn(batch[i].timestamp, tick_wait_)) {
                    if (isLeader() || monotonicNs() > deadline) {
                        draining = false;
                        break;
                    }
                }
                if (!draining)
                    break;
                clock_.advanceTo(batch[i].timestamp);
                if (batch[i].type == ring::EventType::Exit)
                    draining = false;
            }
        }
    }

    if (g_fork_child) {
        // A forked child owns only its tuple: announce/consume the
        // tuple's Exit, release just this tuple's cursor, and leave the
        // variant-wide state to the main process.
        if (isLeader()) {
            ring::Event event = {};
            event.type = ring::EventType::Exit;
            event.nr = static_cast<std::uint16_t>(nr);
            event.result = status;
            publishEvent(tuple, event, 0);
        } else if (rings_[tuple].consumerActive(slot)) {
            rings_[tuple].detachConsumer(slot);
        }
        sys::rawSyscall(nr, status);
        ::_exit(status);
    }

    finishVariant(status);
    sys::rawSyscall(nr, status);
    ::_exit(status); // unreachable for exit_group; belt and braces
}

void
Monitor::finishVariant(int status)
{
    VariantSlot &slot = cb_->variants[config_.variant_id];
    std::uint32_t running =
        static_cast<std::uint32_t>(VariantState::Running);
    if (!slot.state.compare_exchange_strong(
            running, static_cast<std::uint32_t>(VariantState::Exited))) {
        return; // already crashed/exited
    }
    slot.exit_status.store(status, std::memory_order_release);

    // Stop gating producers (and never gate on our own publishes).
    for (std::uint32_t t = 0; t < kMaxTuples; ++t) {
        if (rings_[t].consumerActive(static_cast<int>(config_.variant_id)))
            rings_[t].detachConsumer(static_cast<int>(config_.variant_id));
    }
    if (isLeader()) {
        ring::Event event = {};
        event.type = ring::EventType::Exit;
        event.nr = SYS_exit_group;
        event.result = status;
        publishEvent(currentTuple(), event, 0);
    }
    sys::setDispatcher(nullptr);
    notifyCoordinator(CtrlMsg::VariantExited, status);
}

} // namespace varan::core
