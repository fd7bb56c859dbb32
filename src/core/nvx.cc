#include "core/nvx.h"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "adapt/autotuner.h"
#include "common/clock.h"
#include "common/logging.h"
#include "netio/socketio.h"
#include "wire/io.h"
#include "wire/protocol.h"
#include "wire/shipper.h"

namespace varan::core {

Nvx::Nvx(EngineConfig config) : config_(std::move(config))
{
    auto region = shmem::Region::create(config_.shm_bytes);
    if (!region.ok())
        fatal("cannot create shared region: %s",
              region.error().message().c_str());
    region_ = std::move(region.value());
}

Nvx::~Nvx()
{
    if (started_ && !finished_)
        shutdownZygote();
    status_stop_.store(true, std::memory_order_release);
    if (status_thread_.joinable())
        status_thread_.join();
    if (status_listen_fd_ >= 0)
        ::close(status_listen_fd_);
    if (monitor_thread_.joinable())
        monitor_thread_.join();
    if (zygote_pid_ > 0) {
        int status = 0;
        ::waitpid(zygote_pid_, &status, 0);
    }
}

ControlBlock *
Nvx::controlBlock() const
{
    return layout_.controlBlock(&region_);
}

Status
Nvx::start(std::vector<VariantSpec> specs)
{
    specs_ = std::move(specs);
    return start();
}

Status
Nvx::start(std::vector<VariantSpec> specs,
           const std::function<void(Nvx &)> &pre_spawn)
{
    specs_ = std::move(specs);
    return start(pre_spawn);
}

Status
Nvx::start(std::vector<VariantFn> variants)
{
    return start(std::move(variants), {});
}

Status
Nvx::start(std::vector<VariantFn> variants,
           const std::function<void(Nvx &)> &pre_spawn)
{
    std::vector<VariantSpec> specs;
    specs.reserve(variants.size());
    for (VariantFn &fn : variants)
        specs.emplace_back(std::move(fn));
    specs_ = std::move(specs);
    return start(pre_spawn);
}

Status
Nvx::start()
{
    return start(std::function<void(Nvx &)>{});
}

Status
Nvx::start(const std::function<void(Nvx &)> &pre_spawn)
{
    VARAN_CHECK(!started_);
    VARAN_CHECK(!specs_.empty() && specs_.size() <= kMaxVariants);
    for (const VariantSpec &spec : specs_)
        VARAN_CHECK(spec.entry != nullptr);
    num_variants_ = static_cast<std::uint32_t>(specs_.size());
    results_.assign(num_variants_, VariantResult{});
    reaped_ = std::vector<std::atomic<bool>>(num_variants_);
    restarts_.assign(num_variants_, 0);
    for (std::uint32_t v = 0; v < num_variants_; ++v)
        results_[v].variant = static_cast<int>(v);

    // Initial leader: the configured index, unless its spec is
    // FollowerOnly — then the lowest LeaderCandidate takes the role.
    std::uint32_t leader = kNoLeader;
    if (!config_.external_leader) {
        VARAN_CHECK(config_.leader_index < num_variants_);
        leader = config_.leader_index;
        if (specs_[leader].role == VariantRole::FollowerOnly) {
            leader = kNoLeader;
            for (std::uint32_t v = 0; v < num_variants_; ++v) {
                if (specs_[v].role == VariantRole::LeaderCandidate) {
                    leader = v;
                    break;
                }
            }
            if (leader == kNoLeader)
                return Status(Errno{EINVAL}); // nobody may lead
            inform("leader index %u is FollowerOnly; variant %u leads",
                   config_.leader_index, leader);
        }
    }

    layout_ = EngineLayout::create(&region_, num_variants_, leader,
                                   config_.ring.capacity);
    ControlBlock *cb = controlBlock();
    for (std::uint32_t v = 0; v < num_variants_; ++v)
        cb->variants[v].role.store(
            static_cast<std::uint32_t>(specs_[v].role),
            std::memory_order_release);

    // Seed the live knob surface from the configured initial Tuning.
    // Seeding is first-writer-wins, so a pre_spawn hook (or anyone
    // else) writing through Nvx::tuning() afterwards still overrides.
    seedTuning(cb->tuning, config_.tuning);
    cb->trace.enabled.store(config_.trace_enabled ? 1 : 0,
                            std::memory_order_release);

    if (pre_spawn)
        pre_spawn(*this);

    // Multi-node shipping: taps must attach before any variant runs so
    // the remote stream starts at event one, and every link must be up
    // before the leader can outrun the credit windows. One shipper
    // serves all configured peers (fan-out).
    const std::vector<std::string> peers = config_.remote.allEndpoints();
    if (!peers.empty()) {
        wire::Shipper::Options ship;
        ship.ship_batch = config_.tuning.ship_batch;
        ship.credit_window = config_.tuning.credit_window;
        ship.status_push_ns = config_.remote.status_push_interval_ns;
        shipper_ = std::make_unique<wire::Shipper>(&region_, &layout_, ship);
        Status taps = shipper_->attachTaps();
        if (!taps.isOk())
            return taps;
        for (const std::string &endpoint : peers) {
            auto sock = netio::connectAbstract(endpoint);
            if (!sock.ok())
                return Status(sock.error());
            Status shaken = shipper_->addPeer(sock.value());
            if (!shaken.isOk())
                return shaken;
        }
        shipper_->start();
    }

    // Out-of-process inspection: serve the wire Status RPC on the
    // configured abstract socket so `varanctl dial <name>` works
    // without any peer shipping configured.
    if (!config_.remote.status_endpoint.empty()) {
        auto listen = netio::listenAbstract(config_.remote.status_endpoint);
        if (!listen.ok())
            return Status(listen.error());
        status_listen_fd_ = listen.value();
        status_thread_ = std::thread([this] { statusServeLoop(); });
    }

    auto channels = ChannelSet::create(num_variants_);
    if (!channels.ok())
        return Status(channels.error());
    channels_ = std::move(channels.value());

    // Fork the zygote (Figure 2 step B) while the address space still
    // holds everything a variant will need.
    pid_t pid = ::fork();
    if (pid < 0)
        return Status::fromErrno();
    if (pid == 0)
        zygoteMain(); // never returns
    zygote_pid_ = pid;

    // Ask the zygote to spawn each variant (steps C/D) and wait for
    // the acknowledgements so start() returning means "all running".
    int zfd = channels_.zygoteCoordinatorEnd();
    for (std::uint32_t v = 0; v < num_variants_; ++v) {
        CtrlMsg msg;
        msg.type = CtrlMsg::SpawnRequest;
        msg.variant = static_cast<std::int32_t>(v);
        Status sent = sendCtrl(zfd, msg);
        if (!sent.isOk())
            return sent;
    }
    // A variant may run to completion before we even collected all the
    // spawn acknowledgements; exit notifications that race ahead are
    // stashed for the monitor loop.
    std::uint32_t acked = 0;
    while (acked < num_variants_) {
        auto reply = recvCtrl(zfd);
        if (!reply.ok())
            return Status(reply.error());
        if (reply.value().type == CtrlMsg::SpawnReply) {
            if (reply.value().value > 0) {
                controlBlock()
                    ->variants[reply.value().variant]
                    .pid.store(
                        static_cast<std::uint32_t>(reply.value().value),
                        std::memory_order_release);
            }
            ++acked;
        } else {
            early_zygote_msgs_.push_back(reply.value());
        }
    }

    started_ = true;

    // Adaptive controller: retunes the unpinned knobs online from the
    // sampled syscall mix, ring occupancy and (when shipping) the wire
    // drain statistics. Started after the spawn acks so its first
    // baseline tick sees a running engine.
    if (config_.adapt.enabled) {
        adapt::AutoTuner::Options opts;
        opts.tick_ns = config_.adapt.tick_ns;
        opts.controller.hysteresis = config_.adapt.hysteresis;
        opts.controller.settle_ticks = config_.adapt.settle_ticks;
        adapt::Sampler::WireSource wire_source;
        if (shipper_) {
            wire::Shipper *shipper = shipper_.get();
            wire_source = [shipper] {
                adapt::WireSample w;
                const auto stats = shipper->stats();
                w.active = true;
                w.events = stats.events;
                w.drain_passes = stats.drain_passes;
                w.credit_stalls = stats.credit_stalls;
                return w;
            };
        }
        autotuner_ = std::make_unique<adapt::AutoTuner>(
            &region_, &layout_, opts, std::move(wire_source));
        autotuner_->start();
    }

    monitor_thread_ = std::thread([this] { monitorLoop(); });
    return Status::ok();
}

void
Nvx::zygoteMain()
{
    channels_.closeCoordinatorEnds();
    const int zfd = channels_.zygoteZygoteEnd();
    std::vector<pid_t> child_of(num_variants_, -1);
    std::uint32_t alive_children = 0;
    bool accepting = true;

    auto reap = [&]() {
        for (;;) {
            int status = 0;
            pid_t dead = ::waitpid(-1, &status, WNOHANG);
            if (dead <= 0)
                return;
            for (std::uint32_t v = 0; v < num_variants_; ++v) {
                if (child_of[v] == dead) {
                    child_of[v] = -1;
                    --alive_children;
                    CtrlMsg note;
                    note.type = CtrlMsg::VariantExited;
                    note.variant = static_cast<std::int32_t>(v);
                    note.value = status;
                    sendCtrl(zfd, note);
                    break;
                }
            }
        }
    };

    for (;;) {
        struct pollfd pfd = {zfd, POLLIN, 0};
        int n = ::poll(&pfd, 1, 50);
        reap();
        if (n <= 0) {
            if (!accepting && alive_children == 0)
                ::_exit(0);
            continue;
        }
        auto msg = recvCtrl(zfd);
        if (!msg.ok() || msg.value().type == CtrlMsg::Shutdown) {
            // Coordinator is gone or wants teardown: kill straggler
            // subtrees (group kill reaches fork-tuple children and app
            // workers the variant spawned).
            for (std::uint32_t v = 0; v < num_variants_; ++v) {
                if (child_of[v] > 0)
                    ::kill(-child_of[v], SIGKILL);
            }
            accepting = false;
            if (alive_children == 0)
                ::_exit(0);
            continue;
        }
        // Once teardown started, late respawn requests must not fork a
        // child nobody will ever reap into a dying engine.
        if (!accepting || msg.value().type != CtrlMsg::SpawnRequest)
            continue;
        const auto v =
            static_cast<std::uint32_t>(msg.value().variant);
        // Restart respawns flag themselves (CtrlMsg::value != 0): the
        // fresh follower joins the live stream at the tail and must
        // resynchronise its Lamport clock from the first event it sees.
        const bool restart_spawn = msg.value().value != 0;

        pid_t pid = ::fork();
        if (pid < 0) {
            // Spawn failed (EAGAIN under pid/memory pressure). Ack so
            // start()'s spawn count still completes, then report an
            // immediate synthetic exit: the coordinator rolls the
            // variant's armed state back (detaches the pre-attached
            // ring cursors, clears the live bit) instead of leaving a
            // phantom consumer gating the leader forever.
            CtrlMsg reply;
            reply.type = CtrlMsg::SpawnReply;
            reply.variant = msg.value().variant;
            reply.value = -1;
            sendCtrl(zfd, reply);
            CtrlMsg note;
            note.type = CtrlMsg::VariantExited;
            note.variant = msg.value().variant;
            note.value = 127 << 8; // WEXITSTATUS(status) == 127
            sendCtrl(zfd, note);
            continue;
        }
        if (pid == 0) {
            // ---- variant process (Figure 2 right-hand side) ----
            // Own process group: teardown kills the variant's whole
            // subtree (fork-tuple children, app worker processes).
            ::setpgid(0, 0);
            channels_.closeAllExceptVariant(v);
            channels_.relocateVariantEndsHigh(v);
            region_.closeBackingFd();

            Monitor::Config config;
            config.variant_id = v;
            config.wait = config_.ring.wait;
            config.verify_divergence = config_.verify_divergence;
            // This variant's own rules come first (first verdict other
            // than KILL wins), then the engine-global set.
            config.rules_text = specs_[v].rewrite_rules;
            config.rules_text.insert(config.rules_text.end(),
                                     config_.rewrite_rules.begin(),
                                     config_.rewrite_rules.end());
            config.progress_timeout_ns = config_.ring.progress_timeout_ns;
            config.tick_ns = config_.ring.tick_ns;
            config.resync_clock = restart_spawn;
            Monitor *monitor =
                Monitor::initVariant(&region_, layout_, &channels_,
                                     config);

            int status = specs_[v].entry();
            monitor->finishVariant(status);
            ::_exit(status & 0xff);
        }
        child_of[v] = pid;
        ::setpgid(pid, pid); // races benignly with the child's setpgid
        ++alive_children;
        CtrlMsg reply;
        reply.type = CtrlMsg::SpawnReply;
        reply.variant = msg.value().variant;
        reply.value = pid;
        sendCtrl(zfd, reply);
    }
}

void
Nvx::markVariantDead(std::uint32_t variant, bool crashed)
{
    ControlBlock *cb = controlBlock();
    std::uint32_t bit = 1u << variant;
    std::uint32_t live =
        cb->live_mask.fetch_and(~bit, std::memory_order_acq_rel);
    if (!(live & bit))
        return; // already dealt with

    // Unsubscribe the dead follower from every ring so it stops gating
    // the producer (section 5.1: "discards it without affecting other
    // followers").
    for (std::uint32_t t = 0; t < kMaxTuples; ++t) {
        ring::RingBuffer ring = layout_.tupleRing(&region_, t);
        if (ring.consumerActive(static_cast<int>(variant)))
            ring.detachConsumer(static_cast<int>(variant));
    }

    // Election: the lowest live *LeaderCandidate* takes over.
    // FollowerOnly variants (sanitizer builds, experimental revisions)
    // are never promoted; with no candidate left the stream simply
    // ends and the remaining followers drain what was published.
    if (cb->leader_id.load(std::memory_order_acquire) == variant) {
        // Arm the failover-blackout measurement: the promoted leader's
        // first publish consumes this mark and records death→dispatch.
        if (trace::enabled(cb->trace)) {
            std::uint64_t expected = 0;
            cb->trace.leader_death_ns.compare_exchange_strong(
                expected, monotonicNs(), std::memory_order_acq_rel);
        }
        std::uint32_t remaining = live & ~bit;
        std::uint32_t candidates = 0;
        for (std::uint32_t v = 0; v < num_variants_; ++v) {
            if (!(remaining & (1u << v)))
                continue;
            if (cb->variants[v].role.load(std::memory_order_acquire) ==
                static_cast<std::uint32_t>(VariantRole::LeaderCandidate)) {
                candidates |= 1u << v;
            }
        }
        if (candidates != 0) {
            std::uint32_t new_leader = 0;
            while (!(candidates & (1u << new_leader)))
                ++new_leader;
            std::uint32_t epoch =
                cb->epoch.fetch_add(1, std::memory_order_acq_rel) + 1;
            // The stream continues on this node: the epoch moves, the
            // stream generation does not (that bump is reserved for
            // cross-node promotion, where a *different* engine takes
            // over publishing).
            cb->promotions.fetch_add(1, std::memory_order_acq_rel);
            cb->leader_id.store(new_leader, std::memory_order_release);
            if (trace::enabled(cb->trace)) {
                trace::stamp(cb->trace, trace::Stage::Election,
                             static_cast<std::uint8_t>(new_leader), 0,
                             epoch, monotonicNs(), variant);
            }
            inform("leader %u %s; elected variant %u", variant,
                   crashed ? "crashed" : "exited", new_leader);
            if (config_.on_failover)
                config_.on_failover(epoch, new_leader);
        } else if (remaining != 0) {
            warn("leader %u %s; no leader candidate among surviving "
                 "variants",
                 variant, crashed ? "crashed" : "exited");
        }
    }
}

bool
Nvx::shouldRestart(std::uint32_t variant, bool crashed) const
{
    const VariantSpec &spec = specs_[variant];
    switch (spec.restart) {
      case RestartPolicy::Never:
        return false;
      case RestartPolicy::OnCrash:
        if (!crashed)
            return false;
        break;
      case RestartPolicy::Always:
        break;
    }
    if (restarts_[variant] >= spec.max_restarts)
        return false;
    if (shutdown_requested_.load(std::memory_order_acquire))
        return false;
    ControlBlock *cb = controlBlock();
    // A respawned follower needs a stream to join: a live variant that
    // is (or can become) the leader, or an external one.
    if (!config_.external_leader &&
        cb->live_mask.load(std::memory_order_acquire) == 0) {
        return false;
    }
    // If leadership was never transferred away (no LeaderCandidate
    // survived the election), a respawn would come back *as leader* —
    // Monitor derives its role from leader_id — and publish from fresh
    // program state into followers mid-replay. Refuse instead.
    if (!config_.external_leader &&
        cb->leader_id.load(std::memory_order_acquire) == variant) {
        return false;
    }
    return true;
}

bool
Nvx::restartVariant(std::uint32_t variant)
{
    ControlBlock *cb = controlBlock();

    // Stale fast-path notifications from the dead incarnation must not
    // tear the fresh one down: drain the variant's control channel.
    int cfd = channels_.controlCoordinatorEnd(variant);
    for (;;) {
        struct pollfd pfd = {cfd, POLLIN, 0};
        if (::poll(&pfd, 1, 0) <= 0)
            break;
        if (!recvCtrl(cfd).ok())
            break;
    }

    // Re-attach the follower's cursor at the current stream tail on
    // every ring (mirroring the pre-attach of EngineLayout::create, so
    // tuples opened later also find it). Events published before this
    // point are gone for the new incarnation — its Monitor
    // resynchronises the variant Lamport clock from the first event it
    // observes (Config::resync_clock).
    for (std::uint32_t t = 0; t < kMaxTuples; ++t) {
        ring::RingBuffer ring = layout_.tupleRing(&region_, t);
        if (!ring.consumerActive(static_cast<int>(variant)))
            ring.attachConsumerAt(static_cast<int>(variant));
    }

    VariantSlot &slot = cb->variants[variant];
    slot.state.store(static_cast<std::uint32_t>(VariantState::Running),
                     std::memory_order_release);
    slot.exit_status.store(0, std::memory_order_release);
    slot.pid.store(0, std::memory_order_release);
    // A respawned incarnation replays from the stream tail with fresh
    // program state; electing it leader later (original leader dies)
    // would have it publish that fresh state into followers mid-replay.
    // Demote it to FollowerOnly for the rest of the engine's life.
    slot.role.store(static_cast<std::uint32_t>(VariantRole::FollowerOnly),
                    std::memory_order_release);
    cb->live_mask.fetch_or(1u << variant, std::memory_order_acq_rel);

    CtrlMsg request;
    request.type = CtrlMsg::SpawnRequest;
    request.variant = static_cast<std::int32_t>(variant);
    request.value = 1; // restart spawn: resync the Lamport clock
    Status sent = sendCtrl(channels_.zygoteCoordinatorEnd(), request);
    if (!sent.isOk()) {
        // Zygote gone: roll back so nothing gates on a cursor whose
        // consumer will never exist.
        cb->live_mask.fetch_and(~(1u << variant),
                                std::memory_order_acq_rel);
        slot.state.store(static_cast<std::uint32_t>(VariantState::Exited),
                         std::memory_order_release);
        for (std::uint32_t t = 0; t < kMaxTuples; ++t) {
            ring::RingBuffer ring = layout_.tupleRing(&region_, t);
            if (ring.consumerActive(static_cast<int>(variant)))
                ring.detachConsumer(static_cast<int>(variant));
        }
        return false;
    }
    restarts_[variant] += 1;
    slot.restarts.fetch_add(1, std::memory_order_acq_rel);
    inform("variant %u respawned by restart policy (attempt %u/%u)",
           variant, restarts_[variant], specs_[variant].max_restarts);
    return true;
}

void
Nvx::observeDivergences()
{
    if (!config_.on_divergence_record)
        return;
    ControlBlock *cb = controlBlock();

    // Drain the shared ledger from the last-seen cursor. Records
    // shipped back from remote follower nodes land in the same ledger
    // (tagged with their origin receiver id), so one hook covers the
    // whole deployment. The counter-form on_divergence hook was
    // removed after its one-release grace period.
    trace::DivergenceRecord batch[16];
    std::size_t n;
    while ((n = trace::ledgerRead(cb->trace, &ledger_cursor_, batch,
                                  16)) > 0) {
        for (std::size_t i = 0; i < n; ++i)
            config_.on_divergence_record(batch[i]);
    }
}

void
Nvx::statusServeLoop()
{
    while (!status_stop_.load(std::memory_order_acquire)) {
        struct pollfd pfd = {status_listen_fd_, POLLIN, 0};
        int n = ::poll(&pfd, 1, 100);
        if (n <= 0)
            continue;
        long conn = netio::acceptConnection(status_listen_fd_, false);
        if (conn < 0)
            continue;
        const int fd = static_cast<int>(conn);
        // One request, one reply, hang up. Timeouts bound a stuck
        // client so it can never wedge the serve thread.
        struct timeval tv = {5, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        wire::FrameHeader header = {};
        if (wire::readFull(fd, &header, sizeof(header)) &&
            wire::headerValid(header) &&
            header.type ==
                static_cast<std::uint16_t>(wire::FrameType::Status) &&
            header.body_len == 0) {
            std::uint8_t frame[wire::kStatusFrameBytes];
            wire::encodeStatusFrame(status(), frame);
            wire::writeFull(fd, frame, wire::kStatusFrameBytes);
        }
        ::close(fd);
    }
}

void
Nvx::monitorLoop()
{
    std::vector<struct pollfd> pfds;
    pfds.push_back({channels_.zygoteCoordinatorEnd(), POLLIN, 0});
    for (std::uint32_t v = 0; v < num_variants_; ++v)
        pfds.push_back(
            {channels_.controlCoordinatorEnd(v), POLLIN, 0});

    std::uint32_t reaped = 0;
    auto handleZygoteMsg = [&](const CtrlMsg &msg) {
        if (msg.type == CtrlMsg::SpawnReply) {
            // A restart respawn acknowledged: record the fresh pid. A
            // failed fork replies value -1 followed by a synthetic
            // VariantExited that rolls the armed state back.
            if (msg.value > 0) {
                controlBlock()->variants[msg.variant].pid.store(
                    static_cast<std::uint32_t>(msg.value),
                    std::memory_order_release);
            }
            return;
        }
        if (msg.type != CtrlMsg::VariantExited)
            return;
        const auto v = static_cast<std::uint32_t>(msg.variant);
        const int status = static_cast<int>(msg.value);
        ControlBlock *cb = controlBlock();
        bool crashed =
            WIFSIGNALED(status) ||
            cb->variants[v].state.load(std::memory_order_acquire) ==
                static_cast<std::uint32_t>(VariantState::Crashed);
        markVariantDead(v, crashed);
        if (reaped_[v].load(std::memory_order_relaxed))
            return;
        VariantResult result;
        result.variant = static_cast<int>(v);
        result.crashed = crashed;
        result.status = WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                            : WEXITSTATUS(status);
        result.restarts = restarts_[v];
        bool restarting = shouldRestart(v, crashed);
        // Quiesce point: the policy committed to a respawn but the
        // fresh cursors are not attached yet — an external replayer
        // must stop publishing before restartVariant() picks the tail.
        if (restarting && config_.on_restart)
            config_.on_restart(v, restarts_[v] + 1);
        restarting = restarting && restartVariant(v);
        if (config_.on_variant_exit)
            config_.on_variant_exit(result, restarting);
        if (!restarting) {
            reaped_[v].store(true, std::memory_order_release);
            ++reaped;
            results_[v] = result;
        }
    };
    for (const CtrlMsg &msg : early_zygote_msgs_)
        handleZygoteMsg(msg);
    early_zygote_msgs_.clear();

    while (reaped < num_variants_) {
        for (auto &p : pfds)
            p.revents = 0;
        int n = ::poll(pfds.data(), pfds.size(), 100);
        observeDivergences();
        if (n < 0 && errno != EINTR)
            break;
        if (n <= 0)
            continue;

        // Zygote notifications: authoritative exit/reap info.
        if (pfds[0].revents & POLLIN) {
            auto msg = recvCtrl(pfds[0].fd);
            if (msg.ok())
                handleZygoteMsg(msg.value());
            else
                break; // zygote died; stop monitoring
        }
        // Variant control messages: fast crash signal for election.
        for (std::uint32_t v = 0; v < num_variants_; ++v) {
            if (!(pfds[1 + v].revents & POLLIN))
                continue;
            // The readiness may be stale: restartVariant() drains this
            // very channel when the zygote message (handled above) led
            // to a respawn, and a blocking recv on the emptied socket
            // would wedge the whole monitor loop.
            struct pollfd probe = {pfds[1 + v].fd, POLLIN, 0};
            if (::poll(&probe, 1, 0) <= 0)
                continue;
            auto msg = recvCtrl(pfds[1 + v].fd);
            if (!msg.ok())
                continue;
            switch (msg.value().type) {
              case CtrlMsg::VariantCrashed:
                markVariantDead(v, true);
                break;
              case CtrlMsg::VariantExited:
                markVariantDead(v, false);
                break;
              default:
                break;
            }
        }
    }
    observeDivergences();
}

std::vector<VariantResult>
Nvx::wait()
{
    VARAN_CHECK(started_);
    if (monitor_thread_.joinable())
        monitor_thread_.join();
    finished_ = true;
    shutdownZygote();
    if (autotuner_)
        autotuner_->stop(); // no retuning during the drain
    if (shipper_)
        shipper_->finish(); // drain the ring tails, send Bye
    return results_;
}

std::vector<VariantResult>
Nvx::waitFor(std::uint64_t timeout_ns)
{
    VARAN_CHECK(started_);
    const std::uint64_t deadline = monotonicNs() + timeout_ns;
    while (monotonicNs() < deadline) {
        bool all = true;
        for (std::uint32_t v = 0; v < num_variants_; ++v)
            all = all && reaped_[v].load(std::memory_order_acquire);
        if (all)
            return wait();
        sleepNs(5000000);
    }
    warn("engine wait timed out; killing surviving variants");
    // Snapshot who was still running at the deadline: their results
    // must read "killed at timeout", never a fabricated clean exit —
    // whatever exit notifications trickle in during the teardown below.
    std::vector<bool> timed_out(num_variants_, false);
    for (std::uint32_t v = 0; v < num_variants_; ++v)
        timed_out[v] = !reaped_[v].load(std::memory_order_acquire);
    shutdownZygote();
    if (monitor_thread_.joinable())
        monitor_thread_.join();
    finished_ = true;
    if (autotuner_)
        autotuner_->stop();
    if (shipper_)
        shipper_->finish();
    for (std::uint32_t v = 0; v < num_variants_; ++v) {
        if (timed_out[v]) {
            results_[v].crashed = false;
            results_[v].status = kTimedOutStatus;
            // The monitor thread never recorded a final result for this
            // variant; the respawns it consumed still count.
            results_[v].restarts = restarts_[v];
        }
    }
    return results_;
}

std::vector<VariantResult>
Nvx::run(std::vector<VariantSpec> specs)
{
    specs_ = std::move(specs);
    return run();
}

std::vector<VariantResult>
Nvx::run(std::vector<VariantFn> variants)
{
    Status status = start(std::move(variants));
    if (!status.isOk())
        fatal("engine start failed: %s", status.error().message().c_str());
    return wait();
}

std::vector<VariantResult>
Nvx::run()
{
    Status status = start();
    if (!status.isOk())
        fatal("engine start failed: %s", status.error().message().c_str());
    return wait();
}

void
Nvx::shutdownZygote()
{
    shutdown_requested_.store(true, std::memory_order_release);
    if (zygote_pid_ <= 0)
        return;
    CtrlMsg msg;
    msg.type = CtrlMsg::Shutdown;
    sendCtrl(channels_.zygoteCoordinatorEnd(), msg);
}

StatusReport
Nvx::status() const
{
    StatusReport report = collectStatus(&region_, layout_);
    if (shipper_) {
        wire::Shipper::fillWireStatus(report.shipper, shipper_->stats(),
                                      shipper_->linkUp());
    }
    return report;
}

std::string
Nvx::statusText() const
{
    return ::varan::core::statusText(status());
}

TuningHandle
Nvx::tuning() const
{
    return TuningHandle(&controlBlock()->tuning);
}

int
Nvx::currentLeader() const
{
    return static_cast<int>(
        controlBlock()->leader_id.load(std::memory_order_acquire));
}

std::uint32_t
Nvx::epoch() const
{
    return controlBlock()->epoch.load(std::memory_order_acquire);
}

std::uint64_t
Nvx::eventsStreamed() const
{
    return controlBlock()->events_streamed.load(std::memory_order_relaxed);
}

std::uint64_t
Nvx::divergencesResolved() const
{
    return controlBlock()->divergences_resolved.load(
        std::memory_order_relaxed);
}

std::uint64_t
Nvx::divergencesFatal() const
{
    return controlBlock()->divergences_fatal.load(
        std::memory_order_relaxed);
}

std::uint64_t
Nvx::fdTransfers() const
{
    return controlBlock()->fd_transfers.load(std::memory_order_relaxed);
}

std::uint64_t
Nvx::poolSpills() const
{
    return layout_.pool(&region_).spills();
}

shmem::PoolStats
Nvx::poolStats() const
{
    return layout_.pool(&region_).stats();
}

std::uint64_t
Nvx::ringLagOf(std::uint32_t variant) const
{
    std::uint64_t max_lag = 0;
    ControlBlock *cb = controlBlock();
    std::uint32_t tuples = cb->num_tuples.load(std::memory_order_acquire);
    for (std::uint32_t t = 0; t < tuples && t < kMaxTuples; ++t) {
        ring::RingBuffer ring = layout_.tupleRing(&region_, t);
        if (!ring.consumerActive(static_cast<int>(variant)))
            continue;
        std::uint64_t lag = ring.lag(static_cast<int>(variant));
        if (lag > max_lag)
            max_lag = lag;
    }
    return max_lag;
}

} // namespace varan::core
