/**
 * @file
 * The coordinator: VARAN's only centralised component (section 2.2).
 *
 * Nvx owns the shared region, creates every communication channel of
 * Figure 2, forks the zygote, asks it to spawn variants, and then gets
 * out of the fast path entirely — during execution it only watches the
 * control channels to reap exits, unsubscribe crashed followers from
 * the rings, run leader elections for transparent failover
 * (section 5.1) and honour each variant's restart policy.
 *
 * The public surface is built from three types:
 *
 *  - VariantSpec describes one variant: its entry function, a name,
 *    its election role (LeaderCandidate or FollowerOnly), per-variant
 *    BPF rewrite rules (the paper's section 5.2 multi-revision rules
 *    attach to the revision that diverges, not to the whole engine)
 *    and an on-exit restart policy;
 *  - EngineConfig groups the engine knobs into RingConfig /
 *    RemoteConfig sub-structs and carries the lifecycle hooks
 *    (on_divergence_record, on_failover, on_variant_exit);
 *  - StatusReport (core/status.h) is the single consolidated snapshot
 *    replacing the grab-bag of counter getters, also served to remote
 *    peers over the wire Status RPC.
 *
 * Nvx::Builder composes all of it fluently:
 *
 *   auto nvx = core::Nvx::Builder()
 *                  .ringCapacity(256)
 *                  .onFailover([](auto epoch, auto leader) { ... })
 *                  .variant(core::VariantSpec(rev2435).named("2435"))
 *                  .variant(core::VariantSpec(rev2436)
 *                               .named("2436")
 *                               .rule(kListing1Rule))
 *                  .build();
 *   auto results = nvx->run();
 *
 * The std::vector<VariantFn> overloads remain as a convenience for
 * anonymous entry points; the flat NvxOptions struct (deprecated in
 * the API redesign, kept for one release) has been removed — use
 * EngineConfig + VariantSpec.
 */

#ifndef VARAN_CORE_NVX_H
#define VARAN_CORE_NVX_H

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/channels.h"
#include "core/layout.h"
#include "core/monitor.h"
#include "core/status.h"
#include "shmem/pool.h"
#include "shmem/region.h"

namespace varan::wire {
class Shipper;
}

namespace varan::adapt {
class AutoTuner;
}

namespace varan::core {

/** A variant's application entry point ("main"). */
using VariantFn = std::function<int()>;

/**
 * What the coordinator does when a variant leaves the engine
 * (VariantSpec::restart). A respawned variant re-runs its entry
 * function as a follower re-attached at the current stream tail with
 * its Lamport clock resynchronised from the first event it observes —
 * sound for single-tuple workloads whose replay converges (sanitizer
 * followers, stateless services); a restarted variant that diverges
 * from the live stream is killed like any other divergence. A
 * respawned incarnation is demoted to FollowerOnly for the rest of the
 * run (its fresh program state must never lead mid-stream), and a
 * variant that still holds leadership when it dies — no candidate
 * survived to take over — is not respawned at all.
 */
enum class RestartPolicy : std::uint32_t {
    Never = 0,   ///< the exit/crash is final (classic behaviour)
    OnCrash = 1, ///< respawn after a crash; a clean exit is final
    Always = 2,  ///< respawn after any exit while the engine still runs
};

/**
 * One variant of the N-version set. Construct from the entry function
 * and refine with the fluent setters:
 *
 *   VariantSpec(entry).named("asan").as(VariantRole::FollowerOnly)
 *                     .rule(bpf_text).restartOn(RestartPolicy::OnCrash)
 */
struct VariantSpec {
    VariantFn entry;
    std::string name;                       ///< for logs and status
    VariantRole role = VariantRole::LeaderCandidate;
    std::vector<std::string> rewrite_rules; ///< this variant's BPF rules
    RestartPolicy restart = RestartPolicy::Never;
    std::uint32_t max_restarts = 1;         ///< respawn budget

    VariantSpec() = default;
    /** Explicit so brace-lists of plain functions still pick the
     *  (deprecated) VariantFn overloads unambiguously. */
    explicit VariantSpec(VariantFn fn) : entry(std::move(fn)) {}

    VariantSpec &
    named(std::string n)
    {
        name = std::move(n);
        return *this;
    }

    VariantSpec &
    as(VariantRole r)
    {
        role = r;
        return *this;
    }

    /** Append one BPF rewrite rule evaluated only in this variant. */
    VariantSpec &
    rule(std::string text)
    {
        rewrite_rules.push_back(std::move(text));
        return *this;
    }

    VariantSpec &
    restartOn(RestartPolicy policy, std::uint32_t budget = 1)
    {
        restart = policy;
        max_restarts = budget;
        return *this;
    }
};

/** Event-stream geometry and follower pacing. */
struct RingConfig {
    std::uint32_t capacity = 256;      ///< events per tuple ring (paper)
    ring::WaitSpec wait;               ///< follower wait policy
    std::uint64_t progress_timeout_ns = 30000000000ULL; ///< 30 s
    /** Follower poll tick: bounds how quickly an elected follower
     *  notices its promotion (transparent-failover latency). */
    std::uint64_t tick_ns = 5000000; // 5 ms
};

/**
 * Multi-node event shipping: when any endpoint is configured, the
 * coordinator connects to each abstract-socket endpoint and streams
 * the leader's rings to the wire::Receiver behind it — one shipper,
 * N remote nodes, each with its own credit window (a stalled node
 * buffers and is eventually evicted; it never gates its siblings).
 * Each remote node runs an external-leader engine whose followers
 * consume the stream through the unmodified dispatch loop. Taps
 * attach before any variant runs, so the remote stream is complete
 * from event one.
 */
struct RemoteConfig {
    std::string endpoint;              ///< single peer (legacy spelling)
    std::vector<std::string> endpoints; ///< fan-out peers (appended)
    // Frame batching and flow control are Tuning knobs
    // (EngineConfig::tuning.ship_batch / .credit_window); the
    // deprecated ship_batch/credit_window seed shims were removed
    // after their one-release grace period.
    /** Unsolicited Status-frame broadcast cadence to every connected
     *  peer (0 = off, the classic request/response RPC only). The
     *  receiver needs no opt-in: any incoming Status frame refreshes
     *  its remoteStatus() snapshot. */
    std::uint64_t status_push_interval_ns = 0;

    /** Serve the wire Status RPC on this abstract-socket name (empty =
     *  off). Out-of-process inspectors (`varanctl dial <name>`) connect,
     *  send an empty Status frame, and receive one StatusReport — no
     *  event shipping, no session, works with or without remote peers. */
    std::string status_endpoint;

    /**
     * Quorum control plane (wire v6) for the receiver nodes consuming
     * this deployment's stream: the abstract-socket quorum endpoint of
     * every member, indexed by quorum node id, plus this node's own
     * id. quorum::membershipFromRemote() turns the pair into the
     * quorum::Config a wire::Receiver arms promotion with — every
     * receiver may then set promote_after_ns, and a partitioned
     * minority fences instead of split-braining. Empty = no quorum
     * (the legacy single-watchdog promotion). Membership sizing and
     * fencing behavior: README, "Operating a multi-node deployment".
     */
    std::vector<std::string> quorum_members;
    /** This node's index into quorum_members (its quorum identity). */
    std::uint32_t quorum_node_id = 0xffffffffu;

    /** Every configured peer endpoint (endpoint + endpoints). */
    std::vector<std::string>
    allEndpoints() const
    {
        std::vector<std::string> all;
        if (!endpoint.empty())
            all.push_back(endpoint);
        all.insert(all.end(), endpoints.begin(), endpoints.end());
        return all;
    }
};

/** Final state of one variant. */
struct VariantResult {
    int variant = -1;
    bool crashed = false;
    /** Exit status; 128+signal when crashed; kTimedOutStatus when the
     *  variant was still running at a waitFor() deadline and the
     *  engine shut it down. */
    int status = 0;
    std::uint32_t restarts = 0; ///< respawns this variant consumed
};

/** VariantResult::status of a variant killed at a waitFor deadline —
 *  distinguishable from a genuine exit(0). */
inline constexpr int kTimedOutStatus = -1;

/**
 * Engine configuration. Lifecycle hooks run on the coordinator's
 * monitor thread while the engine is live — keep them brief and do not
 * call back into Nvx teardown from inside one.
 */
struct EngineConfig {
    std::size_t shm_bytes = 64 << 20;  ///< total shared region size
    std::uint32_t leader_index = 0;    ///< initial leader (section 2.2)
    bool verify_divergence = true;     ///< hash write buffers

    /**
     * Run every variant as a follower; events come from an artificial
     * leader outside the variant set (record-replay, section 5.4, and
     * the remote end of multi-node shipping).
     */
    bool external_leader = false;

    /** Engine-global BPF rules, evaluated in every variant after that
     *  variant's own VariantSpec::rewrite_rules. */
    std::vector<std::string> rewrite_rules;

    RingConfig ring;
    RemoteConfig remote;

    /**
     * The unified event-path knob surface (API redesign): one struct
     * holding every batching/pacing parameter of the wire path. Seeds
     * the shared TuningBlock at start(); after that the values live in
     * shared memory — retune them at runtime through Nvx::tuning()
     * without restarting anything.
     *
     */
    Tuning tuning;

    /** The adaptive controller (src/adapt/). When enabled, an
     *  AutoTuner thread retunes the unpinned knobs online from the
     *  sampled syscall mix, ring occupancy and wire statistics. */
    AdaptConfig adapt;

    /**
     * The observability layer (src/trace/): flight recorder, latency
     * histograms and the sampled publish→dispatch lag pairing. On by
     * default (batch-granular + 1-in-64 sampling keeps the cost <5%
     * on the hot paths — bench/sec57_trace.cc); also togglable live
     * through ControlBlock::trace.enabled. The divergence ledger is
     * NOT gated by this: divergences are rare and always recorded.
     */
    bool trace_enabled = true;

    /**
     * A divergence was recorded: the full structured record (tuple,
     * variant, expected vs observed syscall, arg digest, Lamport
     * clock, epoch, resolution). Delivered by the coordinator from the
     * shared ledger at monitor-tick granularity, including records
     * shipped back from remote follower nodes (origin != 0).
     */
    std::function<void(const trace::DivergenceRecord &record)>
        on_divergence_record;

    /** A leader election completed: the new epoch and leader id. */
    std::function<void(std::uint32_t epoch, std::uint32_t new_leader)>
        on_failover;

    /** A variant left the engine (final result so far); @p restarting
     *  reports whether the restart policy is respawning it. */
    std::function<void(const VariantResult &result, bool restarting)>
        on_variant_exit;

    /**
     * The restart policy decided to respawn @p variant but its ring
     * cursors are not yet re-armed. This is the quiesce window for
     * replay-into-restart: an external replayer must stop publishing
     * before it returns, or events published between the respawn's
     * tail attach and the rewound re-feed would reach the fresh
     * incarnation out of order (see docs/RECORD_REPLAY.md). Runs on
     * the monitor thread — keep it brief.
     */
    std::function<void(std::uint32_t variant, std::uint32_t attempt)>
        on_restart;
};

class Nvx
{
  public:
    class Builder;

    explicit Nvx(EngineConfig config = EngineConfig{});
    ~Nvx();

    VARAN_NO_COPY_NO_MOVE(Nvx);

    /** Spawn all variants (index 0..n-1). Returns once all run. */
    Status start(std::vector<VariantSpec> specs);

    /**
     * Like start(), invoking @p pre_spawn after the shared layout is
     * initialised but before any variant forks — the hook point where
     * record-replay taps attach their ring cursors so they can never
     * miss an event.
     */
    Status start(std::vector<VariantSpec> specs,
                 const std::function<void(Nvx &)> &pre_spawn);

    /** Run the Builder-supplied variant set. */
    Status start();
    Status start(const std::function<void(Nvx &)> &pre_spawn);

    /** Convenience: anonymous entry points — each function becomes a
     *  default VariantSpec (LeaderCandidate, no rules, no restart). */
    Status start(std::vector<VariantFn> variants);
    Status start(std::vector<VariantFn> variants,
                 const std::function<void(Nvx &)> &pre_spawn);

    /** Block until every variant exited or crashed. */
    std::vector<VariantResult> wait();

    /**
     * wait() with a deadline; on expiry the engine is shut down and
     * partial results are returned. Variants still running at the
     * deadline report status == kTimedOutStatus ("killed at timeout"),
     * never a fabricated clean exit.
     */
    std::vector<VariantResult> waitFor(std::uint64_t timeout_ns);

    /** start() + wait(). */
    std::vector<VariantResult> run(std::vector<VariantSpec> specs);
    std::vector<VariantResult> run(); ///< Builder-supplied variants
    /** Convenience: anonymous entry points, default specs. */
    std::vector<VariantResult> run(std::vector<VariantFn> variants);

    // --- coordinator status -------------------------------------------

    /**
     * The unified snapshot: geometry, election state, stream counters,
     * per-variant state/ring-lag/restarts, pool pressure and wire
     * shipper statistics. Readable while variants run; the same bytes
     * a remote peer obtains through the wire Status RPC.
     */
    StatusReport status() const;

    /** status() rendered as a Prometheus-style text metrics page
     *  (core::statusText): ready for a /metrics scrape, a log line, or
     *  an operator's eyeball. Includes the live knob values and the
     *  adaptive controller's sample/decision counters. */
    std::string statusText() const;

    /**
     * The live tuning handle (valid once start() ran). Setters write
     * straight into the shared TuningBlock: the wire shipper re-reads
     * the knobs at batch boundaries, so a change takes effect within
     * one batch — no restart, no reconnect. set() pins the knob by
     * default so the adaptive controller (EngineConfig::adapt) never
     * fights a manual override; unpin() hands it back.
     */
    TuningHandle tuning() const;

    // Narrow accessors kept for convenience (all subsumed by status()).
    int currentLeader() const;
    std::uint32_t epoch() const;
    std::uint64_t eventsStreamed() const;
    std::uint64_t divergencesResolved() const;
    std::uint64_t divergencesFatal() const;
    std::uint64_t fdTransfers() const;
    std::uint64_t poolSpills() const;      ///< global-arena fallbacks

    /** Per-shard payload-pool pressure snapshot. */
    shmem::PoolStats poolStats() const;

    /** The wire shipper when remote shipping is on, else nullptr. */
    wire::Shipper *shipper() const { return shipper_.get(); }

    /** Leader-to-follower distance in events (the "log size" of
     *  section 5.3), maximised over tuples for one follower. */
    std::uint64_t ringLagOf(std::uint32_t variant) const;

    /** Access for record-replay taps and tests. */
    const shmem::Region *region() const { return &region_; }
    const EngineLayout &layout() const { return layout_; }
    ControlBlock *controlBlock() const;

  private:
    [[noreturn]] void zygoteMain();
    void monitorLoop();
    void markVariantDead(std::uint32_t variant, bool crashed);
    void shutdownZygote();

    /** Restart-policy verdict for a just-exited variant. */
    bool shouldRestart(std::uint32_t variant, bool crashed) const;

    /** Re-arm shared state (ring cursors at the stream tail, slot
     *  state, live bit) and ask the zygote to respawn @p variant.
     *  @return false when the respawn could not be requested. */
    bool restartVariant(std::uint32_t variant);

    /** Drain the shared ledger and fire on_divergence_record. */
    void observeDivergences();

    /** Accept loop of the wire Status RPC listener
     *  (RemoteConfig::status_endpoint). */
    void statusServeLoop();

    EngineConfig config_;
    std::vector<VariantSpec> specs_;
    shmem::Region region_;
    EngineLayout layout_;
    ChannelSet channels_;
    std::uint32_t num_variants_ = 0;
    pid_t zygote_pid_ = -1;
    std::thread monitor_thread_;
    bool started_ = false;
    bool finished_ = false;
    std::atomic<bool> shutdown_requested_{false};
    std::vector<VariantResult> results_;
    /** Per-variant "final result recorded" flags; written by the
     *  monitor thread, polled by waitFor() — hence atomic. */
    std::vector<std::atomic<bool>> reaped_;
    /** Respawns performed per variant (coordinator-side ledger). */
    std::vector<std::uint32_t> restarts_;
    /** Ledger records already delivered through on_divergence_record. */
    std::uint64_t ledger_cursor_ = 0;
    /** Zygote messages that raced ahead of the spawn acknowledgements. */
    std::vector<CtrlMsg> early_zygote_msgs_;
    /** Wire Status RPC listener (RemoteConfig::status_endpoint). */
    int status_listen_fd_ = -1;
    std::thread status_thread_;
    std::atomic<bool> status_stop_{false};
    /** Multi-node event shipping (EngineConfig::remote). */
    std::unique_ptr<wire::Shipper> shipper_;
    /** Adaptive knob controller (EngineConfig::adapt). */
    std::unique_ptr<adapt::AutoTuner> autotuner_;
};

/**
 * Fluent construction of a configured engine plus its variant set:
 *
 *   auto nvx = Nvx::Builder()
 *                  .shmBytes(32 << 20)
 *                  .ringCapacity(128)
 *                  .variant(leader_fn)
 *                  .variant(VariantSpec(sanitized_fn)
 *                               .named("asan")
 *                               .as(VariantRole::FollowerOnly))
 *                  .build();
 *   auto results = nvx->run();
 */
class Nvx::Builder
{
  public:
    Builder() = default;

    Builder &
    shmBytes(std::size_t bytes)
    {
        config_.shm_bytes = bytes;
        return *this;
    }

    Builder &
    leaderIndex(std::uint32_t index)
    {
        config_.leader_index = index;
        return *this;
    }

    Builder &
    verifyDivergence(bool on)
    {
        config_.verify_divergence = on;
        return *this;
    }

    Builder &
    externalLeader(bool on)
    {
        config_.external_leader = on;
        return *this;
    }

    /** Append one engine-global BPF rewrite rule. */
    Builder &
    rule(std::string text)
    {
        config_.rewrite_rules.push_back(std::move(text));
        return *this;
    }

    Builder &
    ring(RingConfig ring_config)
    {
        config_.ring = std::move(ring_config);
        return *this;
    }

    Builder &
    ringCapacity(std::uint32_t capacity)
    {
        config_.ring.capacity = capacity;
        return *this;
    }

    Builder &
    progressTimeoutNs(std::uint64_t ns)
    {
        config_.ring.progress_timeout_ns = ns;
        return *this;
    }

    Builder &
    remote(RemoteConfig remote_config)
    {
        config_.remote = std::move(remote_config);
        return *this;
    }

    /** Serve the wire Status RPC on an abstract socket (varanctl). */
    Builder &
    statusEndpoint(std::string name)
    {
        config_.remote.status_endpoint = std::move(name);
        return *this;
    }

    /** Quorum membership (wire v6): the quorum endpoint of every
     *  member indexed by node id, and this node's own id. */
    Builder &
    quorumMembership(std::uint32_t node_id,
                     std::vector<std::string> members)
    {
        config_.remote.quorum_node_id = node_id;
        config_.remote.quorum_members = std::move(members);
        return *this;
    }

    /** Seed the unified live knob surface (EngineConfig::tuning). */
    Builder &
    tuning(Tuning initial)
    {
        config_.tuning = initial;
        return *this;
    }

    /** Enable/configure the adaptive controller. */
    Builder &
    adapt(AdaptConfig adapt_config)
    {
        config_.adapt = adapt_config;
        return *this;
    }

    /** Shorthand: turn the adaptive controller on with defaults. */
    Builder &
    adaptive(bool on = true)
    {
        config_.adapt.enabled = on;
        return *this;
    }

    /** Toggle the trace layer (flight recorder + histograms). */
    Builder &
    tracing(bool on)
    {
        config_.trace_enabled = on;
        return *this;
    }

    /** Structured divergence hook (full DivergenceRecords). */
    Builder &
    onDivergenceRecord(
        std::function<void(const trace::DivergenceRecord &)> hook)
    {
        config_.on_divergence_record = std::move(hook);
        return *this;
    }

    Builder &
    onFailover(std::function<void(std::uint32_t, std::uint32_t)> hook)
    {
        config_.on_failover = std::move(hook);
        return *this;
    }

    Builder &
    onVariantExit(
        std::function<void(const VariantResult &, bool)> hook)
    {
        config_.on_variant_exit = std::move(hook);
        return *this;
    }

    Builder &
    onRestart(std::function<void(std::uint32_t, std::uint32_t)> hook)
    {
        config_.on_restart = std::move(hook);
        return *this;
    }

    Builder &
    variant(VariantSpec spec)
    {
        specs_.push_back(std::move(spec));
        return *this;
    }

    Builder &
    variant(VariantFn fn)
    {
        specs_.emplace_back(std::move(fn));
        return *this;
    }

    /** Escape hatch for knobs without a dedicated setter. */
    EngineConfig &config() { return config_; }

    /** Create the engine; run()/start() with no arguments use the
     *  variants accumulated here. */
    std::unique_ptr<Nvx>
    build()
    {
        auto nvx = std::make_unique<Nvx>(std::move(config_));
        nvx->specs_ = std::move(specs_);
        return nvx;
    }

  private:
    EngineConfig config_;
    std::vector<VariantSpec> specs_;
};

/**
 * std::thread wrapper that carries the thread-tuple protocol (section
 * 3.3.3): the parent announces the tuple through the event stream, the
 * new thread binds to it, and the same logical thread in every variant
 * ends up wired to the same ring buffer.
 */
class VThread
{
  public:
    template <typename Fn>
    explicit VThread(Fn fn)
    {
        Monitor *monitor = Monitor::instance();
        if (!monitor) {
            thread_ = std::thread(std::move(fn));
            return;
        }
        int tuple = monitor->openTuple();
        thread_ = std::thread([tuple, fn = std::move(fn)]() mutable {
            Monitor::bindThreadToTuple(tuple);
            fn();
        });
    }

    void
    join()
    {
        if (thread_.joinable())
            thread_.join();
    }

    ~VThread() { join(); }

  private:
    std::thread thread_;
};

} // namespace varan::core

#endif // VARAN_CORE_NVX_H
