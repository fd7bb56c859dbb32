#include "core/status.h"

namespace varan::core {

namespace {

void
snapshotHistogram(const trace::Histogram &h, HistogramStatus &out)
{
    for (std::size_t i = 0; i < trace::kHistogramBuckets; ++i)
        out.buckets[i] = h.buckets[i].load(std::memory_order_relaxed);
    out.sum = h.sum.load(std::memory_order_relaxed);
    out.count = h.count.load(std::memory_order_relaxed);
}

} // namespace

StatusReport
collectStatus(const shmem::Region *region, const EngineLayout &layout)
{
    StatusReport report = {};
    ControlBlock *cb = layout.controlBlock(region);

    report.num_variants = cb->num_variants;
    report.ring_capacity = cb->ring_capacity;
    report.leader = cb->leader_id.load(std::memory_order_acquire);
    report.epoch = cb->epoch.load(std::memory_order_acquire);
    report.live_mask = cb->live_mask.load(std::memory_order_acquire);
    report.num_tuples = cb->num_tuples.load(std::memory_order_acquire);
    report.stream_generation =
        cb->stream_generation.load(std::memory_order_acquire);
    report.promotions = cb->promotions.load(std::memory_order_acquire);

    report.events_streamed =
        cb->events_streamed.load(std::memory_order_relaxed);
    report.divergences_resolved =
        cb->divergences_resolved.load(std::memory_order_relaxed);
    report.divergences_fatal =
        cb->divergences_fatal.load(std::memory_order_relaxed);
    report.fd_transfers = cb->fd_transfers.load(std::memory_order_relaxed);

    const std::uint32_t tuples =
        report.num_tuples < kMaxTuples ? report.num_tuples : kMaxTuples;
    for (std::uint32_t v = 0; v < kMaxVariants; ++v) {
        const VariantSlot &slot = cb->variants[v];
        VariantStatus &out = report.variants[v];
        out.state = slot.state.load(std::memory_order_acquire);
        out.role = slot.role.load(std::memory_order_acquire);
        out.exit_status = slot.exit_status.load(std::memory_order_acquire);
        out.pid = slot.pid.load(std::memory_order_acquire);
        out.restarts = slot.restarts.load(std::memory_order_acquire);
        out.syscalls = slot.syscalls.load(std::memory_order_relaxed);
        // Leader-to-follower distance (the "log size" of section 5.3),
        // maximised over the variant's attached tuple rings.
        std::uint64_t max_lag = 0;
        if (v < report.num_variants) {
            for (std::uint32_t t = 0; t < tuples; ++t) {
                ring::RingBuffer ring = layout.tupleRing(region, t);
                if (!ring.consumerActive(static_cast<int>(v)))
                    continue;
                std::uint64_t lag = ring.lag(static_cast<int>(v));
                if (lag > max_lag)
                    max_lag = lag;
            }
        }
        out.ring_lag = max_lag;
    }

    report.pool = layout.pool(region).stats();

    report.recorder.active = cb->rr_active.load(std::memory_order_relaxed);
    report.recorder.evicted =
        cb->rr_evicted.load(std::memory_order_relaxed);
    report.recorder.write_errno =
        cb->rr_write_errno.load(std::memory_order_relaxed);
    report.recorder.events = cb->rr_events.load(std::memory_order_relaxed);
    report.recorder.bytes_written =
        cb->rr_bytes_written.load(std::memory_order_relaxed);
    report.recorder.spill_peak =
        cb->rr_spill_peak.load(std::memory_order_relaxed);

    const TuningBlock &tuning = cb->tuning;
    report.adapt.active =
        tuning.adapt_active.load(std::memory_order_acquire);
    report.adapt.pinned_mask =
        tuning.pinned_mask.load(std::memory_order_acquire);
    report.adapt.samples =
        tuning.adapt_samples.load(std::memory_order_relaxed);
    report.adapt.decisions =
        tuning.adapt_decisions.load(std::memory_order_relaxed);
    report.adapt.ship_batch =
        static_cast<std::uint32_t>(liveKnob(tuning, Knob::ShipBatch));
    report.adapt.credit_window =
        static_cast<std::uint32_t>(liveKnob(tuning, Knob::CreditWindow));
    report.adapt.coalesce_window_ns =
        liveKnob(tuning, Knob::CoalesceWindowNs);

    const trace::TraceBlock &tb = cb->trace;
    report.trace.enabled = tb.enabled.load(std::memory_order_relaxed);
    report.trace.trace_records =
        tb.trace_head.load(std::memory_order_relaxed);
    report.trace.ledger_records =
        tb.ledger_head.load(std::memory_order_relaxed);
    snapshotHistogram(tb.publish_lag, report.trace.publish_lag);
    snapshotHistogram(tb.credit_stall, report.trace.credit_stall);
    snapshotHistogram(tb.blackout, report.trace.blackout);
    // Tail of the divergence ledger, oldest first.
    std::uint64_t cursor = report.trace.ledger_records;
    cursor = cursor > TraceStatus::kRecent ? cursor - TraceStatus::kRecent
                                           : 0;
    report.trace.recent_count = static_cast<std::uint32_t>(
        trace::ledgerRead(tb, &cursor, report.trace.recent,
                          TraceStatus::kRecent));
    return report;
}

namespace {

void
metric(std::string &out, const char *name, const char *type,
       const char *help, std::uint64_t value)
{
    out += "# HELP ";
    out += name;
    out += ' ';
    out += help;
    out += "\n# TYPE ";
    out += name;
    out += ' ';
    out += type;
    out += '\n';
    out += name;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
}

/** Render one log2 histogram as cumulative Prometheus buckets: 31
 *  finite `le` bounds (2^i - 1 ns — the last shared-memory bucket
 *  absorbs overflow and only appears under `+Inf`), then the
 *  `_sum`/`_count` pair. */
void
histogramMetric(std::string &out, const char *name, const char *help,
                const HistogramStatus &h)
{
    out += "# HELP ";
    out += name;
    out += ' ';
    out += help;
    out += "\n# TYPE ";
    out += name;
    out += " histogram\n";
    std::uint64_t cumulative = 0;
    for (unsigned i = 0; i + 1 < trace::kHistogramBuckets; ++i) {
        cumulative += h.buckets[i];
        out += name;
        out += "_bucket{le=\"";
        out += std::to_string(trace::histogramBound(i));
        out += "\"} ";
        out += std::to_string(cumulative);
        out += '\n';
    }
    cumulative += h.buckets[trace::kHistogramBuckets - 1];
    out += name;
    out += "_bucket{le=\"+Inf\"} ";
    out += std::to_string(cumulative);
    out += '\n';
    out += name;
    out += "_sum ";
    out += std::to_string(h.sum);
    out += '\n';
    out += name;
    out += "_count ";
    out += std::to_string(h.count);
    out += '\n';
}

void
variantMetric(std::string &out, const char *name, const char *type,
              const char *help, const StatusReport &report,
              std::uint64_t (*pick)(const VariantStatus &))
{
    out += "# HELP ";
    out += name;
    out += ' ';
    out += help;
    out += "\n# TYPE ";
    out += name;
    out += ' ';
    out += type;
    out += '\n';
    for (std::uint32_t v = 0; v < report.num_variants; ++v) {
        out += name;
        out += "{variant=\"";
        out += std::to_string(v);
        out += "\"} ";
        out += std::to_string(pick(report.variants[v]));
        out += '\n';
    }
}

} // namespace

std::string
statusText(const StatusReport &report)
{
    std::string out;
    out.reserve(4096);

    // Geometry + election state.
    metric(out, "varan_num_variants", "gauge",
           "Variants configured on this engine", report.num_variants);
    metric(out, "varan_ring_capacity", "gauge",
           "Per-tuple ring capacity (events)", report.ring_capacity);
    metric(out, "varan_leader", "gauge",
           "Current leader variant id (4294967295 = none)", report.leader);
    metric(out, "varan_epoch", "counter", "Leader elections performed",
           report.epoch);
    metric(out, "varan_live_mask", "gauge", "Bitmask of running variants",
           report.live_mask);
    metric(out, "varan_num_tuples", "gauge", "Live thread/process tuples",
           report.num_tuples);
    metric(out, "varan_stream_generation", "gauge",
           "Event stream generation (bumped on cross-node promotion)",
           report.stream_generation);
    metric(out, "varan_promotions_total", "counter",
           "Leader promotions performed on this engine",
           report.promotions);

    // Stream counters.
    metric(out, "varan_events_streamed_total", "counter",
           "Events published into the tuple rings",
           report.events_streamed);
    metric(out, "varan_divergences_resolved_total", "counter",
           "Divergences resolved by rewrite rules",
           report.divergences_resolved);
    metric(out, "varan_divergences_fatal_total", "counter",
           "Fatal divergences", report.divergences_fatal);
    metric(out, "varan_fd_transfers_total", "counter",
           "Descriptor transfers to followers", report.fd_transfers);

    // Per-variant series.
    variantMetric(out, "varan_variant_state", "gauge",
                  "Variant state (0 empty, 1 running, 2 crashed, 3 exited)",
                  report,
                  [](const VariantStatus &v) -> std::uint64_t {
                      return v.state;
                  });
    variantMetric(out, "varan_variant_syscalls_total", "counter",
                  "Syscalls dispatched by the variant", report,
                  [](const VariantStatus &v) -> std::uint64_t {
                      return v.syscalls;
                  });
    variantMetric(out, "varan_variant_ring_lag", "gauge",
                  "Leader-to-follower event distance (max over tuples)",
                  report,
                  [](const VariantStatus &v) -> std::uint64_t {
                      return v.ring_lag;
                  });
    variantMetric(out, "varan_variant_restarts_total", "counter",
                  "Respawns performed by the restart policy", report,
                  [](const VariantStatus &v) -> std::uint64_t {
                      return v.restarts;
                  });

    // Pool pressure.
    metric(out, "varan_pool_spills_total", "counter",
           "Arena exhaustions spilled to the global fallback",
           report.pool.spills);
    metric(out, "varan_pool_global_live_chunks", "gauge",
           "Allocations outstanding in the global fallback arena",
           report.pool.global.live_chunks);

    // Wire shipper.
    metric(out, "varan_shipper_active", "gauge",
           "A wire shipper exists on this engine", report.shipper.active);
    metric(out, "varan_shipper_link_up", "gauge",
           "At least one peer link is usable", report.shipper.link_up);
    metric(out, "varan_shipper_peers", "gauge",
           "Registered receiver sessions", report.shipper.peers);
    metric(out, "varan_shipper_frames_total", "counter",
           "Frames transmitted (per peer)", report.shipper.frames);
    metric(out, "varan_shipper_events_total", "counter",
           "Events drained from the rings", report.shipper.events);
    metric(out, "varan_shipper_bytes_total", "counter",
           "Bytes transmitted", report.shipper.bytes);
    metric(out, "varan_shipper_credit_stalls_total", "counter",
           "Drain passes gated by a closed credit window",
           report.shipper.credit_stalls);
    metric(out, "varan_shipper_drain_passes_total", "counter",
           "Drain passes that found ring backlog",
           report.shipper.drain_passes);
    metric(out, "varan_shipper_status_pushes_total", "counter",
           "Unsolicited Status frame broadcasts",
           report.shipper.status_pushes);

    // Wire receiver.
    metric(out, "varan_receiver_active", "gauge",
           "A wire receiver feeds this engine", report.receiver.active);
    metric(out, "varan_receiver_events_total", "counter",
           "Events materialized from the wire", report.receiver.events);
    metric(out, "varan_receiver_promoted", "gauge",
           "This node took over leadership", report.receiver.promoted);
    metric(out, "varan_receiver_fenced", "gauge",
           "This node fenced itself off the quorum (buffering only)",
           report.receiver.fenced);

    // Quorum control plane (wire v6).
    metric(out, "varan_quorum_active", "gauge",
           "A quorum lease manager runs on this node",
           report.quorum.active);
    metric(out, "varan_quorum_members", "gauge",
           "Configured quorum membership size (incl. this node)",
           report.quorum.members);
    metric(out, "varan_quorum_live_members", "gauge",
           "Members currently heard from (incl. this node)",
           report.quorum.live_members);
    metric(out, "varan_quorum_term", "gauge",
           "Current lease term", report.quorum.term);
    metric(out, "varan_quorum_holder", "gauge",
           "Live lease holder node id (4294967295 = none)",
           report.quorum.holder);
    metric(out, "varan_quorum_elections_total", "counter",
           "Election rounds started by this node",
           report.quorum.elections);
    metric(out, "varan_quorum_leases_won_total", "counter",
           "Election rounds that reached a quorum of grants",
           report.quorum.leases_won);
    metric(out, "varan_quorum_votes_granted_total", "counter",
           "Vote grants this node handed to peer candidates",
           report.quorum.votes_granted);
    metric(out, "varan_quorum_fences_total", "counter",
           "Fence orders received by this node", report.quorum.fences);

    // Recorder.
    metric(out, "varan_recorder_active", "gauge",
           "Record-replay taps are attached", report.recorder.active);
    metric(out, "varan_recorder_events_total", "counter",
           "Records drained by the rr sink", report.recorder.events);

    // Live tuning + adaptive controller.
    metric(out, "varan_adapt_active", "gauge",
           "An AutoTuner thread is running", report.adapt.active);
    metric(out, "varan_adapt_samples_total", "counter",
           "Controller sampling ticks taken", report.adapt.samples);
    metric(out, "varan_adapt_decisions_total", "counter",
           "Knob adjustments applied by the controller",
           report.adapt.decisions);
    metric(out, "varan_adapt_pinned_mask", "gauge",
           "Bitmask of knobs pinned against adaptation",
           report.adapt.pinned_mask);
    metric(out, "varan_tuning_ship_batch", "gauge",
           "Live ship batch (events per wire frame)",
           report.adapt.ship_batch);
    metric(out, "varan_tuning_credit_window", "gauge",
           "Live credit window (unacked events per tuple per peer)",
           report.adapt.credit_window);
    metric(out, "varan_tuning_coalesce_window_ns", "gauge",
           "Live shipper linger cap for a short run (ns)",
           report.adapt.coalesce_window_ns);

    // Observability: flight recorder, latency histograms, divergence
    // ledger. Every metric name added here must be documented in
    // docs/OBSERVABILITY.md (CI greps for it).
    metric(out, "varan_trace_enabled", "gauge",
           "Flight recorder and latency histograms are on",
           report.trace.enabled);
    metric(out, "varan_trace_records_total", "counter",
           "Flight-recorder stamps written (ring keeps the last 2048)",
           report.trace.trace_records);
    metric(out, "varan_divergence_records_total", "counter",
           "Structured divergence ledger appends",
           report.trace.ledger_records);
    histogramMetric(out, "varan_publish_lag_ns",
                    "Event creation to follower dispatch (sampled 1-in-64)",
                    report.trace.publish_lag);
    histogramMetric(out, "varan_credit_stall_ns",
                    "Wire drain stalled on a closed credit window",
                    report.trace.credit_stall);
    histogramMetric(out, "varan_blackout_ns",
                    "Leader death to first post-promotion publish",
                    report.trace.blackout);
    return out;
}

} // namespace varan::core
