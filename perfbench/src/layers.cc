/**
 * @file
 * The run structure shared by every workload, and the assembly of the
 * end-to-end and per-layer metrics from lifecycles, spans and the
 * counters read from outside.
 */

#include <algorithm>
#include <cstdio>

#include "workloads.h"

namespace perfbench {

long
StampingDispatcher::dispatch(long nr, const std::uint64_t args[6])
{
    const std::uint64_t i = index_++;
    const bool stamp = i % stride_ == 0 && i / stride_ < kMaxSamples;
    if (!stamp && !spans_) {
        slot_->calls.store(i + 1, std::memory_order_relaxed);
        return inner_->dispatch(nr, args);
    }
    const std::uint64_t a = tsc();
    const long r = inner_->dispatch(nr, args);
    const std::uint64_t b = tsc();
    if (stamp)
        stamps_[i / stride_] = {a, b};
    if (spans_)
        spans_[i & (kSpanCap - 1)] = {a, 0, std::uint32_t(b - a), 0,
                                      std::uint32_t(nr)};
    slot_->calls.store(i + 1, std::memory_order_relaxed);
    return r;
}

void
runLifecycles(const Args &args,
              const std::function<Lifecycle(bool, std::uint64_t)> &one,
              std::vector<Lifecycle> *untraced, std::vector<Lifecycle> *traced)
{
    // Many one-second engine lifecycles rather than one long one: the
    // scheduler places the variants afresh in each, and every metric is
    // taken over them (each also gives a set-up time).
    const int count = std::max(4, int(args.seconds + 0.5));
    const std::uint64_t ns = std::uint64_t(args.seconds * 1e9) / count;
    for (int k = 0; k < count; ++k) {
        const bool t = args.trace && k % 2 == 1;
        const std::uint64_t t0 = varan::monotonicNs();
        Lifecycle lc = one(t, ns);
        logf("%s lifecycle %d%s (%.2f s): setup %.4f s, %.0f ops/s, op p50/p99 "
             "%.3f/%.3f us, lag p50/p99 %.3f/%.3f us, follower %.0f ns/op",
             args.workload.c_str(), k, t ? " (traced)" : "",
             double(varan::monotonicNs() - t0) / 1e9, lc.setup_s,
             lc.ops_per_s, lc.op_us_p50, lc.op_us_p99, lc.lag_us_p50,
             lc.lag_us_p99, lc.follower_cpu_ns_per_op);
        const bool ok = lc.ok;
        (t ? traced : untraced)->push_back(std::move(lc));
        if (!ok)
            break;
    }
}

double
quantileOf(const std::vector<Lifecycle> &lcs, double Lifecycle::*field,
           double q)
{
    std::vector<double> xs;
    for (const Lifecycle &lc : lcs)
        xs.push_back(lc.*field);
    return quantile(std::move(xs), q);
}

void
addEndToEnd(RunOutput &out, const std::vector<Lifecycle> &lcs)
{
    // Each metric is the quartile of its lifecycles on the better side
    // (the 75th percentile of throughput, the 25th of times). Other
    // tenants of a shared machine only ever slow a lifecycle down, and
    // in bursts of seconds, so this quartile tracks the engine while a
    // median would track the neighbours whenever they are busy for more
    // than half of a run.
    auto better = [&](double Lifecycle::*field, bool higher) {
        return quantileOf(lcs, field, higher ? 0.75 : 0.25);
    };
    out.add("setup_s", "s", better(&Lifecycle::setup_s, false));
    out.add("ops_per_s", "1/s", better(&Lifecycle::ops_per_s, true));
    out.add("op_us_p50", "us", better(&Lifecycle::op_us_p50, false));
    out.add("op_us_p99", "us", better(&Lifecycle::op_us_p99, false));
    out.add("follower_cpu_ns_per_op", "ns",
            better(&Lifecycle::follower_cpu_ns_per_op, false));
    // Replica lag is printed for context only: on the closed-loop
    // workloads the follower drifts between one call and one ring
    // behind the leader, so its run-to-run spread exceeds any bound.
    out.note("replica_lag_us_p50", "us",
             quantileOf(lcs, &Lifecycle::lag_us_p50, 0.5));
    out.note("replica_lag_us_p99", "us",
             quantileOf(lcs, &Lifecycle::lag_us_p99, 0.5));
}

void
addToSplit(CallSplit &split, long nr, double ns)
{
    split.all.push_back(ns);
    switch (nr) {
    case SYS_read:
    case SYS_pread64:
    case SYS_recvfrom:
        split.read.push_back(ns);
        break;
    case SYS_write:
    case SYS_pwrite64:
    case SYS_sendto:
        split.write.push_back(ns);
        break;
    case SYS_open:
    case SYS_openat:
    case SYS_accept:
    case SYS_accept4:
        split.open.push_back(ns);
        break;
    default:
        break;
    }
}

std::uint64_t
spanCount(const Shared &shared, int role)
{
    return std::min<std::uint64_t>(shared.role[role].calls.load(), kSpanCap);
}

void
splitSpans(const Shared &shared, const SpanBuffers &spans,
           CallSplit split[kRoles])
{
    for (int r = 0; r < kRoles; ++r) {
        const std::uint64_t n = spanCount(shared, r);
        for (std::uint64_t k = 0; k < n; ++k)
            addToSplit(split[r], spans.spans[r][k].nr,
                       tscToNs(spans.spans[r][k].call));
    }
}

void
writeSpans(const Args &args, const Shared &shared, const SpanBuffers &spans,
           const std::vector<ExchangeSpan> &exchanges)
{
    // One file per workload, overwritten by the next traced run.
    const std::string path =
        args.workdir + "/spans-" + args.workload + ".bin";
    FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return;
    const std::uint64_t counts[kRoles] = {spanCount(shared, 0),
                                          spanCount(shared, 1)};
    std::fprintf(f,
                 "perfbench-spans v1 tsc_per_ns=%.9f leader=%llu "
                 "follower=%llu record=%zu exchanges=%zu exchange=%zu\n",
                 tscPerNs(), (unsigned long long)counts[0],
                 (unsigned long long)counts[1], sizeof(SpanRec),
                 exchanges.size(), sizeof(ExchangeSpan));
    for (int r = 0; r < kRoles; ++r)
        std::fwrite(spans.spans[r], sizeof(SpanRec), counts[r], f);
    std::fwrite(exchanges.data(), sizeof(ExchangeSpan), exchanges.size(), f);
    std::fclose(f);
}

void
addSpanMetrics(RunOutput &out, const CallSplit split[kRoles],
               const std::vector<double> &exchange_ns,
               const std::vector<double> &self_ns)
{
    out.add("core.leader_call_ns_p50", "ns", quantile(split[0].all, 0.5));
    out.add("core.leader_call_ns_p99", "ns", quantile(split[0].all, 0.99));
    const std::pair<const char *, const std::vector<double> *> kinds[] = {
        {"read", &split[0].read},
        {"write", &split[0].write},
        {"open", &split[0].open}};
    for (const auto &[kind, v] : kinds) {
        out.add(std::string("core.leader_call_ns_p50.") + kind, "ns",
                quantile(*v, 0.5));
        out.add(std::string("core.leader_call_ns_p99.") + kind, "ns",
                quantile(*v, 0.99));
    }
    out.add("core.follower_call_ns_p50", "ns", quantile(split[1].all, 0.5));
    out.add("core.follower_call_ns_p99", "ns", quantile(split[1].all, 0.99));
    out.add("client.exchange_ns_p50", "ns", quantile(exchange_ns, 0.5));
    out.add("client.exchange_self_ns_p50", "ns", quantile(self_ns, 0.5));
}

void
addCounterMetrics(RunOutput &out, const std::vector<Lifecycle> &untraced,
                  const std::vector<Lifecycle> &traced)
{
    // Each figure per lifecycle, then the median over the untraced ones.
    auto med = [&](auto per_lifecycle) {
        std::vector<double> xs;
        for (const Lifecycle &lc : untraced)
            xs.push_back(per_lifecycle(lc));
        return median(xs);
    };
    auto kops = [](const Lifecycle &lc) {
        return double(std::max<std::uint64_t>(lc.ops, 1)) / 1000.0;
    };
    auto remote = [](const Lifecycle &lc) { return lc.ship.frames > 0; };

    out.add("core.ring_lag_events", "events",
            med([](const Lifecycle &lc) { return lc.ring_lag_mean; }));
    out.add("core.leader_ctxsw_per_kop", "count/kop",
            med([&](const Lifecycle &lc) {
                return double(lc.proc[0].voluntary_ctxsw) / kops(lc);
            }));
    out.add("core.follower_ctxsw_per_kop", "count/kop",
            med([&](const Lifecycle &lc) {
                return double(lc.proc[1].voluntary_ctxsw) / kops(lc);
            }));
    out.add("core.leader_minflt_per_kop", "count/kop",
            med([&](const Lifecycle &lc) {
                return double(lc.proc[0].minor_faults) / kops(lc);
            }));
    out.add("core.follower_minflt_per_kop", "count/kop",
            med([&](const Lifecycle &lc) {
                return double(lc.proc[1].minor_faults) / kops(lc);
            }));
    out.add("core.fd_transfers_per_kop", "count/kop",
            med([&](const Lifecycle &lc) {
                return double(lc.leader_status.fd_transfers) / kops(lc);
            }));
    // Context only: the engine pairs publish and dispatch stamps inside
    // one shared region, so on remote-replica nothing is recorded.
    out.note("trace.publish_lag_ns_p50", "ns", med([](const Lifecycle &lc) {
                 return histogramQuantile(
                     lc.follower_status.trace.publish_lag, 0.5);
             }));
    out.add("shmem.pool_spills", "count", med([&](const Lifecycle &lc) {
                return double(lc.leader_status.pool.spills +
                              (remote(lc) ? lc.follower_status.pool.spills
                                          : 0));
            }));
    out.add("wire.frames_per_kevent", "count/kevent",
            med([](const Lifecycle &lc) {
                return lc.ship.events ? double(lc.ship.frames) * 1000.0 /
                                            double(lc.ship.events)
                                      : 0.0;
            }));
    out.add("wire.bytes_per_event", "B", med([](const Lifecycle &lc) {
                return lc.ship.events
                           ? double(lc.ship.bytes) / double(lc.ship.events)
                           : 0.0;
            }));
    out.add("wire.drain_passes_per_s", "1/s", med([](const Lifecycle &lc) {
                return double(lc.ship.drain_passes) / lc.seconds;
            }));
    out.add("wire.credit_stalls", "count", med([](const Lifecycle &lc) {
                return double(lc.ship.credit_stalls);
            }));
    out.add("wire.corrupt_frames", "count", med([](const Lifecycle &lc) {
                return double(lc.recv.corrupt_frames);
            }));
    out.add("wire.duplicates_dropped", "count", med([](const Lifecycle &lc) {
                return double(lc.recv.duplicates_dropped);
            }));

    // Tracing overhead: the traced lifecycles' end-to-end figures, and
    // their ratio to the untraced ones of the same run.
    const double u_ops = quantileOf(untraced, &Lifecycle::ops_per_s, 0.5);
    const double t_ops = quantileOf(traced, &Lifecycle::ops_per_s, 0.5);
    const double u_op = quantileOf(untraced, &Lifecycle::op_us_p50, 0.5);
    const double t_op = quantileOf(traced, &Lifecycle::op_us_p50, 0.5);
    out.add("traced.ops_per_s", "1/s", t_ops);
    out.add("traced.op_us_p50", "us", t_op);
    out.add("traced.replica_lag_us_p50", "us",
            quantileOf(traced, &Lifecycle::lag_us_p50, 0.5));
    out.add("traced.ops_per_s_ratio", "ratio", u_ops > 0 ? t_ops / u_ops : 0);
    out.add("traced.op_us_p50_ratio", "ratio", u_op > 0 ? t_op / u_op : 0);
}

} // namespace perfbench
