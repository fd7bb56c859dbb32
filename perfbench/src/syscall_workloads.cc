/**
 * @file
 * The closed-loop syscall workloads (syscall-null, syscall-io) and the
 * open-loop remote-replica workload. All three run the same variant
 * loop: a seeded sequence of system calls made through sys::invoke,
 * stamped with the cycle counter, with a replicated clock read every
 * 256 calls deciding (identically in every variant) when to stop.
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <memory>
#include <thread>
#include <unistd.h>

#include "core/nvx.h"
#include "netio/socketio.h"
#include "wire/receiver.h"
#include "wire/shipper.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace varan;

constexpr std::uint32_t kLocalStride = 64; ///< 1 in 64 calls stamped
constexpr double kRemoteRate = 10000;      ///< remote-replica calls/s
constexpr std::uint64_t kFileBytes = 1 << 20;
constexpr std::uint64_t kWriteBufBytes = 64 << 10;
constexpr std::size_t kIoBytes = 512;
constexpr std::uint64_t kTailCalls = 64; ///< per kind, traced syscall-null

enum class Kind { Null, Io, Remote };

enum OpCode : std::uint8_t {
    kCloseBad,
    kGetppid,
    kTime,
    kPread,
    kWrite,
    kOpen,
    kCloseFile,
};

struct Op {
    OpCode code;
    std::uint32_t off;
};

/**
 * The seeded call sequence. syscall-null draws close(-1), getppid and
 * time in equal shares; syscall-io (and remote-replica) draws 512 B
 * pread and 512 B write in equal shares, with calls 62 and 63 of every
 * 64 an open and a close of the data file.
 */
class OpGen
{
  public:
    OpGen(Kind kind, std::uint64_t seed) : kind_(kind), rng_(seed) {}

    Op
    next(std::uint64_t i)
    {
        if (kind_ == Kind::Null)
            return {static_cast<OpCode>(rng_.below(3)), 0};
        if ((i & 63) == 62)
            return {kOpen, 0};
        if ((i & 63) == 63)
            return {kCloseFile, 0};
        if (rng_.below(2) == 0)
            return {kPread, rng_.below(kFileBytes - kIoBytes)};
        return {kWrite, rng_.below(kWriteBufBytes - kIoBytes)};
    }

  private:
    Kind kind_;
    Rng rng_;
};

/** Everything a variant needs, captured by value before the fork. */
struct Plan {
    Kind kind;
    std::uint64_t seed;
    std::uint64_t measure_ns;
    std::uint32_t stride;
    std::uint64_t period_tsc; ///< 0 = closed loop
    bool tail;                ///< traced syscall-null: per-kind tail
    Shared *shared;
    SpanBuffers *spans;       ///< nullptr when untraced
    int gate_fd;
    const char *data_path;
    const unsigned char *write_buf;
};

std::uint64_t
timespecNs(const struct timespec &ts)
{
    return std::uint64_t(ts.tv_sec) * 1000000000ULL +
           std::uint64_t(ts.tv_nsec);
}

/** Perform one op; @return the kernel-convention result. */
long
perform(const Op &op, const Plan &plan, long data_fd, long null_fd,
      long *file_fd, unsigned char *buf, long *nr_out)
{
    switch (op.code) {
    case kCloseBad:
        *nr_out = SYS_close;
        return sys::invoke(SYS_close, -1);
    case kGetppid:
        *nr_out = SYS_getppid;
        return sys::invoke(SYS_getppid);
    case kTime:
        *nr_out = SYS_time;
        return sys::invoke(SYS_time, 0);
    case kPread:
        *nr_out = SYS_pread64;
        return sys::invoke(SYS_pread64, data_fd, reinterpret_cast<long>(buf),
                           long(kIoBytes), long(op.off));
    case kWrite:
        *nr_out = SYS_write;
        return sys::invoke(SYS_write, null_fd,
                           reinterpret_cast<long>(plan.write_buf + op.off),
                           long(kIoBytes));
    case kOpen:
        *nr_out = SYS_open;
        *file_fd = sys::invoke(SYS_open,
                               reinterpret_cast<long>(plan.data_path),
                               O_RDONLY);
        return *file_fd;
    case kCloseFile:
        *nr_out = SYS_close;
        return sys::invoke(SYS_close, *file_fd);
    }
    return -EINVAL;
}

bool
resultOk(const Op &op, long r)
{
    switch (op.code) {
    case kCloseBad:
        return r == -EBADF;
    case kGetppid:
    case kTime:
        return r > 0;
    case kPread:
    case kWrite:
        return r == long(kIoBytes);
    case kOpen:
        return r >= 0;
    case kCloseFile:
        return r == 0;
    }
    return false;
}

/** The variant entry point shared by every engine of these workloads. */
int
variantMain(const Plan &plan)
{
    core::Monitor *monitor = core::Monitor::instance();
    const int role = monitor && monitor->isLeader() ? 0 : 1;
    RoleSlot &slot = plan.shared->role[role];
    Stamp *stamps = plan.shared->stamps[role];
    SpanRec *spans = plan.spans ? plan.spans->spans[role] : nullptr;

    std::uint64_t bad = 0;
    long data_fd = -1, null_fd = -1, file_fd = -1;
    if (plan.kind != Kind::Null || plan.tail) {
        data_fd = sys::invoke(SYS_open, reinterpret_cast<long>(plan.data_path),
                              O_RDONLY);
        null_fd = sys::invoke(SYS_open, reinterpret_cast<long>("/dev/null"),
                              O_WRONLY);
        bad += (data_fd < 0) + (null_fd < 0);
    }

    struct timespec ts = {};
    sys::vclock_gettime(CLOCK_MONOTONIC, &ts);
    const std::uint64_t deadline = timespecNs(ts) + plan.measure_ns;

    OpGen gen(plan.kind == Kind::Null ? Kind::Null : Kind::Io, plan.seed);
    std::uint64_t data_digest = kDigestBasis;
    std::uint64_t result_digest = kDigestBasis;
    alignas(64) unsigned char buf[kIoBytes];
    const bool paced = role == 0 && plan.period_tsc != 0;
    const std::uint64_t t0 = tsc();
    if (role == 0)
        slot.t0_tsc.store(t0, std::memory_order_relaxed);

    std::uint64_t i = 0;
    for (;; ++i) {
        if ((i & 255) == 0 && i != 0) {
            slot.ops.store(i, std::memory_order_relaxed);
            sys::vclock_gettime(CLOCK_MONOTONIC, &ts);
            if (timespecNs(ts) >= deadline)
                break;
        }
        if (paced) {
            const std::uint64_t due = t0 + i * plan.period_tsc;
            while (tsc() < due)
                __builtin_ia32_pause();
        }
        const std::uint64_t op_start = spans ? tsc() : 0;
        const Op op = gen.next(i);
        long nr = 0;
        const std::uint64_t a = tsc();
        const long r = perform(op, plan, data_fd, null_fd, &file_fd, buf, &nr);
        const std::uint64_t b = tsc();
        if (!resultOk(op, r))
            ++bad;
        if (op.code == kPread && r == long(kIoBytes))
            data_digest = digestFold(data_digest, buf, kIoBytes);
        result_digest = digestFold(result_digest, &r, sizeof(r));
        if (i % plan.stride == 0 && i / plan.stride < kMaxSamples)
            stamps[i / plan.stride] = {a, b};
        if (spans) {
            const std::uint64_t c = tsc();
            spans[i & (kSpanCap - 1)] = {op_start, std::uint32_t(a - op_start),
                                         std::uint32_t(b - a),
                                         std::uint32_t(c - b),
                                         std::uint32_t(nr)};
        }
        if (i == 0)
            slot.first_op_ns.store(monotonicNs(), std::memory_order_relaxed);
    }

    // Traced syscall-null: the mix has no read, write or open, so a
    // short tail after the measured window gives the per-kind split.
    std::uint64_t s = i;
    if (plan.tail) {
        OpGen io_gen(Kind::Io, plan.seed ^ 0x7a11);
        for (std::uint64_t j = 0; j < 4 * kTailCalls; ++j, ++s) {
            Op op = io_gen.next(j);
            long nr = 0;
            const std::uint64_t a = tsc();
            const long r =
                perform(op, plan, data_fd, null_fd, &file_fd, buf, &nr);
            const std::uint64_t b = tsc();
            if (!resultOk(op, r))
                ++bad;
            result_digest = digestFold(result_digest, &r, sizeof(r));
            spans[s & (kSpanCap - 1)] = {a, 0, std::uint32_t(b - a), 0,
                                         std::uint32_t(nr)};
        }
    }
    if (spans)
        slot.calls.store(s, std::memory_order_relaxed);

    slot.data_digest.store(data_digest, std::memory_order_relaxed);
    slot.result_digest.store(result_digest, std::memory_order_relaxed);
    slot.bad.store(bad, std::memory_order_relaxed);
    slot.ops.store(i, std::memory_order_relaxed);
    slot.done.store(1, std::memory_order_release);

    // Park on a replicated read until the benchmark has read /proc for
    // every variant pid; the leader's byte releases the followers too.
    char go = 0;
    sys::vread(plan.gate_fd, &go, 1);
    if (data_fd >= 0)
        sys::vclose(static_cast<int>(data_fd));
    if (null_fd >= 0)
        sys::vclose(static_cast<int>(null_fd));
    return 0;
}

class Runner
{
  public:
    Runner(const Args &args, Kind kind)
        : args_(args), kind_(kind), shared_(sizeof(Shared))
    {
        if (args.trace)
            spans_ = std::make_unique<SharedMap>(sizeof(SpanBuffers));
        makeInputs();
    }

    ~Runner() { ::unlink(data_path_.c_str()); }

    Lifecycle runLifecycle(bool traced, std::uint64_t measure_ns);
    RunOutput run();

  private:
    void makeInputs();
    void checkOracle(Lifecycle &lc, RunOutput &out);
    void computeStamps(Lifecycle &lc, std::uint64_t measure_ns);

    Shared *shared() const { return shared_.as<Shared>(); }
    std::uint32_t stride() const
    {
        return kind_ == Kind::Remote ? 1 : kLocalStride;
    }

    Args args_;
    Kind kind_;
    SharedMap shared_;
    std::unique_ptr<SharedMap> spans_;
    std::string data_path_;
    std::vector<unsigned char> file_;
    std::vector<unsigned char> write_buf_;
    int endpoint_counter_ = 0;
};

void
Runner::makeInputs()
{
    Rng rng(args_.seed ^ 0xf11eda7aULL);
    file_.resize(kFileBytes);
    for (std::size_t i = 0; i < file_.size(); i += 8) {
        std::uint64_t w = rng.next();
        std::memcpy(&file_[i], &w, 8);
    }
    write_buf_.resize(kWriteBufBytes);
    for (std::size_t i = 0; i < write_buf_.size(); i += 8) {
        std::uint64_t w = rng.next();
        std::memcpy(&write_buf_[i], &w, 8);
    }
    char real[4096];
    if (!::realpath(args_.workdir.c_str(), real))
        throw std::runtime_error("workdir " + args_.workdir + " missing");
    data_path_ = std::string(real) + "/io-" + std::to_string(::getpid()) +
                 ".dat";
    FILE *f = std::fopen(data_path_.c_str(), "wb");
    if (!f || std::fwrite(file_.data(), 1, file_.size(), f) != file_.size())
        throw std::runtime_error("cannot write " + data_path_);
    std::fclose(f);
}

Lifecycle
Runner::runLifecycle(bool traced, std::uint64_t measure_ns)
{
    Lifecycle lc;
    lc.seconds = double(measure_ns) / 1e9;
    for (RoleSlot &slot : shared()->role) {
        slot.ops = 0;
        slot.data_digest = 0;
        slot.result_digest = 0;
        slot.bad = 0;
        slot.first_op_ns = 0;
        slot.t0_tsc = 0;
        slot.done = 0;
        slot.calls = 0;
    }
    int gate[2];
    if (::pipe(gate) != 0)
        throw std::runtime_error("pipe");

    Plan plan;
    plan.kind = kind_;
    plan.seed = args_.seed;
    plan.measure_ns = measure_ns;
    plan.stride = stride();
    plan.period_tsc = kind_ == Kind::Remote
                          ? std::uint64_t(tscPerNs() * 1e9 / kRemoteRate)
                          : 0;
    plan.tail = traced && kind_ == Kind::Null;
    plan.shared = shared();
    plan.spans = traced ? spans_->as<SpanBuffers>() : nullptr;
    plan.gate_fd = gate[0];
    plan.data_path = data_path_.c_str();
    plan.write_buf = write_buf_.data();
    auto entry = [plan]() { return variantMain(plan); };

    // Engines exactly as shipped: EngineConfig defaults (ring capacity
    // 256, tracing on, coalescing off); one follower.
    const std::uint64_t construct_ns = monotonicNs();
    std::unique_ptr<core::Nvx> follower_node; // remote-replica only
    std::unique_ptr<wire::Receiver> receiver;
    std::unique_ptr<core::Nvx> leader_node;
    core::EngineConfig config;
    bool started = true;
    if (kind_ == Kind::Remote) {
        core::EngineConfig remote_config;
        remote_config.external_leader = true;
        follower_node = std::make_unique<core::Nvx>(remote_config);
        started = follower_node
                      ->start({core::VariantSpec(entry).named("replica")})
                      .isOk();
        const std::string endpoint = "perfbench-wire-" +
                                     std::to_string(::getpid()) + "-" +
                                     std::to_string(endpoint_counter_++);
        auto listening = netio::listenAbstract(endpoint);
        started = started && listening.ok();
        receiver = std::make_unique<wire::Receiver>(
            follower_node->region(), &follower_node->layout());
        bool adopted = false;
        std::thread acceptor([&, accept = started] {
            if (!accept || !netio::waitReadable(listening.value(), 10000))
                return;
            long conn = netio::acceptConnection(listening.value(), false);
            adopted = conn >= 0 &&
                      receiver->adopt(static_cast<int>(conn)).isOk();
        });
        config.remote.endpoint = endpoint;
        if (started) {
            leader_node = std::make_unique<core::Nvx>(config);
            started = leader_node
                          ->start({core::VariantSpec(entry).named("leader")})
                          .isOk();
        }
        acceptor.join();
        if (listening.ok())
            ::close(listening.value());
        started = started && adopted;
        if (started)
            receiver->start();
    } else {
        leader_node = std::make_unique<core::Nvx>(config);
        started = leader_node
                      ->start({core::VariantSpec(entry).named("leader"),
                               core::VariantSpec(entry).named("follower")})
                      .isOk();
    }

    core::Nvx *follower_engine =
        kind_ == Kind::Remote ? follower_node.get() : leader_node.get();
    const std::uint32_t follower_index = kind_ == Kind::Remote ? 0 : 1;

    // Wait for both roles to finish their loops; sample the follower's
    // ring lag from the public status on the way.
    const std::uint64_t deadline =
        monotonicNs() + measure_ns + 30000000000ULL;
    double lag_sum = 0;
    std::uint64_t lag_n = 0;
    while (started) {
        if (shared()->role[0].done.load(std::memory_order_acquire) &&
            shared()->role[1].done.load(std::memory_order_acquire))
            break;
        if (monotonicNs() >= deadline) {
            lc.ok = false;
            logf("lifecycle missed its deadline: leader %llu ops, "
                 "follower %llu ops",
                 (unsigned long long)shared()->role[0].ops.load(),
                 (unsigned long long)shared()->role[1].ops.load());
            break;
        }
        core::StatusReport st = liveStatus(*follower_engine);
        lag_sum += double(st.variants[follower_index].ring_lag);
        ++lag_n;
        sleepNs(10000000);
    }
    lc.ring_lag_mean = lag_n ? lag_sum / double(lag_n) : 0;

    if (started) {
        const pid_t pids[kRoles] = {
            pid_t(liveStatus(*leader_node).variants[0].pid),
            pid_t(liveStatus(*follower_engine)
                      .variants[follower_index]
                      .pid)};
        for (int r = 0; r < kRoles; ++r) {
            lc.proc[r] = readProc(pids[r]);
            if (!lc.proc[r].ok)
                lc.ok = false;
        }
    }
    if (::write(gate[1], "g", 1) != 1)
        lc.ok = false;

    auto checkExits = [&](core::Nvx *nvx) {
        if (!nvx)
            return;
        for (const core::VariantResult &r : nvx->waitFor(20000000000ULL)) {
            if (r.crashed || r.status != 0) {
                lc.ok = false;
                logf("variant %d ended with status %d%s", r.variant,
                     r.status, r.crashed ? " (crashed)" : "");
            }
        }
    };
    checkExits(leader_node.get());
    checkExits(follower_node.get());
    if (!started)
        lc.ok = false;

    if (leader_node) {
        lc.leader_status = leader_node->status();
        if (leader_node->shipper())
            lc.ship = leader_node->shipper()->stats();
    }
    if (follower_node)
        lc.follower_status = follower_node->status();
    else
        lc.follower_status = lc.leader_status;
    if (receiver) {
        receiver->finish();
        lc.recv = receiver->stats();
    }
    ::close(gate[0]);
    ::close(gate[1]);

    // Set-up ends at the leader's first call, or at the first remote
    // apply when the follower sits behind the wire.
    const std::uint64_t first =
        shared()->role[kind_ == Kind::Remote ? 1 : 0].first_op_ns.load();
    lc.setup_s = first > construct_ns ? double(first - construct_ns) / 1e9
                                      : 0;
    lc.ops = shared()->role[0].ops.load();
    computeStamps(lc, measure_ns);
    return lc;
}

void
Runner::computeStamps(Lifecycle &lc, std::uint64_t measure_ns)
{
    const Shared *sh = shared();
    const std::uint64_t ops =
        std::min(sh->role[0].ops.load(), sh->role[1].ops.load());
    const std::size_t n = std::min<std::uint64_t>(
        (ops + stride() - 1) / stride(), kMaxSamples);
    if (n < 2)
        return;
    const Stamp *lead = sh->stamps[0];
    const Stamp *foll = sh->stamps[1];
    const std::uint64_t t0 = sh->role[0].t0_tsc.load();
    const double period = kind_ == Kind::Remote
                              ? std::uint64_t(tscPerNs() * 1e9 / kRemoteRate)
                              : 0;
    // Skip the first tenth of the window: lazy set-up and cold caches.
    const std::uint64_t warm =
        lead[0].start + std::uint64_t(tscPerNs() * double(measure_ns) / 10);
    std::size_t k0 = 0;
    while (k0 < n && lead[k0].start < warm)
        ++k0;
    if (k0 + 2 > n)
        k0 = 0;
    std::vector<double> op_us, lag_us, stall_us;
    op_us.reserve(n - k0);
    lag_us.reserve(n - k0);
    // Open loop (remote-replica): times count from the call's due time,
    // so a stall also delays the calls queued behind it, and an op is
    // done once the remote follower has applied it. Closed loop: an op
    // is one leader call; the lag runs from its return to the
    // follower's.
    for (std::size_t k = k0; k < n; ++k) {
        if (kind_ == Kind::Remote) {
            const double due = double(t0) + double(k) * period;
            lag_us.push_back(tscToNs(double(foll[k].end) - due) / 1e3);
            op_us.push_back(lag_us.back());
            stall_us.push_back(tscToNs(double(lead[k].start) - due) / 1e3);
        } else {
            op_us.push_back(tscToNs(double(lead[k].end - lead[k].start)) /
                            1e3);
            lag_us.push_back(
                tscToNs(double(foll[k].end) - double(lead[k].end)) / 1e3);
        }
    }
    lc.op_us_p50 = quantile(op_us, 0.5);
    lc.op_us_p99 = quantile(op_us, 0.99);
    lc.lag_us_p50 = quantile(lag_us, 0.5);
    lc.lag_us_p99 = quantile(lag_us, 0.99);
    lc.stall_us_p99 = quantile(stall_us, 0.99);
    const double dt_ns = tscToNs(double(foll[n - 1].end - foll[k0].end));
    lc.ops_per_s = dt_ns > 0 ? double((n - 1 - k0) * stride()) * 1e9 / dt_ns
                             : 0;
    lc.follower_cpu_ns_per_op =
        ops ? double(lc.proc[1].cpu_ns) / double(ops) : 0;
}

void
Runner::checkOracle(Lifecycle &lc, RunOutput &out)
{
    const RoleSlot &lead = shared()->role[0];
    const RoleSlot &foll = shared()->role[1];
    const std::uint64_t lops = lead.ops.load();
    const std::uint64_t fops = foll.ops.load();
    std::uint64_t failed = lead.bad.load() + foll.bad.load();
    if (fops < lops)
        failed += lops - fops; // never replayed: timed out
    if (lead.bad.load() || foll.bad.load())
        out.fail("unexpected syscall results: leader " +
                 std::to_string(lead.bad.load()) + ", follower " +
                 std::to_string(foll.bad.load()));
    if (lead.done.load() && foll.done.load()) {
        if (lead.result_digest.load() != foll.result_digest.load() ||
            lead.data_digest.load() != foll.data_digest.load()) {
            failed += lops;
            out.fail("follower digest differs from the leader's");
        }
        if (kind_ != Kind::Null) {
            // The seed's expected digest over the same pread sequence.
            OpGen gen(Kind::Io, args_.seed);
            std::uint64_t expect = kDigestBasis;
            for (std::uint64_t i = 0; i < lops; ++i) {
                Op op = gen.next(i);
                if (op.code == kPread)
                    expect = digestFold(expect, &file_[op.off], kIoBytes);
            }
            if (expect != lead.data_digest.load()) {
                failed += lops;
                out.fail("pread digest differs from the seed's data");
            }
        }
    }
    for (const core::StatusReport *st :
         {&lc.leader_status, &lc.follower_status}) {
        if (st->divergences_fatal || st->divergences_resolved) {
            failed += st->divergences_fatal + st->divergences_resolved;
            out.fail("divergences: fatal " +
                     std::to_string(st->divergences_fatal) + ", resolved " +
                     std::to_string(st->divergences_resolved));
        }
    }
    if (lc.recv.corrupt_frames) {
        failed += lc.recv.corrupt_frames;
        out.fail("corrupt wire frames");
    }
    if (!lc.ok) {
        failed = std::max<std::uint64_t>(failed, 1);
        out.fail("engine lifecycle failed (exit status, deadline or /proc)");
    }
    out.attempted += std::max<std::uint64_t>(lops, 1);
    out.failed += std::min(failed, std::max<std::uint64_t>(lops, 1));
    if (failed)
        lc.ok = false;
}

RunOutput
Runner::run()
{
    RunOutput out;
    std::vector<Lifecycle> untraced, traced;
    runLifecycles(
        args_,
        [&](bool t, std::uint64_t ns) {
            Lifecycle lc = runLifecycle(t, ns);
            checkOracle(lc, out);
            return lc;
        },
        &untraced, &traced);
    if (!args_.trace) {
        addEndToEnd(out, untraced);
        if (kind_ == Kind::Remote)
            out.note("leader_stall_us_p99", "us",
                     quantileOf(untraced, &Lifecycle::stall_us_p99, 0.5));
        return out;
    }
    if (traced.empty() || untraced.empty())
        return out; // the oracle already failed; no per-layer figures

    const SpanBuffers &sb = *spans_->as<SpanBuffers>();
    writeSpans(args_, *shared(), sb, {});
    CallSplit split[kRoles];
    splitSpans(*shared(), sb, split);
    // An op's self time is the loop around its sys::invoke (the
    // per-kind tail of syscall-null records none).
    std::vector<double> exchange, self;
    for (std::uint64_t k = 0; k < spanCount(*shared(), 0); ++k) {
        const SpanRec &s = sb.spans[0][k];
        if (s.pre + s.post > 0) {
            exchange.push_back(tscToNs(double(s.pre + s.call + s.post)));
            self.push_back(tscToNs(double(s.pre + s.post)));
        }
    }
    addSpanMetrics(out, split, exchange, self);
    addCounterMetrics(out, untraced, traced);

    ProbeShape shape;
    if (kind_ == Kind::Null)
        shape.nr_mix = {SYS_close, SYS_getppid, SYS_time};
    else
        shape.nr_mix = {SYS_pread64, SYS_write, SYS_open, SYS_close};
    const Lifecycle &u = untraced.back();
    if (kind_ == Kind::Remote && u.ship.frames)
        shape.checksum_bytes = std::size_t(u.ship.bytes / u.ship.frames);
    addProbeMetrics(out, shape);
    return out;
}

} // namespace

RunOutput
runSyscallWorkload(const Args &args)
{
    const Kind kind = args.workload == "syscall-null" ? Kind::Null
                      : args.workload == "syscall-io" ? Kind::Io
                                                      : Kind::Remote;
    Runner runner(args, kind);
    return runner.run();
}

} // namespace perfbench
