/**
 * @file
 * kv-server: the Figure 5 Redis archetype. apps::vstore runs under a
 * leader and one follower; two closed-loop client connections send a
 * seeded SET/GET/INCR/LPUSH/PING mix and check every reply against a
 * model of the store. The server blocks in epoll_wait between
 * requests, so the follower sleeps and wakes on every request.
 */

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <unordered_map>

#include "apps/vstore.h"
#include "core/nvx.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace varan;

constexpr int kConnections = 2;
constexpr std::uint32_t kKvStride = 64; ///< 1 in 64 server calls stamped
constexpr std::uint32_t kKeys = 1024;   ///< per type, per connection

struct Request {
    std::string line;
    std::string expect;
};

/**
 * The seeded command mix of one connection and the model that predicts
 * every reply. Connections use disjoint keys, so each model is exact
 * regardless of how the server interleaves them.
 */
class KvGen
{
  public:
    KvGen(std::uint64_t seed, int conn) : rng_(seed * 31 + conn), conn_(conn)
    {
    }

    Request
    next()
    {
        const std::uint32_t pick = rng_.below(100);
        const std::string key = std::to_string(conn_) + ":" +
                                std::to_string(rng_.below(kKeys));
        if (pick < 15)
            return {"PING\r\n", "+PONG\r\n"};
        if (pick < 40) {
            std::string value = randomValue();
            strings_[key] = value;
            return {"SET s" + key + " " + value + "\r\n", "+OK\r\n"};
        }
        if (pick < 70) {
            auto it = strings_.find(key);
            return {"GET s" + key + "\r\n",
                    it == strings_.end()
                        ? std::string("$-1\r\n")
                        : "$" + std::to_string(it->second.size()) + "\r\n" +
                              it->second + "\r\n"};
        }
        if (pick < 85)
            return {"INCR n" + key + "\r\n",
                    ":" + std::to_string(++counters_[key]) + "\r\n"};
        return {"LPUSH l" + key + " " + randomValue() + "\r\n",
                ":" + std::to_string(++lists_[key]) + "\r\n"};
    }

  private:
    std::string
    randomValue()
    {
        static const char kAlnum[] =
            "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
        std::string v(8 + rng_.below(17), 'x');
        for (char &c : v)
            c = kAlnum[rng_.below(sizeof(kAlnum) - 1)];
        return v;
    }

    Rng rng_;
    int conn_;
    std::unordered_map<std::string, std::string> strings_;
    std::unordered_map<std::string, long long> counters_;
    std::unordered_map<std::string, long long> lists_;
};

/** Length of the first complete RESP reply in @p buf, or 0. */
std::size_t
replyLength(const std::string &buf)
{
    const std::size_t eol = buf.find("\r\n");
    if (eol == std::string::npos)
        return 0;
    if (buf[0] != '$')
        return eol + 2;
    const long len = std::strtol(buf.c_str() + 1, nullptr, 10);
    if (len < 0)
        return eol + 2;
    const std::size_t total = eol + 2 + std::size_t(len) + 2;
    return buf.size() >= total ? total : 0;
}

int
connectWithRetry(const std::string &name, std::uint64_t deadline_ns)
{
    struct sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path + 1, name.data(), name.size());
    const socklen_t len =
        socklen_t(offsetof(struct sockaddr_un, sun_path) + 1 + name.size());
    while (monotonicNs() < deadline_ns) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0)
            return -1;
        if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr), len) ==
            0)
            return fd;
        ::close(fd);
        sleepNs(100000); // server still starting
    }
    return -1;
}

bool
sendAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += std::size_t(n);
    }
    return true;
}

/** Read one complete reply into @p reply; false on EOF or timeout. */
bool
recvReply(int fd, std::string &pending, std::string &reply)
{
    char buf[4096];
    for (;;) {
        const std::size_t n = pending.empty() ? 0 : replyLength(pending);
        if (n > 0) {
            reply.assign(pending, 0, n);
            pending.erase(0, n);
            return true;
        }
        ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            return false;
        pending.append(buf, std::size_t(got));
    }
}

struct ConnResult {
    int fd = -1;
    std::uint64_t sent = 0;
    std::uint64_t replied = 0;
    std::uint64_t mismatched = 0;
    std::uint64_t in_window = 0; ///< replies completed after warm-up
    std::uint64_t first_reply_ns = 0;
    std::vector<double> rtt_us;  ///< after warm-up
    std::vector<ExchangeSpan> spans;
    std::string first_mismatch;
    std::string pending;
};

/** One closed-loop connection until @p end_ns. */
void
clientLoop(const std::string &endpoint, std::uint64_t seed, int conn,
           std::uint64_t warm_ns, std::uint64_t end_ns, bool traced,
           ConnResult &res)
{
    res.fd = connectWithRetry(endpoint, monotonicNs() + 10000000000ULL);
    if (res.fd < 0)
        return;
    struct timeval tv = {10, 0}; // a wedged server fails the run
    ::setsockopt(res.fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    KvGen gen(seed, conn);
    std::string reply;
    res.rtt_us.reserve(1 << 20);
    for (;;) {
        const std::uint64_t now = monotonicNs();
        if (now >= end_ns)
            break;
        const Request req = gen.next();
        const std::uint64_t a = tsc();
        ++res.sent;
        if (!sendAll(res.fd, req.line) ||
            !recvReply(res.fd, res.pending, reply))
            return;
        const std::uint64_t b = tsc();
        ++res.replied;
        if (res.replied == 1)
            res.first_reply_ns = monotonicNs();
        if (reply != req.expect) {
            if (res.mismatched++ == 0)
                res.first_mismatch = req.line + " -> " + reply;
        }
        if (now >= warm_ns) {
            ++res.in_window;
            res.rtt_us.push_back(tscToNs(double(b - a)) / 1e3);
            if (traced)
                res.spans.push_back({a, b});
        }
    }
}

class KvRunner
{
  public:
    explicit KvRunner(const Args &args)
        : args_(args), shared_(sizeof(Shared))
    {
        if (args.trace)
            spans_ = std::make_unique<SharedMap>(sizeof(SpanBuffers));
    }

    RunOutput run();

  private:
    Lifecycle runLifecycle(bool traced, std::uint64_t measure_ns,
                           RunOutput &out);
    void selfTimes(std::vector<double> &exchange,
                   std::vector<double> &self) const;

    Shared *shared() const { return shared_.as<Shared>(); }

    Args args_;
    SharedMap shared_;
    std::unique_ptr<SharedMap> spans_;
    std::vector<ExchangeSpan> last_exchanges_;
    int counter_ = 0;
};

Lifecycle
KvRunner::runLifecycle(bool traced, std::uint64_t measure_ns, RunOutput &out)
{
    Lifecycle lc;
    for (RoleSlot &slot : shared()->role)
        slot.calls = 0;
    const std::string endpoint = "perfbench-kv-" + std::to_string(::getpid()) +
                                 "-" + std::to_string(counter_++);
    Shared *sh = shared();
    SpanBuffers *sb = traced ? spans_->as<SpanBuffers>() : nullptr;
    auto server = [sh, sb, endpoint]() {
        core::Monitor *monitor = core::Monitor::instance();
        const int role = monitor && monitor->isLeader() ? 0 : 1;
        sys::Dispatcher *inner = sys::dispatcher();
        StampingDispatcher stamping(inner, &sh->role[role], sh->stamps[role],
                                    sb ? sb->spans[role] : nullptr,
                                    kKvStride);
        sys::setDispatcher(&stamping);
        apps::vstore::Options options;
        options.endpoint = endpoint;
        const int rc = apps::vstore::serve(options);
        sys::setDispatcher(inner);
        return rc;
    };

    // The engine exactly as shipped (EngineConfig defaults), 1 follower.
    const std::uint64_t construct_ns = monotonicNs();
    core::Nvx nvx{core::EngineConfig{}};
    const bool started =
        nvx.start({core::VariantSpec(server).named("leader"),
                   core::VariantSpec(server).named("follower")})
            .isOk();

    ConnResult conns[kConnections];
    if (started) {
        const std::uint64_t begin = monotonicNs();
        const std::uint64_t warm = begin + measure_ns / 10;
        const std::uint64_t end = begin + measure_ns;
        std::vector<std::thread> clients;
        for (int c = 0; c < kConnections; ++c)
            clients.emplace_back(clientLoop, endpoint, args_.seed, c, warm,
                                 end, traced, std::ref(conns[c]));
        double lag_sum = 0;
        std::uint64_t lag_n = 0;
        while (monotonicNs() < end) {
            lag_sum += double(liveStatus(nvx).variants[1].ring_lag);
            ++lag_n;
            sleepNs(10000000);
        }
        for (std::thread &t : clients)
            t.join();
        lc.ring_lag_mean = lag_n ? lag_sum / double(lag_n) : 0;
        lc.seconds = double(end - warm) / 1e9;
    }

    // Let the follower replay the tail, then read /proc while both
    // variants are still alive.
    const std::uint64_t drain_deadline = monotonicNs() + 5000000000ULL;
    while (started && liveStatus(nvx).variants[1].ring_lag != 0 &&
           monotonicNs() < drain_deadline)
        sleepNs(1000000);
    if (started) {
        for (int r = 0; r < kRoles; ++r) {
            lc.proc[r] = readProc(pid_t(liveStatus(nvx).variants[r].pid));
            if (!lc.proc[r].ok)
                lc.ok = false;
        }
    }

    // SHUTDOWN through the first connection, then reap.
    std::string reply;
    if (!started || conns[0].fd < 0 || !sendAll(conns[0].fd, "SHUTDOWN\r\n") ||
        !recvReply(conns[0].fd, conns[0].pending, reply) || reply != "+OK\r\n")
        lc.ok = false;
    for (ConnResult &c : conns)
        if (c.fd >= 0)
            ::close(c.fd);
    for (const core::VariantResult &r : nvx.waitFor(20000000000ULL)) {
        if (r.crashed || r.status != 0) {
            lc.ok = false;
            logf("kv variant %d ended with status %d%s", r.variant, r.status,
                 r.crashed ? " (crashed)" : "");
        }
    }
    lc.leader_status = nvx.status();
    lc.follower_status = lc.leader_status;

    // Oracle and accounting.
    std::uint64_t sent = 0, replied = 0, mismatched = 0, in_window = 0;
    std::uint64_t first_reply = 0;
    std::vector<double> rtt;
    last_exchanges_.clear();
    for (ConnResult &c : conns) {
        sent += c.sent;
        replied += c.replied;
        mismatched += c.mismatched;
        in_window += c.in_window;
        if (c.first_reply_ns &&
            (!first_reply || c.first_reply_ns < first_reply))
            first_reply = c.first_reply_ns;
        rtt.insert(rtt.end(), c.rtt_us.begin(), c.rtt_us.end());
        last_exchanges_.insert(last_exchanges_.end(), c.spans.begin(),
                               c.spans.end());
        if (c.mismatched)
            out.fail("kv reply mismatch: " + c.first_mismatch);
        if (c.fd < 0)
            out.fail("kv client could not connect");
    }
    if (sent != replied)
        out.fail("kv requests without a reply: " +
                 std::to_string(sent - replied));
    const core::StatusReport &st = lc.leader_status;
    if (st.divergences_fatal || st.divergences_resolved) {
        mismatched += st.divergences_fatal + st.divergences_resolved;
        out.fail("divergences: fatal " + std::to_string(st.divergences_fatal) +
                 ", resolved " + std::to_string(st.divergences_resolved));
    }
    if (!lc.ok)
        out.fail("kv engine lifecycle failed (exit status, /proc or "
                 "shutdown)");
    std::uint64_t failed = mismatched + (sent - replied);
    if (!lc.ok || sent == 0)
        failed = std::max<std::uint64_t>(failed, 1);
    out.attempted += std::max<std::uint64_t>(sent, 1);
    out.failed += std::min(failed, std::max<std::uint64_t>(sent, 1));
    if (failed)
        lc.ok = false;

    // Metrics.
    lc.ops = replied;
    lc.setup_s =
        first_reply > construct_ns ? double(first_reply - construct_ns) / 1e9
                                   : 0;
    lc.ops_per_s = lc.seconds > 0 ? double(in_window) / lc.seconds : 0;
    lc.op_us_p50 = quantile(rtt, 0.5);
    lc.op_us_p99 = quantile(rtt, 0.99);
    lc.follower_cpu_ns_per_op =
        replied ? double(lc.proc[1].cpu_ns) / double(replied) : 0;

    // Replica lag from the stamped server calls: leader return to
    // follower return of the same call, after warm-up.
    const std::uint64_t calls =
        std::min(sh->role[0].calls.load(), sh->role[1].calls.load());
    const std::size_t n =
        std::min<std::uint64_t>((calls + kKvStride - 1) / kKvStride,
                                kMaxSamples);
    std::vector<double> lag;
    const std::size_t k0 = n / 10;
    for (std::size_t k = k0; k < n; ++k)
        lag.push_back(tscToNs(double(sh->stamps[1][k].end) -
                              double(sh->stamps[0][k].end)) /
                      1e3);
    lc.lag_us_p50 = quantile(lag, 0.5);
    lc.lag_us_p99 = quantile(lag, 0.99);
    return lc;
}

/**
 * Self time of each client exchange: its span minus the part covered
 * by the leader's own sys::invoke spans (epoll_wait excluded: that is
 * the server waiting for this very request).
 */
void
KvRunner::selfTimes(std::vector<double> &exchange,
                    std::vector<double> &self) const
{
    const SpanBuffers *sb = spans_->as<SpanBuffers>();
    const std::uint64_t n = spanCount(*shared(), 0);
    std::vector<SpanRec> lead;
    lead.reserve(n);
    for (std::uint64_t k = 0; k < n; ++k)
        if (sb->spans[0][k].nr != SYS_epoll_wait)
            lead.push_back(sb->spans[0][k]);
    std::sort(lead.begin(), lead.end(),
              [](const SpanRec &a, const SpanRec &b) {
                  return a.start < b.start;
              });
    if (lead.empty())
        return;
    const std::uint64_t covered_from = lead.front().start;
    for (const ExchangeSpan &x : last_exchanges_) {
        if (x.start < covered_from)
            continue; // before the span buffer's window
        auto it = std::lower_bound(
            lead.begin(), lead.end(), x.start,
            [](const SpanRec &s, std::uint64_t t) { return s.start < t; });
        std::uint64_t inside = 0;
        for (; it != lead.end() && it->start < x.end; ++it) {
            const std::uint64_t e = std::min(it->start + it->call, x.end);
            inside += e - it->start;
        }
        exchange.push_back(tscToNs(double(x.end - x.start)));
        self.push_back(tscToNs(double(x.end - x.start - inside)));
    }
}

RunOutput
KvRunner::run()
{
    RunOutput out;
    std::vector<Lifecycle> untraced, traced;
    runLifecycles(
        args_,
        [&](bool t, std::uint64_t ns) { return runLifecycle(t, ns, out); },
        &untraced, &traced);
    if (!args_.trace) {
        addEndToEnd(out, untraced);
        return out;
    }
    if (traced.empty() || untraced.empty())
        return out; // the oracle already failed; no per-layer figures

    CallSplit split[kRoles];
    splitSpans(*shared(), *spans_->as<SpanBuffers>(), split);
    std::vector<double> exchange, self;
    selfTimes(exchange, self);
    addSpanMetrics(out, split, exchange, self);
    addCounterMetrics(out, untraced, traced);
    writeSpans(args_, *shared(), *spans_->as<SpanBuffers>(), last_exchanges_);

    ProbeShape shape;
    shape.nr_mix = {SYS_epoll_wait, SYS_read, SYS_write};
    addProbeMetrics(out, shape);
    return out;
}

} // namespace

RunOutput
runKvWorkload(const Args &args)
{
    KvRunner runner(args);
    return runner.run();
}

} // namespace perfbench
