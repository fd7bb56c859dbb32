#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <new>
#include <sys/mman.h>

namespace perfbench {

namespace {

double g_tsc_per_ns = 0;

} // namespace

void
calibrateTsc()
{
    // One 40 ms window. An invariant TSC (constant_tsc) is assumed, as
    // everywhere the cycle counter stamps cross cores.
    const std::uint64_t n0 = varan::monotonicNs();
    const std::uint64_t t0 = tsc();
    varan::sleepNs(40000000);
    const std::uint64_t n1 = varan::monotonicNs();
    const std::uint64_t t1 = tsc();
    g_tsc_per_ns = double(t1 - t0) / double(n1 - n0);
}

double
tscPerNs()
{
    return g_tsc_per_ns;
}

SharedMap::SharedMap(std::size_t bytes) : size_(bytes)
{
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    base_ = p;
}

SharedMap::~SharedMap()
{
    if (base_)
        ::munmap(base_, size_);
}

ProcSample
readProc(pid_t pid)
{
    ProcSample s;
    char path[64];
    std::snprintf(path, sizeof(path), "/proc/%d/schedstat", int(pid));
    FILE *f = std::fopen(path, "r");
    if (!f)
        return s;
    unsigned long long run = 0;
    bool ok = std::fscanf(f, "%llu", &run) == 1;
    std::fclose(f);
    s.cpu_ns = run;

    std::snprintf(path, sizeof(path), "/proc/%d/stat", int(pid));
    f = std::fopen(path, "r");
    if (!f)
        return s;
    char buf[1024] = {};
    std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    buf[n] = 0;
    // Fields after the parenthesised command name; minflt is field 10.
    const char *p = std::strrchr(buf, ')');
    unsigned long long minflt = 0;
    ok = ok && p &&
         std::sscanf(p + 2, "%*c %*d %*d %*d %*d %*d %*u %llu", &minflt) ==
             1;
    s.minor_faults = minflt;

    std::snprintf(path, sizeof(path), "/proc/%d/status", int(pid));
    f = std::fopen(path, "r");
    if (!f)
        return s;
    char line[256];
    bool found = false;
    while (std::fgets(line, sizeof(line), f)) {
        unsigned long long v = 0;
        if (std::sscanf(line, "voluntary_ctxt_switches: %llu", &v) == 1) {
            s.voluntary_ctxsw = v;
            found = true;
        }
    }
    std::fclose(f);
    s.ok = ok && found;
    return s;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = q * double(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - double(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
histogramQuantile(const varan::core::HistogramStatus &h, double q)
{
    if (h.count == 0)
        return 0;
    const double target = q * double(h.count);
    double seen = 0;
    for (std::size_t i = 0; i < varan::trace::kHistogramBuckets; ++i) {
        const double in = double(h.buckets[i]);
        if (in > 0 && seen + in >= target) {
            // Bucket i holds values of bit width i: [2^(i-1), 2^i - 1].
            const double lo = i == 0 ? 0 : std::ldexp(1.0, int(i) - 1);
            const double hi = i == 0 ? 0 : std::ldexp(1.0, int(i)) - 1;
            return lo + (hi - lo) * ((target - seen) / in);
        }
        seen += in;
    }
    return 0;
}

void
RunOutput::fail(std::string why)
{
    correct = false;
    errors.push_back(std::move(why));
}

void
printOutput(const Args &args, const RunOutput &out)
{
    std::printf("# workload %s seed %llu seconds %g trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf("# %-40s %16s  %s\n", "metric", "value", "unit");
    for (const Metric &m : out.metrics)
        std::printf("  %-40s %16.6g  %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const Metric &m : out.info)
        std::printf("  %-40s %16.6g  %s  (context)\n", m.name.c_str(),
                    m.value, m.unit.c_str());
    const double failed_frac =
        out.attempted ? double(out.failed) / double(out.attempted) : 1.0;
    std::printf("  %-40s %16.6g  %s\n", "failed_frac", failed_frac,
                "ratio");
    for (const std::string &e : out.errors)
        std::printf("# oracle: %s\n", e.c_str());

    std::string json = "{\"correct\": ";
    json += out.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : out.metrics) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        if (!first)
            json += ", ";
        first = false;
        json += "\"" + m.name + "\": {\"value\": " + value +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

void
logf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::fputs("[perfbench] ", stderr);
    std::vfprintf(stderr, fmt, ap);
    std::fputc('\n', stderr);
    va_end(ap);
}

} // namespace perfbench
