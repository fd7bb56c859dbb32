/**
 * @file
 * Shared pieces of the repository benchmark: arguments, the seeded
 * generator and digest, the cycle clock, pre-fork shared memory,
 * /proc readers for variant pids, statistics and result printing.
 *
 * Everything here sits outside the library under test: the benchmark
 * only calls public functions and reads public counters.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

#include "common/clock.h"
#include "core/status.h"

namespace perfbench {

/** Command line of one benchmark run. */
struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workdir = "."; ///< scratch files (inside the checkout)
};

/** splitmix64: the seed drives every generated input. */
struct Rng {
    std::uint64_t state;

    explicit Rng(std::uint64_t seed) : state(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    std::uint32_t
    below(std::uint32_t n)
    {
        return static_cast<std::uint32_t>(((next() >> 32) * n) >> 32);
    }
};

/** Word-at-a-time digest the variants fold their inputs into. */
inline std::uint64_t
digestFold(std::uint64_t h, const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i + 8 <= len; i += 8) {
        std::uint64_t w;
        __builtin_memcpy(&w, p + i, 8);
        h = (h ^ w) * 0x100000001b3ULL;
        h ^= h >> 29;
    }
    for (std::size_t i = len & ~std::size_t{7}; i < len; ++i)
        h = (h ^ p[i]) * 0x100000001b3ULL;
    return h;
}

inline constexpr std::uint64_t kDigestBasis = 0xcbf29ce484222325ULL;

// --- cycle clock ---------------------------------------------------------

/** Cycle counter, safe inside variants (an instruction, never a
 *  system call the engine could intercept). */
inline std::uint64_t
tsc()
{
    return varan::rdtsc();
}

/** TSC ticks per nanosecond, calibrated against CLOCK_MONOTONIC. */
double tscPerNs();
void calibrateTsc();

inline double
tscToNs(double ticks)
{
    return ticks / tscPerNs();
}

// --- shared memory -------------------------------------------------------

/** Anonymous MAP_SHARED memory mapped before any engine forks, so the
 *  variant processes and this process see the same bytes. */
class SharedMap
{
  public:
    explicit SharedMap(std::size_t bytes);
    ~SharedMap();
    SharedMap(const SharedMap &) = delete;
    SharedMap &operator=(const SharedMap &) = delete;

    void *base() const { return base_; }
    std::size_t size() const { return size_; }

    template <typename T>
    T *
    as() const
    {
        return static_cast<T *>(base_);
    }

  private:
    void *base_ = nullptr;
    std::size_t size_ = 0;
};

// --- /proc ----------------------------------------------------------------

/** Counters of one variant process, read from outside. */
struct ProcSample {
    bool ok = false;
    std::uint64_t cpu_ns = 0;          ///< schedstat: time on CPU
    std::uint64_t minor_faults = 0;    ///< stat field 10
    std::uint64_t voluntary_ctxsw = 0; ///< status
};

ProcSample readProc(pid_t pid);

// --- statistics ----------------------------------------------------------

/** Quantile by linear interpolation between order statistics. */
double quantile(std::vector<double> values, double q);
inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Quantile of a log2-bucket engine histogram, interpolated linearly
 *  inside the bucket that holds it (0 for an empty histogram). */
double histogramQuantile(const varan::core::HistogramStatus &h, double q);

// --- results -------------------------------------------------------------

struct Metric {
    std::string name;
    std::string unit;
    double value = 0;
};

/** What one run reports: the oracle verdict, op accounting, metrics. */
struct RunOutput {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics; ///< the final JSON line
    std::vector<Metric> info;    ///< printed for context only
    std::vector<std::string> errors;

    void add(std::string name, std::string unit, double value)
    {
        metrics.push_back({std::move(name), std::move(unit), value});
    }
    void note(std::string name, std::string unit, double value)
    {
        info.push_back({std::move(name), std::move(unit), value});
    }
    void fail(std::string why);
};

/** Human-readable lines, then the one-line JSON result. */
void printOutput(const Args &args, const RunOutput &out);

/** Log to stderr with the workload prefix. */
void logf(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
