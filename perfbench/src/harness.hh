/**
 * @file
 * Measurement plumbing for the end-to-end benchmark: a monotonic
 * clock, order statistics, host facts and the one-line JSON result.
 * Spans come from telemetry::Tracer (src/telemetry/trace.hh).
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two clock readings. */
inline double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Microseconds between two clock readings. */
inline double
micros(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

/** Median of a sample (0 when empty). */
double median(std::vector<double> values);

/** Linear-interpolated quantile q in [0, 1] (0 when empty). */
double quantile(std::vector<double> values, double q);

/** Cumulative steal ticks of all CPUs, from /proc/stat (-1 if absent). */
long long stealTicks();

/** User plus system CPU time of this process so far, in seconds. */
double cpuSeconds();

/** Peak resident set of this process, in MiB. */
double peakRssMib();

/** One line of host facts: nproc, SIMD variant, RAPIDNN_* overrides
 *  and the steal ticks seen during the timed phase. */
std::string hostFacts(long long stealDuringTimed);

/** A named metric with its unit. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** What one run prints as its last line. */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** The result as one JSON object on one line. */
    std::string json() const;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
