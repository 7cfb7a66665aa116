#include "harness.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/simd.hh"
#include "rna/kernels/kernels.hh"

extern char **environ;

namespace perfbench {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

long long
stealTicks()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    long long field = 0;
    long long steal = -1;
    // "cpu user nice system idle iowait irq softirq steal ..."
    if (stat >> cpu && cpu == "cpu") {
        for (int i = 1; i <= 8 && stat >> field; ++i)
            if (i == 8)
                steal = field;
    }
    return steal;
}

double
cpuSeconds()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    auto sec = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) + 1e-6 * t.tv_usec;
    };
    return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double
peakRssMib()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string
hostFacts(long long stealDuringTimed)
{
    std::ostringstream line;
    line << "host: nproc=" << sysconf(_SC_NPROCESSORS_ONLN)
         << " simd=" << rapidnn::simd::variantName(
                rapidnn::rna::kernels::resolve(
                    rapidnn::simd::Variant::Auto))
         << " overrides=";
    bool any = false;
    for (char **env = environ; *env != nullptr; ++env) {
        if (std::string(*env).rfind("RAPIDNN_", 0) == 0) {
            line << (any ? "," : "") << *env;
            any = true;
        }
    }
    if (!any)
        line << "none";
    line << " steal_ticks_timed=" << stealDuringTimed;
    return line.str();
}

std::string
Result::json() const
{
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(metrics[i].value) ? metrics[i].value
                                                      : 0.0);
        out << (i ? ", " : "") << "\"" << metrics[i].name
            << "\": {\"value\": " << value << ", \"unit\": \""
            << metrics[i].unit << "\"}";
    }
    out << "}}";
    return out.str();
}

} // namespace perfbench
