#include "checks.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iostream>

#include "harness.hh"

namespace perfbench {

bool
parseFault(const std::string &name, Fault &fault)
{
    if (name == "none")
        fault = Fault::None;
    else if (name == "logit")
        fault = Fault::Logit;
    else if (name == "perf")
        fault = Fault::Perf;
    else if (name == "drop")
        fault = Fault::Drop;
    else if (name == "energy")
        fault = Fault::Energy;
    else
        return false;
    return true;
}

void
CheckLog::fail(const std::string &check, const std::string &detail)
{
    ++_failures;
    auto it = std::find_if(_printed.begin(), _printed.end(),
                           [&](const auto &p) { return p.first == check; });
    if (it == _printed.end())
        it = _printed.insert(_printed.end(), {check, 0});
    if (it->second++ < 5)
        std::cerr << "CHECK FAILED [" << check << "] " << detail << "\n";
}

namespace {

bool
sameDouble(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

} // namespace

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (!sameDouble(a[i], b[i]))
            return false;
    return true;
}

bool
samePerf(const rapidnn::rna::PerfReport &a,
         const rapidnn::rna::PerfReport &b)
{
    if (!sameDouble(a.latency.sec(), b.latency.sec()) ||
        !sameDouble(a.stageTime.sec(), b.stageTime.sec()) ||
        !sameDouble(a.energy.j(), b.energy.j()) ||
        a.totalOps != b.totalOps ||
        a.breakdown.size() != b.breakdown.size())
        return false;
    for (size_t i = 0; i < a.breakdown.size(); ++i) {
        const auto &x = a.breakdown[i];
        const auto &y = b.breakdown[i];
        if (x.name != y.name || !sameDouble(x.time.sec(), y.time.sec()) ||
            !sameDouble(x.energy.j(), y.energy.j()))
            return false;
    }
    return true;
}

size_t
argmaxOf(const std::vector<double> &logits)
{
    return static_cast<size_t>(
        std::max_element(logits.begin(), logits.end()) - logits.begin());
}

double
logitTolerance(size_t fanIn)
{
    return static_cast<double>(fanIn) * std::ldexp(1.0, -17);
}

ForwardAgreement
compareWithForward(const std::vector<std::vector<double>> &chip,
                   const std::vector<std::vector<double>> &software,
                   double tolerance)
{
    ForwardAgreement agreement;
    agreement.samples = chip.size();
    std::vector<double> gaps;
    for (size_t s = 0; s < chip.size(); ++s) {
        const std::vector<double> &c = chip[s];
        const std::vector<double> &f = software[s];
        double gap = c.size() == f.size() ? 0.0 : INFINITY;
        for (size_t i = 0; i < std::min(c.size(), f.size()); ++i)
            gap = std::max(gap, std::fabs(c[i] - f[i]));
        gaps.push_back(gap);
        agreement.maxGap = std::max(agreement.maxGap, gap);
        if (gap > tolerance) {
            ++agreement.divergent;
            continue;
        }
        std::vector<double> sorted = f;
        std::sort(sorted.rbegin(), sorted.rend());
        const bool tied = sorted.size() > 1 &&
                          sorted[0] - sorted[1] <= 2.0 * tolerance;
        if (!tied && argmaxOf(c) != argmaxOf(f))
            ++agreement.classMismatches;
    }
    agreement.medianGap = median(gaps);
    return agreement;
}

double
accuracyOf(const std::vector<std::vector<double>> &logits,
           const std::vector<int> &labels)
{
    size_t right = 0;
    for (size_t s = 0; s < logits.size(); ++s)
        if (static_cast<int>(argmaxOf(logits[s])) == labels[s])
            ++right;
    return logits.empty() ? 0.0
                          : static_cast<double>(right) /
                                static_cast<double>(logits.size());
}

} // namespace perfbench
