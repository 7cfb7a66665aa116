/**
 * @file
 * Output checks for the end-to-end benchmark, and the faults the
 * self-test injects to prove each check can fail.
 *
 * - Bitwise: every served response (logits and PerfReport) equals a
 *   serial Chip::infer of the same input on a chip configured from the
 *   heap-composed model.
 * - Independent: chip logits agree with ReinterpretedModel::forward,
 *   a separate software implementation, in class and within a logit
 *   tolerance (README.md derives it).
 * - Quality: chip accuracy is no lower than the float model's minus
 *   the paper's quality-loss margin.
 * - Accounting: the engine's merged PerfReport matches the client-side
 *   sums over every response, and no response went missing.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "rna/perf_report.hh"

namespace perfbench {

/** A deliberate fault, applied to one response or total before it is
 *  checked (--inject); None in every measured run. */
enum class Fault
{
    None,
    Logit,   //!< flip the low bit of one served logit
    Perf,    //!< nudge one served PerfReport's energy by one ulp
    Drop,    //!< lose one response on the client side
    Energy,  //!< count one inference's energy twice in the engine total
};

/** Parse an --inject value; returns false on an unknown name. */
bool parseFault(const std::string &name, Fault &fault);

/** Collects check failures; every failure is also printed to stderr. */
class CheckLog
{
  public:
    void fail(const std::string &check, const std::string &detail);
    bool ok() const { return _failures == 0; }
    uint64_t failures() const { return _failures; }

  private:
    uint64_t _failures = 0;
    /** Failures per check name already printed (capped output). */
    std::vector<std::pair<std::string, int>> _printed;
};

/** Bit-for-bit equality of two logit vectors. */
bool sameBits(const std::vector<double> &a, const std::vector<double> &b);

/** Bit-for-bit equality of two PerfReports, every field except
 *  `inferences` (the engine stamps 1 on each served report). */
bool samePerf(const rapidnn::rna::PerfReport &a,
              const rapidnn::rna::PerfReport &b);

/** Index of the first largest logit. */
size_t argmaxOf(const std::vector<double> &logits);

/**
 * Largest |chip - software| logit gap the fixed-point datapath explains
 * when every upstream code agrees: each of the last layer's `fanIn`
 * products is rounded to 16 fraction bits, half an ulp (2^-17) at most
 * (README.md, "Logit tolerance").
 */
double logitTolerance(size_t fanIn);

/**
 * Samples beyond the tolerance took another activation or encoding row
 * somewhere upstream than forward() did (a known divergence, see
 * CHANGES.md). At most this share of a validation set may diverge.
 */
constexpr double kMaxDivergentShare = 0.15;

/** Chip-vs-ReinterpretedModel::forward agreement over a sample set. */
struct ForwardAgreement
{
    size_t samples = 0;
    size_t divergent = 0;        //!< max |gap| beyond the tolerance
    /** Within-tolerance samples whose class differs, excluding software
     *  top-2 ties closer than twice the tolerance. */
    size_t classMismatches = 0;
    double medianGap = 0.0;      //!< median over samples of max |gap|
    double maxGap = 0.0;
};

ForwardAgreement compareWithForward(
    const std::vector<std::vector<double>> &chip,
    const std::vector<std::vector<double>> &software, double tolerance);

/** Share of samples whose predicted class equals the label. */
double accuracyOf(const std::vector<std::vector<double>> &logits,
                  const std::vector<int> &labels);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
