/**
 * @file
 * perfbench: one end-to-end benchmark of the RAPIDNN stack.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--inject none|logit|perf|drop|energy]
 *
 * Builds a Table-2 stand-in from the seed, composes it, deploys it
 * (blob-served engine or an offline chip), times the program through
 * its public API for --seconds, checks every output against serial and
 * independent computations, and prints one JSON object as the last
 * line of stdout. --trace 1 records a span at every call the benchmark
 * makes into a layer and reports the per-layer metrics instead of the
 * end-to-end ones. README.md documents the workloads and metrics.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "blob/blob.hh"
#include "checks.hh"
#include "composer/composer.hh"
#include "core/rapidnn.hh"
#include "harness.hh"
#include "nn/trainer.hh"
#include "rna/chip.hh"
#include "runtime/serving_engine.hh"
#include "telemetry/trace.hh"

namespace {

using namespace perfbench;
using namespace rapidnn;
using telemetry::ScopedSpan;
using telemetry::SpanRecord;
using telemetry::Tracer;

/** Captured before anything else runs: set-up time starts here. */
const Clock::time_point kProcessStart = Clock::now();

/** Directory (inside the checkout) for the blob and trace dumps. */
const char *const kOutDir = ".bench_out";

/** Requests a saturating client keeps outstanding: four full
 *  micro-batches for two workers, so batches fill by size. */
constexpr size_t kSaturating = 32;

/** Largest tolerated drop from float to chip accuracy (the paper's
 *  quality loss, delta-e; README.md, "Checks"). */
constexpr double kAccuracyMargin = 0.05;

/** Response the per-response faults hit. */
constexpr uint64_t kFaultAt = 10;

/** Direct inferBatch probe calls in the traced run. */
constexpr size_t kBatch8Calls = 40;
constexpr size_t kBatch1Calls = 100;

/** Spans a traced run keeps: set-up and probe spans, plus 10,000 a
 *  second for the timed phase. A traced pass starts only while the
 *  tracer has room for it, so the ring never overwrites a span. */
size_t
traceCapacity(double seconds)
{
    return 4096 + static_cast<size_t>(seconds * 10000.0);
}

/** throughput_rps counts completions in blocks of this many per worker:
 *  one full micro-batch (ServingConfig::maxBatch's default). Each block
 *  gives one rate sample (README.md, "Throughput"). */
constexpr size_t kRateBlock = 8;

struct Workload
{
    const char *name;
    nn::Benchmark benchmark;
    /** Requests the client keeps outstanding at a blob-served engine;
     *  0 runs Chip::infer offline on one thread, with no runtime. */
    size_t inFlight;

    bool serving() const { return inFlight > 0; }
};

const Workload kWorkloads[] = {
    {"mnist-saturate", nn::Benchmark::Mnist, kSaturating},
    {"cifar10-saturate", nn::Benchmark::Cifar10, kSaturating},
    {"mnist-single", nn::Benchmark::Mnist, 1},
    {"har-eval", nn::Benchmark::Har, 0},
};

struct Options
{
    const Workload *workload = nullptr;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    Fault fault = Fault::None;
};

/** Training seed of every stand-in: BenchmarkOptions' default. The
 *  run's --seed does not reach training (README.md, "Seeds"). */
constexpr uint64_t kTrainingSeed = 77;

/** Request jitter: Gaussian noise at this share of the validation
 *  features' standard deviation, drawn from --seed. */
constexpr double kJitter = 0.05;

/** The default stand-in scale (DESIGN.md): width 0.25, 700 samples,
 *  6 epochs, validation 175 samples. */
core::BenchmarkOptions
standInOptions()
{
    core::BenchmarkOptions options;
    options.samples = 700;
    options.trainEpochs = 6;
    options.widthScale = 0.25;
    options.seed = kTrainingSeed;
    return options;
}

/** The request population: every validation sample plus seeded
 *  Gaussian jitter, labels kept. */
nn::Dataset
jitteredCopy(const nn::Dataset &validation, uint64_t seed)
{
    double sum = 0.0;
    double sumSq = 0.0;
    double count = 0.0;
    for (const nn::Sample &sample : validation.samples()) {
        for (float v : sample.x.vec()) {
            sum += v;
            sumSq += double(v) * v;
            count += 1.0;
        }
    }
    const double mean = sum / count;
    const double stddev = std::sqrt(std::max(0.0, sumSq / count - mean * mean));
    std::mt19937_64 rng(seed);
    std::normal_distribution<double> noise(0.0, kJitter * stddev);
    nn::Dataset out(validation.name(), validation.classes());
    for (const nn::Sample &sample : validation.samples()) {
        std::vector<float> x = sample.x.vec();
        for (float &v : x)
            v = static_cast<float>(v + noise(rng));
        out.add(nn::Tensor(sample.x.shape(), std::move(x)), sample.label);
    }
    return out;
}

/** Serial results on the validation set, the truth responses are held
 *  to. */
struct Reference
{
    std::vector<std::vector<double>> logits;
    std::vector<rna::PerfReport> perf;
    std::vector<std::vector<double>> software;  //!< forward()
    std::vector<int> labels;
};

/**
 * Per-request timing of the timed phase. It keeps 4 bytes per request in
 * a buffer reserved up front, and one rate sample per kRateBlock
 * completions, so its own growth barely shows in peak_rss_mib.
 */
struct Timing
{
    /** Completion rate samples of one worker (or the offline caller). */
    struct Worker
    {
        size_t count = 0;              //!< completions in the open block
        Clock::time_point blockStart;  //!< first completion of the block
        std::vector<double> rates;     //!< completions per second, per block
    };

    Clock::time_point start;
    Clock::time_point end;
    bool issuing = false;      //!< false during the closing drain
    bool splitTraced = false;  //!< trace run: also keep latencies by pass
    std::vector<float> latencyUs;
    std::vector<float> tracedUs;    //!< traced passes (trace run)
    std::vector<float> untracedUs;  //!< untraced passes (trace run)
    std::vector<Worker> workers;

    void
    begin(double expectedSeconds)
    {
        latencyUs.reserve(static_cast<size_t>(expectedSeconds * 1e5));
        issuing = true;
        start = Clock::now();
    }

    /** One completion, seen at t1, of a request issued at t0 and served
     *  by `worker`. Block rates are taken only while requests are being
     *  issued: the closing drain, with fewer in flight, is left out. */
    void
    record(Clock::time_point t0, Clock::time_point t1, bool traced,
           size_t worker)
    {
        const auto us = static_cast<float>(micros(t0, t1));
        latencyUs.push_back(us);
        if (splitTraced)
            (traced ? tracedUs : untracedUs).push_back(us);
        if (!issuing)
            return;
        if (worker >= workers.size())
            workers.resize(worker + 1);
        Worker &w = workers[worker];
        if (w.count == 0) {
            w.blockStart = t1;
        } else if (w.count == kRateBlock) {
            w.rates.push_back(static_cast<double>(kRateBlock) /
                              seconds(w.blockStart, t1));
            w.blockStart = t1;
            w.count = 0;
        }
        ++w.count;
    }

    /** The sum over workers of each worker's median block rate: the
     *  rate at which the engine completes requests while the host lets
     *  it run. */
    double
    sustainedRate() const
    {
        double rate = 0.0;
        for (const Worker &w : workers)
            rate += median(w.rates);
        return rate;
    }
};

/** Median latency of a timing buffer. */
double
medianUs(const std::vector<float> &us)
{
    return median(std::vector<double>(us.begin(), us.end()));
}

/** Client-side tallies over every served response. */
struct Served
{
    uint64_t responses = 0;
    double energyJ = 0.0;
    double batchSizeSum = 0.0;
    double batches = 0.0;  //!< sum of 1/batchSize = batches seen
    std::vector<uint64_t> perWorker;
};

class Bench
{
  public:
    explicit Bench(Options options)
        : _opt(options), _tracer(options.trace ? traceCapacity(options.seconds)
                                               : 1)
    {
        _tracer.setEnabled(_opt.trace);
        _timing.splitTraced = _opt.trace;
    }

    int run();

  private:
    Options _opt;
    Tracer _tracer;  //!< spans of the traced run, kept in memory
    CheckLog _checks;
    Result _result;
    std::mt19937_64 _order;  //!< request order, from the seed

    core::BenchmarkModel _bm;
    nn::Dataset _requests;       //!< jittered validation set
    double _floatAccuracy = 0.0;  //!< float network on _requests
    double _ownSetupS = 0.0;      //!< benchmark work inside set-up
    composer::ReinterpretedModel _model;
    size_t _retrainEpochs = 0;
    double _setupS = 0.0;
    double _setupCpuS = 0.0;  //!< CPU time at the end of set-up
    size_t _blobBytes = 0;
    Reference _ref;
    std::unique_ptr<rna::Chip> _refChip;
    Timing _timing;
    Served _served;
    uint64_t _attempted = 0;
    uint64_t _failed = 0;
    long long _steal = 0;
    double _peakRssMib = 0.0;

    void buildAndCompose();
    void computeReference();
    void checkReference();
    std::vector<size_t> nextPass();
    bool passesDone(size_t pass) const;
    void traceNextPass(size_t pass);

    void checkResponse(size_t idx, runtime::InferResult &result);
    void serve(runtime::ServingEngine &engine);
    void checkEngineTotals(const runtime::ServingEngine &engine);
    void evaluateOffline(const rna::Chip &chip);
    void probeBatches();

    void reportEndToEnd();
    void reportPerLayer();
};

void
Bench::buildAndCompose()
{
    {
        ScopedSpan span(_tracer, "nn.build");
        _bm = core::buildBenchmarkModel(_opt.workload->benchmark,
                                        standInOptions());
    }
    // Benchmark-side work inside set-up, timed so set-up can exclude it:
    // the request inputs and the float model's accuracy on them (taken
    // before compose, which retrains the network in place).
    const Clock::time_point own = Clock::now();
    _requests = jitteredCopy(_bm.validation, _opt.seed);
    _floatAccuracy = 1.0 - nn::Trainer::errorRate(_bm.network, _requests);
    _ownSetupS = seconds(own, Clock::now());
    composer::Composer composer(composer::ComposerConfig{});
    if (!_opt.workload->serving()) {
        // The full clustering + retraining loop, as Rapidnn::run does.
        ScopedSpan span(_tracer, "composer.compose");
        composer::ComposeResult composed =
            composer.compose(_bm.network, _bm.train, _bm.validation);
        _retrainEpochs = composed.epochsRun;
        _model = std::move(composed.model);
    } else {
        ScopedSpan span(_tracer, "composer.reinterpret");
        _model = composer.reinterpret(_bm.network, _bm.train);
    }
    _model.setCanonicalInputShape(_bm.validation.featureShape());
}

void
Bench::computeReference()
{
    _refChip = std::make_unique<rna::Chip>(rna::ChipConfig{});
    {
        ScopedSpan span(_tracer, "rna.configure");
        _refChip->configure(_model);
    }
    const nn::Dataset &val = _requests;
    for (size_t i = 0; i < val.size(); ++i) {
        rna::PerfReport report;
        std::vector<double> logits;
        {
            ScopedSpan span(_tracer, "rna.infer");
            logits = _refChip->infer(val.sample(i).x, report);
        }
        _ref.logits.push_back(std::move(logits));
        _ref.perf.push_back(std::move(report));
        _ref.software.push_back(_model.forward(val.sample(i).x));
        _ref.labels.push_back(val.sample(i).label);
    }
}

void
Bench::checkReference()
{
    size_t fanIn = 0;
    for (const composer::RLayer &layer : _model.layers())
        if (layer.inCount > 0)
            fanIn = layer.inCount;
    const double tolerance = logitTolerance(fanIn);
    const ForwardAgreement agreement =
        compareWithForward(_ref.logits, _ref.software, tolerance);
    std::cout << "# chip vs forward: samples=" << agreement.samples
              << " tolerance=" << tolerance
              << " divergent=" << agreement.divergent
              << " class_mismatches=" << agreement.classMismatches
              << " median_gap=" << agreement.medianGap
              << " max_gap=" << agreement.maxGap << "\n";
    if (agreement.classMismatches != 0)
        _checks.fail("forward-class",
                     std::to_string(agreement.classMismatches) +
                         " samples within tolerance predict another "
                         "class than forward()");
    if (static_cast<double>(agreement.divergent) >
        kMaxDivergentShare * static_cast<double>(agreement.samples))
        _checks.fail("forward-logits",
                     std::to_string(agreement.divergent) + " of " +
                         std::to_string(agreement.samples) +
                         " samples beyond tolerance " +
                         std::to_string(tolerance));

    const double chipAcc = accuracyOf(_ref.logits, _ref.labels);
    if (chipAcc < _floatAccuracy - kAccuracyMargin)
        _checks.fail("accuracy", "chip accuracy " + std::to_string(chipAcc) +
                                     " below float " +
                                     std::to_string(_floatAccuracy) + " - " +
                                     std::to_string(kAccuracyMargin));
}

std::vector<size_t>
Bench::nextPass()
{
    std::vector<size_t> order(_requests.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::shuffle(order.begin(), order.end(), _order);
    return order;
}

/** The timed phase runs whole passes over the validation set and
 *  stops at the first pass boundary past --seconds. */
bool
Bench::passesDone(size_t pass) const
{
    return pass > 0 && seconds(_timing.start, Clock::now()) >= _opt.seconds;
}

/** A traced run records spans on even passes only, the odd ones giving
 *  the untraced latencies trace.overhead_us compares against, and only
 *  while the tracer has room for two spans per request of the pass. */
void
Bench::traceNextPass(size_t pass)
{
    if (!_opt.trace)
        return;
    const uint64_t room = _tracer.capacity() - kBatch8Calls - kBatch1Calls;
    _tracer.setEnabled(pass % 2 == 0 &&
                       _tracer.recorded() + 2 * _requests.size() <= room);
}

void
Bench::checkResponse(size_t idx, runtime::InferResult &result)
{
    const uint64_t n = ++_served.responses;
    if (n == kFaultAt && _opt.fault == Fault::Logit)
        result.logits[0] = std::bit_cast<double>(
            std::bit_cast<uint64_t>(result.logits[0]) ^ 1u);
    if (n == kFaultAt && _opt.fault == Fault::Perf)
        result.perf.energy =
            Energy::joules(std::nextafter(result.perf.energy.j(), 1.0));
    if (n == kFaultAt && _opt.fault == Fault::Drop) {
        --_served.responses;
        return;
    }
    if (!sameBits(result.logits, _ref.logits[idx]))
        _checks.fail("served-logits", "response " + std::to_string(n) +
                                          " (input " + std::to_string(idx) +
                                          ") differs from serial infer");
    if (!samePerf(result.perf, _ref.perf[idx]))
        _checks.fail("served-perf", "response " + std::to_string(n) +
                                        " (input " + std::to_string(idx) +
                                        ") PerfReport differs");
    _served.energyJ += result.perf.energy.j();
    _served.batchSizeSum += static_cast<double>(result.batchSize);
    if (result.batchSize > 0)
        _served.batches += 1.0 / static_cast<double>(result.batchSize);
    if (result.workerId >= _served.perWorker.size())
        _served.perWorker.resize(result.workerId + 1, 0);
    ++_served.perWorker[result.workerId];
}

/**
 * The closed loop: Workload::inFlight request slots, each reissued with
 * the next input as soon as its response arrives. The client polls its futures
 * instead of blocking, so it never sleeps: a sleeping client would add
 * its own wake-up delay (long on a contended virtual machine) to every
 * latency it measures.
 */
void
Bench::serve(runtime::ServingEngine &engine)
{
    const nn::Dataset &val = _requests;
    struct Slot
    {
        size_t idx = 0;
        Clock::time_point t0;
        std::future<runtime::InferResult> future;
        uint64_t span = 0;  //!< the request's span id, 0 when untraced
        uint64_t request = 0;
    };
    std::vector<Slot> slots(_opt.workload->inFlight);

    // Completes every slot whose response has arrived.
    auto poll = [&] {
        for (Slot &slot : slots) {
            if (!slot.future.valid() ||
                slot.future.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready)
                continue;
            const Clock::time_point t1 = Clock::now();
            try {
                runtime::InferResult result = slot.future.get();
                if (slot.span != 0)
                    _tracer.record("request", Tracer::toNs(slot.t0),
                                   Tracer::toNs(t1), slot.span, 0,
                                   static_cast<int64_t>(slot.request));
                _timing.record(slot.t0, t1, slot.span != 0,
                               result.workerId);
                checkResponse(slot.idx, result);
            } catch (const std::exception &e) {
                ++_failed;
                _checks.fail("request", e.what());
            }
        }
    };
    auto freeSlot = [&]() -> Slot * {
        for (Slot &slot : slots)
            if (!slot.future.valid())
                return &slot;
        return nullptr;
    };

    _timing.begin(_opt.seconds);
    for (size_t pass = 0; !passesDone(pass); ++pass) {
        traceNextPass(pass);
        for (size_t idx : nextPass()) {
            Slot *slot = freeSlot();
            while (slot == nullptr) {
                poll();
                slot = freeSlot();
            }
            ++_attempted;
            slot->idx = idx;
            slot->request = _attempted;
            slot->span = _tracer.enabled() ? _tracer.nextId() : 0;
            slot->t0 = Clock::now();
            ScopedSpan submit(_tracer, "runtime.submit",
                              static_cast<int64_t>(_attempted), slot->span);
            slot->future = engine.submit(val.sample(idx).x);
        }
    }
    _timing.issuing = false;
    while (std::any_of(slots.begin(), slots.end(),
                       [](const Slot &s) { return s.future.valid(); }))
        poll();
    _timing.end = Clock::now();
    _tracer.setEnabled(_opt.trace);
}

void
Bench::checkEngineTotals(const runtime::ServingEngine &engine)
{
    rna::PerfReport total = engine.perfReport();
    if (_opt.fault == Fault::Energy)
        total.energy += _ref.perf[0].energy;
    if (_served.responses != _attempted - _failed)
        _checks.fail("responses", std::to_string(_attempted - _failed) +
                                      " requests succeeded but " +
                                      std::to_string(_served.responses) +
                                      " responses were checked");
    if (total.inferences != _served.responses)
        _checks.fail("engine-count",
                     "engine counted " + std::to_string(total.inferences) +
                         " inferences, client " +
                         std::to_string(_served.responses));
    // Same addends, different summation order: equal to rounding.
    const double gap = std::fabs(total.energy.j() - _served.energyJ);
    if (!(gap <= 1e-9 * std::fabs(_served.energyJ)))
        _checks.fail("engine-energy",
                     "engine energy " + std::to_string(total.energy.nj()) +
                         " nJ, client sum " +
                         std::to_string(_served.energyJ * 1e9) + " nJ");
}

void
Bench::evaluateOffline(const rna::Chip &chip)
{
    const nn::Dataset &val = _requests;
    rna::PerfReport report;
    _timing.begin(_opt.seconds);
    for (size_t pass = 0; !passesDone(pass); ++pass) {
        traceNextPass(pass);
        for (size_t idx : nextPass()) {
            ++_attempted;
            const Clock::time_point t0 = Clock::now();
            std::vector<double> logits;
            bool traced = false;
            {
                ScopedSpan span(_tracer, "rna.infer",
                                static_cast<int64_t>(_attempted));
                traced = span.id() != 0;
                logits = chip.infer(val.sample(idx).x, report);
            }
            _timing.record(t0, Clock::now(), traced, 0);
            if (!sameBits(logits, _ref.logits[idx]) ||
                !samePerf(report, _ref.perf[idx]))
                _checks.fail("offline-infer",
                             "input " + std::to_string(idx) +
                                 " differs from the reference chip");
        }
    }
    _timing.issuing = false;
    _timing.end = Clock::now();
    _tracer.setEnabled(_opt.trace);
}

/** Direct inferBatch calls at 8 and 1 lanes on the reference chip, for
 *  the per-layer host times; each is checked against the reference. */
void
Bench::probeBatches()
{
    const nn::Dataset &val = _requests;
    auto probe = [&](size_t lanes, size_t calls, const char *name) {
        for (size_t c = 0; c < calls; ++c) {
            std::vector<nn::Tensor> inputs;
            std::vector<size_t> idx;
            for (size_t l = 0; l < lanes; ++l) {
                idx.push_back((c * lanes + l) % val.size());
                inputs.push_back(val.sample(idx.back()).x);
            }
            std::vector<rna::PerfReport> reports(lanes);
            std::vector<std::vector<double>> logits;
            {
                ScopedSpan span(_tracer, name);
                logits = _refChip->inferBatch(
                    std::span<const nn::Tensor>(inputs),
                    std::span<rna::PerfReport>(reports));
            }
            for (size_t l = 0; l < lanes; ++l)
                if (!sameBits(logits[l], _ref.logits[idx[l]]) ||
                    !samePerf(reports[l], _ref.perf[idx[l]]))
                    _checks.fail("batch-probe",
                                 std::string(name) + " lane differs");
        }
    };
    probe(8, kBatch8Calls, "rna.infer_batch8");
    probe(1, kBatch1Calls, "rna.infer_batch1");
}

/** Durations in microseconds of every span named `name`. */
std::vector<double>
durationsUs(const std::vector<SpanRecord> &spans, std::string_view name)
{
    std::vector<double> out;
    for (const SpanRecord &span : spans)
        if (name == span.name)
            out.push_back(static_cast<double>(span.durNs) * 1e-3);
    return out;
}

/** Total seconds of every span named `name`. */
double
spanSeconds(const std::vector<SpanRecord> &spans, std::string_view name)
{
    double total = 0.0;
    for (double us : durationsUs(spans, name))
        total += us * 1e-6;
    return total;
}

void
Bench::reportEndToEnd()
{
    const size_t n = _ref.perf.size();
    double latencyNs = 0.0;
    double energyNj = 0.0;
    for (const rna::PerfReport &report : _ref.perf) {
        latencyNs += report.latency.ns() / static_cast<double>(n);
        energyNj += report.energy.nj() / static_cast<double>(n);
    }
    const double p50Us = medianUs(_timing.latencyUs);
    _result.add("setup_s", _setupS, "s");
    _result.add("throughput_rps", _timing.sustainedRate(), "1/s");
    _result.add("latency_p50_us", p50Us, "us");
    _result.add("peak_rss_mib", _peakRssMib, "MiB");
    _result.add("modeled_latency_ns", latencyNs, "ns");
    _result.add("modeled_energy_nj", energyNj, "nJ");
    _result.add("accuracy", accuracyOf(_ref.logits, _ref.labels),
                "fraction");
}

void
Bench::reportPerLayer()
{
    const bool serving = _opt.workload->serving();
    const std::vector<SpanRecord> spans = _tracer.snapshot();
    if (_tracer.recorded() > spans.size())
        _checks.fail("trace", "the tracer overwrote spans");
    _result.add("nn.build_s", spanSeconds(spans, "nn.build"), "s");
    _result.add("nn.float_accuracy", _floatAccuracy, "fraction");
    _result.add("composer.compose_s",
                spanSeconds(spans, serving ? "composer.reinterpret"
                                           : "composer.compose"),
                "s");
    _result.add("composer.model_accuracy",
                accuracyOf(_ref.software, _ref.labels), "fraction");
    _result.add("blob.write_s", spanSeconds(spans, "blob.write"), "s");
    _result.add("blob.open_s", spanSeconds(spans, "blob.open"), "s");
    _result.add("blob.bytes", static_cast<double>(_blobBytes), "bytes");

    const std::vector<double> b8 = durationsUs(spans, "rna.infer_batch8");
    const std::vector<double> b1 = durationsUs(spans, "rna.infer_batch1");
    const std::vector<double> one = durationsUs(spans, "rna.infer");
    _result.add("rna.configure_s", spanSeconds(spans, "rna.configure"), "s");
    _result.add("rna.batch8_us_per_sample", median(b8) / 8.0, "us");
    _result.add("rna.batch8_calls", static_cast<double>(b8.size()), "count");
    _result.add("rna.batch1_us", median(b1), "us");
    _result.add("rna.batch1_calls", static_cast<double>(b1.size()), "count");
    _result.add("rna.infer_us", median(one), "us");
    _result.add("rna.infer_calls", static_cast<double>(one.size()), "count");
    const size_t n = _ref.perf.size();
    for (const char *cat : {"weighted_accum", "activation", "encoding",
                            "pooling", "other"}) {
        double ns = 0.0;
        double nj = 0.0;
        for (const rna::PerfReport &report : _ref.perf) {
            const rna::CategoryCost c = report.category(cat);
            ns += c.time.ns() / static_cast<double>(n);
            nj += c.energy.nj() / static_cast<double>(n);
        }
        _result.add(std::string("rna.modeled.") + cat + "_ns", ns, "ns");
        _result.add(std::string("rna.modeled.") + cat + "_nj", nj, "nJ");
    }

    // Runtime figures stay 0 where no request was served (har-eval).
    const double tracedP50 = medianUs(_timing.tracedUs);
    double shareMin = 0.0;
    double meanBatch = 0.0;
    double overheadUs = 0.0;
    if (serving && _served.responses > 0) {
        const auto responses = static_cast<double>(_served.responses);
        if (_served.perWorker.size() >= 2) {
            shareMin = 1.0;
            for (uint64_t count : _served.perWorker)
                shareMin = std::min(shareMin,
                                    static_cast<double>(count) / responses);
        }
        meanBatch = _served.batchSizeSum / responses;
        // Served p50 minus a direct inferBatch at the nearer probed size.
        overheadUs = tracedP50 - (meanBatch >= 4.5 ? median(b8) : median(b1));
    }
    _result.add("runtime.start_s", spanSeconds(spans, "runtime.start"), "s");
    _result.add("runtime.submit_us",
                median(durationsUs(spans, "runtime.submit")), "us");
    _result.add("runtime.overhead_us", overheadUs, "us");
    _result.add("runtime.batch_size_mean", meanBatch, "count");
    _result.add("runtime.worker_share_min", shareMin, "fraction");
    _result.add("runtime.batches", std::round(_served.batches), "count");
    _result.add("trace.overhead_us",
                tracedP50 - medianUs(_timing.untracedUs), "us");
    _result.add("trace.spans", static_cast<double>(spans.size()), "count");
}

int
Bench::run()
{
    _order.seed(_opt.seed * 0x9e3779b97f4a7c15ULL + 1);
    std::filesystem::create_directories(kOutDir);
    const bool serving = _opt.workload->serving();

    buildAndCompose();
    std::string blobDir;
    std::unique_ptr<runtime::ServingEngine> engine;
    std::unique_ptr<rna::Chip> chip;
    if (serving) {
        std::string tmpl = std::string(kOutDir) + "/blob-XXXXXX";
        if (mkdtemp(tmpl.data()) == nullptr) {
            std::cerr << "perfbench: cannot create " << tmpl << "\n";
            return 2;
        }
        blobDir = tmpl;
        const std::string path = blobDir + "/model.rnnb";
        {
            ScopedSpan span(_tracer, "blob.write");
            blob::writeBlobFile(_model, path);
        }
        std::shared_ptr<const blob::ModelBlob> mapped;
        {
            ScopedSpan span(_tracer, "blob.open");
            mapped = blob::ModelBlob::open(path);
        }
        _blobBytes = mapped->fileBytes();
        runtime::ServingConfig config;
        config.workers = 2;
        ScopedSpan span(_tracer, "runtime.start");
        engine = std::make_unique<runtime::ServingEngine>(
            std::move(mapped), rna::ChipConfig{}, config);
    } else {
        chip = std::make_unique<rna::Chip>(rna::ChipConfig{});
        ScopedSpan span(_tracer, "rna.configure");
        chip->configure(_model);
    }
    _setupS = seconds(kProcessStart, Clock::now()) - _ownSetupS;
    _setupCpuS = cpuSeconds();

    computeReference();
    checkReference();

    const long long stealBefore = stealTicks();
    if (serving)
        serve(*engine);
    else
        evaluateOffline(*chip);
    _steal = stealTicks() - stealBefore;

    if (serving) {
        engine->drain();
        checkEngineTotals(*engine);
        engine.reset();
        std::filesystem::remove_all(blobDir);
    }
    // Before the benchmark's own reporting work allocates anything.
    _peakRssMib = peakRssMib();

    if (_opt.trace) {
        probeBatches();
        reportPerLayer();
    } else {
        reportEndToEnd();
    }
    for (const Metric &m : _result.metrics)
        if (!std::isfinite(m.value))
            _checks.fail("metric", m.name + " is not finite");

    const std::vector<double> latencies(_timing.latencyUs.begin(),
                                        _timing.latencyUs.end());
    std::cout << "# " << hostFacts(_steal) << "\n";
    std::cout << "# " << _opt.workload->name << " seed=" << _opt.seed
              << " requests=" << _attempted
              << " p50_us=" << quantile(latencies, 0.5)
              << " p90_us=" << quantile(latencies, 0.9)
              << " p99_us=" << quantile(latencies, 0.99)
              << " setup_cpu_s=" << _setupCpuS << " mean_rps="
              << static_cast<double>(_timing.latencyUs.size()) /
                     seconds(_timing.start, _timing.end);
    if (!serving)
        std::cout << " retrain_epochs=" << _retrainEpochs;
    std::cout << "\n";
    if (_opt.trace) {
        const std::string path = std::string(kOutDir) + "/trace-" +
                                 _opt.workload->name + "-" +
                                 std::to_string(_opt.seed) + ".json";
        std::ofstream out(path);
        telemetry::writeChromeTrace(out, _tracer.snapshot());
        out.close();
        if (!out)
            _checks.fail("trace", "cannot write " + path);
        else
            std::cout << "# trace: " << path << "\n";
    }

    _result.correct = _checks.ok();
    _result.attempted = _attempted;
    _result.failed = _failed;
    std::cout << _result.json() << std::endl;
    return _result.correct ? 0 : 1;
}

int
usage(const char *why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> "
                 "[--inject none|logit|perf|drop|energy]\nworkloads:";
    for (const Workload &w : kWorkloads)
        std::cerr << " " << w.name;
    std::cerr << "\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    bool haveSeed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            for (const Workload &w : kWorkloads)
                if (value == w.name)
                    options.workload = &w;
            if (options.workload == nullptr)
                return usage(("unknown workload " + value).c_str());
        } else if (key == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            haveSeed = end != nullptr && *end == '\0' && !value.empty();
        } else if (key == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
        } else if (key == "--trace") {
            options.trace = value == "1";
        } else if (key == "--inject") {
            if (!parseFault(value, options.fault))
                return usage(("unknown fault " + value).c_str());
        } else {
            return usage(("unknown argument " + key).c_str());
        }
    }
    if (argc % 2 == 0)
        return usage("arguments come in --key value pairs");
    if (options.workload == nullptr || !haveSeed || !(options.seconds > 0))
        return usage("--workload, --seed and --seconds are required");
    if (options.fault != Fault::None &&
        !options.workload->serving())
        return usage("faults are injected into served responses only");
    return Bench(options).run();
}
