#include "topo/eval/experiment.hh"

#include <cmath>

#include "topo/obs/log.hh"
#include "topo/obs/metrics.hh"
#include "topo/profile/perturb.hh"
#include "topo/util/error.hh"
#include "topo/util/rng.hh"
#include "topo/workload/trace_synthesizer.hh"

namespace topo
{

namespace
{

/**
 * Expand the fetch stream only on the exact path. A sampled bundle
 * never replays the whole trace, and at large --trace-scale the full
 * stream is the dominant memory term, so it is simply not built.
 */
FetchStream
makeEvalStream(const Program &program, const Trace &trace,
               std::uint32_t line_bytes, bool sampled)
{
    if (!sampled)
        return FetchStream(program, trace, line_bytes);
    return FetchStream(program, Trace(program.procCount()), line_bytes);
}

} // namespace

ProfileBundle::ProfileBundle(const BenchmarkCase &bench,
                             const EvalOptions &options)
    : name_(bench.name),
      program_(bench.model.program),
      train_trace_(synthesizeTrace(bench.model, bench.train)),
      test_trace_(synthesizeTrace(bench.model, bench.test)),
      train_stream_(makeEvalStream(program_, train_trace_,
                                   options.cache.line_bytes,
                                   options.sampling.active())),
      test_stream_(makeEvalStream(program_, test_trace_,
                                  options.cache.line_bytes,
                                  options.sampling.active())),
      profile_(program_, train_trace_, options)
{
    if (sampled()) {
        test_plan_ = std::make_unique<SamplePlan>(
            buildSamplePlan(program_, test_trace_,
                            options.cache.line_bytes, options.sampling));
    }
    MetricsRegistry::current().counter("eval.bundles").add();
    if (logEnabled(LogLevel::kDebug)) {
        logDebug("eval", "profile bundle ready",
                 {{"benchmark", name_},
                  {"procs", program_.procCount()},
                  {"popular", popular().count},
                  {"train_events", train_trace_.size()},
                  {"test_events", test_trace_.size()}});
    }
}

double
ProfileBundle::testMissRate(const Layout &layout) const
{
    require(!sampled(), "ProfileBundle: testMissRate on a sampled "
                        "bundle; use sampledTestResult");
    return layoutMissRate(program_, layout, test_stream_, options().cache);
}

double
ProfileBundle::trainMissRate(const Layout &layout) const
{
    require(!sampled(), "ProfileBundle: trainMissRate on a sampled "
                        "bundle; use sampledTestResult");
    return layoutMissRate(program_, layout, train_stream_, options().cache);
}

const SamplePlan &
ProfileBundle::testPlan() const
{
    require(sampled(), "ProfileBundle: testPlan on an exact bundle");
    return *test_plan_;
}

SampledSimResult
ProfileBundle::sampledTestResult(const Layout &layout, bool attribute) const
{
    return estimateLayout(program_, layout, test_trace_, testPlan(),
                          options().cache, attribute);
}

SimResult
ProfileBundle::exactTestResult(const Layout &layout, bool attribute) const
{
    const FetchStream stream(program_, test_trace_,
                             options().cache.line_bytes);
    return simulateLayout(program_, layout, stream, options().cache,
                          attribute);
}

std::vector<AlgorithmResult>
runComparison(const ProfileBundle &bundle,
              const std::vector<const PlacementAlgorithm *> &algorithms,
              const ComparisonOptions &options)
{
    require(!algorithms.empty(), "runComparison: no algorithms");
    std::vector<AlgorithmResult> results;
    results.reserve(algorithms.size());
    Rng master(options.seed);

    auto measure = [&](const Layout &layout) {
        return options.measure_on_train ? bundle.trainMissRate(layout)
                                        : bundle.testMissRate(layout);
    };

    for (std::size_t ai = 0; ai < algorithms.size(); ++ai) {
        const PlacementAlgorithm &algo = *algorithms[ai];
        AlgorithmResult result;
        result.algorithm = algo.name();
        {
            const PlacementContext ctx = bundle.makeContext();
            result.unperturbed = measure(algo.place(ctx));
        }
        for (std::size_t rep = 0; rep < options.repetitions; ++rep) {
            // Independent noise streams per (algorithm, repetition,
            // graph) so results do not depend on evaluation order.
            const std::uint64_t base = ai * 1000003ULL + rep;
            Rng rng_wcg = master.split(base * 3 + 0);
            Rng rng_sel = master.split(base * 3 + 1);
            Rng rng_plc = master.split(base * 3 + 2);
            const WeightedGraph wcg_p =
                perturb(bundle.wcg(), options.scale, rng_wcg);
            const WeightedGraph sel_p =
                perturb(bundle.trgSelect(), options.scale, rng_sel);
            const WeightedGraph plc_p =
                perturb(bundle.trgPlace(), options.scale, rng_plc);
            const PlacementContext ctx =
                bundle.makeContext(&wcg_p, &sel_p, &plc_p);
            result.perturbed.push_back(measure(algo.place(ctx)));
        }
        results.push_back(std::move(result));
    }
    return results;
}

std::vector<std::uint32_t>
layoutOffsets(const Program &program, const Layout &layout,
              const CacheConfig &cache)
{
    std::vector<std::uint32_t> offsets(program.procCount(), 0);
    for (std::size_t i = 0; i < program.procCount(); ++i) {
        const auto id = static_cast<ProcId>(i);
        offsets[i] = static_cast<std::uint32_t>(
            layout.startLine(id, cache.line_bytes) % cache.lineCount());
    }
    return offsets;
}

} // namespace topo
