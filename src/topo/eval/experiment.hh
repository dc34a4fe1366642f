/**
 * @file
 * The evaluation harness reproducing Section 5's methodology: build
 * profiles from a training trace, place with each algorithm (with and
 * without multiplicative profile noise), and measure instruction-cache
 * miss rates on a testing trace.
 */

#ifndef TOPO_EVAL_EXPERIMENT_HH
#define TOPO_EVAL_EXPERIMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "topo/cache/simulate.hh"
#include "topo/eval/trace_profile.hh"
#include "topo/sampling/estimator.hh"
#include "topo/trace/fetch_stream.hh"
#include "topo/workload/paper_suite.hh"

namespace topo
{

/**
 * One benchmark's evaluation inputs: the synthesized program and
 * traces, the TraceProfile of the training trace, and the test-side
 * fetch streams, sample plans and miss-rate helpers. Owns the data
 * (the profile points into it, so a bundle neither copies nor moves);
 * hand out contexts with makeContext().
 */
class ProfileBundle
{
  public:
    /** Run the full profiling pipeline on a benchmark case. */
    ProfileBundle(const BenchmarkCase &bench, const EvalOptions &options);
    ProfileBundle(const ProfileBundle &) = delete;
    ProfileBundle &operator=(const ProfileBundle &) = delete;

    const std::string &name() const { return name_; }
    const Program &program() const { return program_; }
    const EvalOptions &options() const { return profile_.options(); }
    const Trace &trainTrace() const { return train_trace_; }
    const Trace &testTrace() const { return test_trace_; }
    const TraceStats &trainStats() const { return profile_.stats(); }
    const PopularSet &popular() const { return profile_.popular(); }
    const ChunkMap &chunks() const { return profile_.chunks(); }
    const WeightedGraph &wcg() const { return profile_.wcg(); }
    const WeightedGraph &trgSelect() const { return profile_.trgSelect(); }
    const WeightedGraph &trgPlace() const { return profile_.trgPlace(); }
    const PairDatabase &pairs() const { return profile_.pairs(); }
    const FetchStream &trainStream() const { return train_stream_; }
    const FetchStream &testStream() const { return test_stream_; }
    /** Average procedures resident in Q during TRG build (Table 1). */
    double avgQueueProcs() const { return profile_.avgQueueProcs(); }

    /** TraceProfile::context of the training profile. */
    PlacementContext makeContext(const WeightedGraph *wcg = nullptr,
                                 const WeightedGraph *trg_select = nullptr,
                                 const WeightedGraph *trg_place = nullptr)
        const
    {
        return profile_.context(wcg, trg_select, trg_place);
    }

    /** Miss rate of a layout on the testing trace. */
    double testMissRate(const Layout &layout) const;

    /** Miss rate of a layout on the training trace. */
    double trainMissRate(const Layout &layout) const;

    /** Whether this bundle was built with sampling active. */
    bool sampled() const { return profile_.sampled(); }

    /** The testing trace's sample plan (sampled bundles only). */
    const SamplePlan &testPlan() const;

    /** The training trace's sample plan (sampled bundles only). */
    const SamplePlan &trainPlan() const { return profile_.plan(); }

    /**
     * Weighted miss estimate of a layout on the testing trace
     * (sampled bundles only; the sampled analogue of testMissRate).
     */
    SampledSimResult sampledTestResult(const Layout &layout,
                                       bool attribute = false) const;

    /**
     * Exact replay of a layout on the testing trace, expanding the
     * fetch stream on the fly — the --sample-verify reference path of
     * a sampled bundle (exact bundles already hold the stream; use
     * testMissRate there).
     */
    SimResult exactTestResult(const Layout &layout,
                              bool attribute = false) const;

  private:
    std::string name_;
    Program program_;
    Trace train_trace_;
    Trace test_trace_;
    FetchStream train_stream_;
    FetchStream test_stream_;
    TraceProfile profile_;
    /** The testing trace's sample plan (null unless sampled). */
    std::unique_ptr<SamplePlan> test_plan_;
};

/** Results of one algorithm in a Figure 5-style comparison. */
struct AlgorithmResult
{
    std::string algorithm;
    /** Miss rate with unperturbed profile data. */
    double unperturbed = 0.0;
    /** Miss rates over the perturbed repetitions (unsorted). */
    std::vector<double> perturbed;
};

/** Options of the perturbation comparison. */
struct ComparisonOptions
{
    /** Number of perturbed repetitions (the paper uses 40). */
    std::size_t repetitions = 40;
    /** Perturbation scale s (the paper uses 0.1). */
    double scale = 0.1;
    /** Base seed; repetition k uses stream (base_seed, k). */
    std::uint64_t seed = 12345;
    /** Measure on the training trace instead of the testing trace. */
    bool measure_on_train = false;
};

/**
 * Run PH/HKC/GBSC (or any algorithm set) with perturbed profiles.
 *
 * Each repetition perturbs every graph an algorithm consumes with an
 * independent noise stream, re-places, and measures the test (or
 * train) miss rate.
 */
std::vector<AlgorithmResult>
runComparison(const ProfileBundle &bundle,
              const std::vector<const PlacementAlgorithm *> &algorithms,
              const ComparisonOptions &options);

/**
 * Cache-relative line offsets of every procedure under a layout
 * (address / line_bytes mod cache lines) — the representation the
 * conflict metrics and the Figure 6 randomisation consume.
 */
std::vector<std::uint32_t> layoutOffsets(const Program &program,
                                         const Layout &layout,
                                         const CacheConfig &cache);

} // namespace topo

#endif // TOPO_EVAL_EXPERIMENT_HH
