/**
 * @file
 * The profile → place → evaluate pipeline, one libtopo layer call at a
 * time.
 *
 * buildProfile() calls the layers in the order ProfileBundle's
 * constructor does (src/topo/eval/experiment.cc), and runCell() places
 * and evaluates a layout the way `topo_sim --benchmark` does. Each
 * call is wrapped in a span named after its layer, so the traced run
 * can attribute every millisecond of a pass.
 */

#ifndef PERFBENCH_PIPELINE_HH
#define PERFBENCH_PIPELINE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "topo/eval/experiment.hh"
#include "topo/placement/placement.hh"
#include "topo/util/rng.hh"
#include "topo/workload/paper_suite.hh"

namespace perfbench
{

/** The algorithms every pass places with, in topo_sim's order. */
const std::vector<std::string> &algorithmNames();
const topo::PlacementAlgorithm &algorithmByName(const std::string &name);

/**
 * A Table 1 case at @p scale. With a workload seed, the seed is mixed
 * into the training and testing inputs' seeds; the program model (the
 * Table 1 shape) stays fixed. Without one, the case is exactly the one
 * `topo_sim --benchmark` runs.
 */
topo::BenchmarkCase benchmarkCase(const std::string &name, double scale,
                                  std::optional<std::uint64_t> seed);

/** A benchmark with its synthesized inputs (the set-up's output). */
struct Inputs
{
    topo::BenchmarkCase bench;
    topo::Trace train;
    topo::Trace test;
};

/** Synthesize both inputs of @p bench (layer `workload`). */
Inputs synthesize(const topo::BenchmarkCase &bench);

/** Everything ProfileBundle derives from the training input. */
struct Profile
{
    const Inputs *inputs = nullptr;
    topo::TraceStats stats;
    topo::PopularSet popular;
    std::optional<topo::ChunkMap> chunks;
    std::optional<topo::FetchStream> train_stream;
    std::optional<topo::FetchStream> test_stream;
    topo::WeightedGraph wcg;
    topo::WeightedGraph trg_select;
    topo::WeightedGraph trg_place;
    std::uint64_t trg_proc_steps = 0;
    /** Sample plans; null unless sampling is active. */
    std::unique_ptr<topo::SamplePlan> train_plan;
    std::unique_ptr<topo::SamplePlan> test_plan;

    bool sampled() const { return train_plan != nullptr; }
};

Profile buildProfile(const Inputs &inputs, const topo::EvalOptions &eval);

/** The same context ProfileBundle::makeContext assembles. */
topo::PlacementContext
makeContext(const Profile &profile, const topo::EvalOptions &eval,
            const topo::WeightedGraph *wcg = nullptr,
            const topo::WeightedGraph *trg_select = nullptr,
            const topo::WeightedGraph *trg_place = nullptr);

/** One placed and evaluated (benchmark, algorithm) cell. */
struct Cell
{
    std::string algorithm;
    topo::Layout layout;
    /** Test-input line fetches (exact on both paths). */
    std::uint64_t accesses = 0;
    /** Exact misses; the rounded estimate on the sampled path. */
    std::uint64_t misses = 0;
    /** Sampled path: the weighted miss estimate. */
    double est_misses = 0.0;
    /** Line fetches the cache model actually replayed. */
    std::uint64_t replayed = 0;
    bool sampled = false;

    double
    missRate() const
    {
        if (accesses == 0)
            return 0.0;
        return (sampled ? est_misses : static_cast<double>(misses)) /
               static_cast<double>(accesses);
    }
};

/**
 * Place with @p algorithm (optionally over perturbed graphs) and
 * evaluate on the testing input: an exact replay of the test
 * FetchStream, or the sampled estimate on a sampled profile.
 */
Cell runCell(const Profile &profile, const topo::EvalOptions &eval,
             const std::string &algorithm,
             const topo::WeightedGraph *wcg = nullptr,
             const topo::WeightedGraph *trg_select = nullptr,
             const topo::WeightedGraph *trg_place = nullptr);

/** The three graphs of a profile under one noise draw. */
struct PerturbedGraphs
{
    topo::WeightedGraph wcg;
    topo::WeightedGraph trg_select;
    topo::WeightedGraph trg_place;
};

/**
 * Perturb every graph an algorithm consumes with the noise streams
 * runComparison() gives (algorithm index @p ai, repetition @p rep).
 */
PerturbedGraphs perturbProfile(const Profile &profile,
                               const topo::Rng &master, std::size_t ai,
                               std::size_t rep, double scale);

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_HH
