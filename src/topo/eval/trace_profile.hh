/**
 * @file
 * The paper's profiling recipe (Section 4), defined once: a training
 * trace becomes placement input. Trace statistics select the popular
 * procedures; the chunk map and a Q bounded at q_budget_factor × cache
 * size drive the WCG, TRG_select and TRG_place walks (exact, or
 * estimated over a SamplePlan when sampling is active); the optional
 * Section 6 pair database rides along; heat is bytes fetched.
 */

#ifndef TOPO_EVAL_TRACE_PROFILE_HH
#define TOPO_EVAL_TRACE_PROFILE_HH

#include <cstdint>
#include <memory>

#include "topo/cache/cache_config.hh"
#include "topo/placement/placement.hh"
#include "topo/placement/popularity.hh"
#include "topo/profile/chunk_map.hh"
#include "topo/sampling/sample_plan.hh"
#include "topo/sampling/sampled_profile.hh"
#include "topo/trace/trace_stats.hh"

namespace topo
{

/** Knobs of the evaluation pipeline (paper defaults). */
struct EvalOptions
{
    CacheConfig cache = CacheConfig::paperDefault();
    /** Chunk size for TRG_place (Section 4.1). */
    std::uint32_t chunk_bytes = ChunkMap::kDefaultChunkBytes;
    /** Q byte budget as a multiple of the cache size (Section 3). */
    double q_budget_factor = 2.0;
    /** Popularity selection. */
    PopularityOptions popularity;
    /** Build the Section 6 pair database too (costly; off by default). */
    bool build_pairs = false;
    /** Pair-window cap for the pair database. */
    std::uint32_t pair_window = 16;
    /** Prune pair-database entries below this weight. */
    double pair_prune = 2.0;
    /**
     * Representative-interval sampling (DESIGN.md §15). When active,
     * profiles and miss rates are weighted estimates over sampled
     * trace segments, the full fetch streams are never expanded, and
     * testMissRate/trainMissRate are replaced by sampledTestResult.
     */
    SamplingOptions sampling;
};

/**
 * The Q byte budget, q_budget_factor × cache size. Fails unless the
 * factor is finite and positive and the budget lies in [1, 2^53]
 * bytes (2^53 keeps the product exact in a double).
 */
std::uint64_t qByteBudget(const EvalOptions &options);

/**
 * Everything placement needs from one training trace. Owns the
 * graphs; hand out contexts with context().
 */
class TraceProfile
{
  public:
    /**
     * Profile @p trace of @p program under @p options. With
     * options.sampling active the graphs are weighted estimates over
     * the trace's SamplePlan, built here. @p program must outlive the
     * profile; @p trace need not.
     */
    TraceProfile(const Program &program, const Trace &trace,
                 const EvalOptions &options);

    const Program &program() const { return *program_; }
    const EvalOptions &options() const { return options_; }
    const TraceStats &stats() const { return stats_; }
    const PopularSet &popular() const { return popular_; }
    const ChunkMap &chunks() const { return chunks_; }
    const WeightedGraph &wcg() const { return graphs_.wcg; }
    const WeightedGraph &trgSelect() const { return graphs_.trgs.select; }
    const WeightedGraph &trgPlace() const { return graphs_.trgs.place; }
    /** Pruned pair database; empty unless options.build_pairs. */
    const PairDatabase &pairs() const { return graphs_.pairs; }
    /** Average procedures resident in Q during TRG build (Table 1). */
    double avgQueueProcs() const { return graphs_.trgs.avg_queue_procs; }

    /** Whether the graphs are estimates over a sample plan. */
    bool sampled() const { return plan_ != nullptr; }

    /** The trace's sample plan (sampled profiles only). */
    const SamplePlan &plan() const;

    /**
     * A placement context over this profile. Optional overrides
     * replace the stored graphs (the perturbation experiments use
     * them); they must outlive the returned context's use.
     */
    PlacementContext context(const WeightedGraph *wcg = nullptr,
                             const WeightedGraph *trg_select = nullptr,
                             const WeightedGraph *trg_place = nullptr)
        const;

  private:
    const Program *program_;
    EvalOptions options_;
    TraceStats stats_;
    PopularSet popular_;
    ChunkMap chunks_;
    std::unique_ptr<SamplePlan> plan_;
    ProfileGraphs graphs_;
};

} // namespace topo

#endif // TOPO_EVAL_TRACE_PROFILE_HH
