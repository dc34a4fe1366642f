/**
 * @file
 * Sampled profile construction over a SamplePlan (DESIGN.md §15).
 *
 * The placement pipeline's profile artifacts — the weighted call graph
 * and both Temporal Relationship Graphs — are linear in the trace:
 * every edge weight is a sum of per-event contributions. They
 * therefore sample exactly like miss counts do. Each plan segment
 * replays its warm-up prefix state-only (TrgStateWalker), seeds a
 * fresh TrgAccumulator with the warmed queue state, accumulates edges
 * over the measured range only, and the per-segment graphs merge with
 * the segment's cluster weight (WeightedGraph::addGraph). The WCG
 * transition walk seeds its last-procedure state from the event just
 * before the measured range, matching the sharded exact builder.
 *
 * Segments run concurrently; all folds are serial in segment order, so
 * the result is bit-identical for any --jobs value. The degenerate
 * single-segment whole-trace plan (scale 1.0, no warm-up) reproduces
 * the exact profile bit-for-bit.
 */

#ifndef TOPO_SAMPLING_SAMPLED_PROFILE_HH
#define TOPO_SAMPLING_SAMPLED_PROFILE_HH

#include <cstdint>

#include "topo/profile/chunk_map.hh"
#include "topo/profile/pair_database.hh"
#include "topo/profile/trg_builder.hh"
#include "topo/profile/weighted_graph.hh"
#include "topo/sampling/sample_plan.hh"

namespace topo
{

/** Weighted-estimate analogue of (buildWcg, buildTrgs) output. */
struct SampledProfileResult
{
    /** Estimated weighted call graph (procedure transitions). */
    WeightedGraph wcg;
    /** Estimated TRG_select (empty graph if not requested). */
    WeightedGraph trg_select;
    /** Estimated TRG_place (empty graph if not requested). */
    WeightedGraph trg_place;
    /** Weighted average procedures resident in Q per step. */
    double avg_queue_procs = 0.0;
    /** Estimated procedure-granularity steps (rounded). */
    std::uint64_t proc_steps = 0;
    /** Estimated Q evictions, procedure granularity (rounded). */
    std::uint64_t proc_evictions = 0;
    /** Estimated Q evictions, chunk granularity (rounded). */
    std::uint64_t chunk_evictions = 0;
};

/**
 * Build the WCG and TRGs from the plan's representative segments only,
 * weighting each segment's edges by its cluster scale. @p options must
 * not carry a per-step observer (observers see every step in order,
 * which sampling by construction does not provide).
 */
SampledProfileResult buildSampledProfile(const Program &program,
                                         const ChunkMap &chunks,
                                         const Trace &trace,
                                         const SamplePlan &plan,
                                         const TrgBuildOptions &options);

/** The profile graphs of one trace, as buildProfileGraphs returns them. */
struct ProfileGraphs
{
    /** Weighted call graph (procedure transitions). */
    WeightedGraph wcg;
    /** Both TRGs and the Q statistics of their walk. */
    TrgBuildResult trgs;
    /** Section 6 pair database (empty unless requested). */
    PairDatabase pairs;
};

/**
 * The one exact-or-sampled profile step. With @p plan null: buildWcg
 * and buildTrgs over the whole trace, plus buildPairDatabase when
 * @p pairs is given. With a plan: buildSampledProfile, whose weighted
 * estimates fill the same fields; the pair database has no sampled
 * build, so @p pairs must then be null.
 */
ProfileGraphs buildProfileGraphs(const Program &program,
                                 const ChunkMap &chunks, const Trace &trace,
                                 const SamplePlan *plan,
                                 const TrgBuildOptions &trg_options,
                                 const PairBuildOptions *pairs = nullptr);

} // namespace topo

#endif // TOPO_SAMPLING_SAMPLED_PROFILE_HH
