/**
 * @file
 * Streaming TRG construction.
 *
 * Section 4.4: "instead of processing traces we generate the TRGs
 * during program execution using instrumentation techniques". The
 * TrgAccumulator is that path — it consumes execution runs one at a
 * time (e.g. from an instrumentation callback) and produces exactly
 * the graphs the batch builder produces from a stored trace. The batch
 * buildTrgs() is a thin wrapper over it.
 */

#ifndef TOPO_PROFILE_TRG_ACCUMULATOR_HH
#define TOPO_PROFILE_TRG_ACCUMULATOR_HH

#include "topo/profile/trg_builder.hh"

namespace topo
{

/** Incremental TRG builder; one instance per profiling session. */
class TrgAccumulator
{
  public:
    /**
     * @param program Procedure inventory (must outlive the
     *                accumulator).
     * @param chunks  Chunk map (must outlive the accumulator).
     * @param options Build options; the observer hook, popularity
     *                filter, and graph selection behave exactly as in
     *                buildTrgs().
     */
    TrgAccumulator(const Program &program, const ChunkMap &chunks,
                   const TrgBuildOptions &options);

    /** Feed one execution run (the instrumentation callback). */
    void onRun(ProcId proc, std::uint32_t offset, std::uint32_t length);

    /** Feed every run of a stored trace. */
    void onTrace(const Trace &trace);

    /**
     * Seed the session's queue and run-deduplication state so onRun
     * continues exactly where a serial walk left off at a shard
     * boundary (parallel TRG builds; see planTraceShards). Must be
     * called on a fresh session, before any onRun.
     *
     * @param proc_queue  Procedure queue contents, oldest first.
     * @param chunk_queue Chunk queue contents, oldest first.
     * @param last_proc   Procedure of the preceding (popular) run, or
     *                    kInvalidProc at trace start.
     * @param last_chunk  Last chunk referenced, or ~0u at trace start.
     */
    void seedState(const std::vector<BlockId> &proc_queue,
                   const std::vector<BlockId> &chunk_queue,
                   ProcId last_proc, ChunkId last_chunk);

    /**
     * Fold another accumulator's session into this one: TRG edge
     * counts add element-wise, step/eviction/queue-size statistics
     * sum. Both sessions must have the same node counts. The counts
     * are integers, so the fold is exactly associative, and with
     * shards seeded via seedState the left-to-right fold over shard
     * accumulators equals the serial walk exactly. The other
     * accumulator's session state is left untouched.
     */
    void merge(const TrgAccumulator &other);

    /** Number of procedure-granularity steps processed so far. */
    std::uint64_t procSteps() const { return result_.proc_steps; }

    /**
     * Finish the session and surrender the graphs, built once from
     * the edge counts. The accumulator is left empty; further onRun
     * calls start a fresh session.
     */
    TrgBuildResult take();

  private:
    /** Edge counts keyed by WeightedGraph::packEdge(). */
    using EdgeCounts = util::FlatMap<std::uint64_t, std::uint64_t>;

    const Program &program_;
    const ChunkMap &chunks_;
    TrgBuildOptions options_;
    /** Session statistics; the graphs are filled in by take(). */
    TrgBuildResult result_;
    /** Node counts of TRG_select / TRG_place (0 = not built). */
    std::size_t select_nodes_;
    std::size_t place_nodes_;
    EdgeCounts select_counts_;
    EdgeCounts place_counts_;
    TemporalQueue proc_q_;
    TemporalQueue chunk_q_;
    std::vector<BlockId> between_;
    std::uint64_t queue_size_sum_ = 0;
    /** Evictions folded in from merged shard accumulators. */
    std::uint64_t merged_proc_evictions_ = 0;
    std::uint64_t merged_chunk_evictions_ = 0;
    ProcId last_proc_ = kInvalidProc;
    ChunkId last_chunk_;

    void reset();
};

} // namespace topo

#endif // TOPO_PROFILE_TRG_ACCUMULATOR_HH
