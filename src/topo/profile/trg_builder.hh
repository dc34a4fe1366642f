/**
 * @file
 * Construction of Temporal Relationship Graphs (Sections 3 and 4.1).
 *
 * A single pass over the trace drives two TemporalQueues — one at
 * procedure granularity producing TRG_select, one at chunk granularity
 * producing TRG_place — exactly as the paper's "straightforward to
 * generate both TRGs simultaneously" remark describes. Edge weights
 * count how often block q was referenced between two consecutive
 * references to block p while p was still resident in Q.
 */

#ifndef TOPO_PROFILE_TRG_BUILDER_HH
#define TOPO_PROFILE_TRG_BUILDER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "topo/profile/chunk_map.hh"
#include "topo/profile/temporal_queue.hh"
#include "topo/profile/weighted_graph.hh"
#include "topo/trace/trace.hh"

namespace topo
{

/** Options controlling a TRG build. */
struct TrgBuildOptions
{
    /**
     * Byte budget of Q. The paper found twice the cache size to work
     * well; callers typically pass 2 * cache.size_bytes.
     */
    std::uint64_t byte_budget = 2 * 8 * 1024;

    /** Build the procedure-granularity TRG_select. */
    bool build_select = true;

    /** Build the chunk-granularity TRG_place. */
    bool build_place = true;

    /**
     * Optional popularity mask (per procedure). When set, references
     * to unpopular procedures are ignored entirely, as in Section 4's
     * adoption of Hashemi et al.'s popular-procedure restriction.
     */
    const std::vector<bool> *popular = nullptr;

    /**
     * Optional per-step observer over the procedure-granularity queue,
     * used by the Figure 3 walkthrough. Called after each reference is
     * processed with: the referenced procedure, whether a previous
     * reference existed, the blocks found between the two references,
     * and the queue itself.
     */
    std::function<void(ProcId, bool, const std::vector<BlockId> &,
                       const TemporalQueue &)>
        observer;
};

/** Result of a TRG build. */
struct TrgBuildResult
{
    /** Procedure-granularity TRG (empty graph if not requested). */
    WeightedGraph select;
    /** Chunk-granularity TRG (empty graph if not requested). */
    WeightedGraph place;
    /** Average number of procedures resident in Q per step (Table 1). */
    double avg_queue_procs = 0.0;
    /** Number of procedure-granularity processing steps. */
    std::uint64_t proc_steps = 0;
    /** Budget evictions from the procedure-granularity Q. */
    std::uint64_t proc_evictions = 0;
    /** Budget evictions from the chunk-granularity Q. */
    std::uint64_t chunk_evictions = 0;
};

/**
 * One shard of a trace for parallel profile construction: an event
 * range plus the exact serial walk state at its first event, so a
 * shard-local accumulator seeded with it emits exactly the edges the
 * serial walk emits over [begin, end).
 */
struct TraceShard
{
    /** Event index range [begin, end). */
    std::size_t begin = 0;
    std::size_t end = 0;
    /** Procedure queue contents at `begin`, oldest first. */
    std::vector<BlockId> proc_queue;
    /** Chunk queue contents at `begin`, oldest first. */
    std::vector<BlockId> chunk_queue;
    /** Procedure of the last popular run before `begin`. */
    ProcId last_proc = kInvalidProc;
    /** Last chunk referenced before `begin` (~0u = none). */
    ChunkId last_chunk = static_cast<ChunkId>(~0u);
};

/**
 * State-only replay of the TRG walk: advances the procedure and chunk
 * TemporalQueues and the run-deduplication state (last proc / last
 * chunk) through trace events WITHOUT collecting between-lists or
 * emitting edges — O(1) amortised per event. This is the warm-up
 * machinery shared by planTraceShards (queue state at shard
 * boundaries) and the representative-interval sampler (queue state at
 * the start of each measured window); a TrgAccumulator seeded with a
 * walker's state continues the serial walk bit-exactly.
 *
 * Validation mirrors TrgAccumulator::onRun, so a malformed trace
 * fails here with the same error class it would fail with serially.
 */
class TrgStateWalker
{
  public:
    TrgStateWalker(const Program &program, const ChunkMap &chunks,
                   const TrgBuildOptions &options);

    /** Advance the state through one trace event. */
    void advance(const TraceEvent &event);

    /** Procedure queue contents, oldest first. */
    std::vector<BlockId> procQueue() const { return proc_q_.contents(); }
    /** Chunk queue contents, oldest first. */
    std::vector<BlockId> chunkQueue() const { return chunk_q_.contents(); }
    /** Procedure of the last popular run seen (kInvalidProc = none). */
    ProcId lastProc() const { return last_proc_; }
    /** Last chunk referenced (~0u = none). */
    ChunkId lastChunk() const { return last_chunk_; }

  private:
    const Program &program_;
    const ChunkMap &chunks_;
    const std::vector<bool> *popular_;
    TemporalQueue proc_q_;
    TemporalQueue chunk_q_;
    bool need_proc_pass_;
    bool build_place_;
    std::uint32_t chunk_bytes_;
    ProcId last_proc_ = kInvalidProc;
    ChunkId last_chunk_ = static_cast<ChunkId>(~0u);
};

/**
 * The shard rule shared by every profile walk (buildTrgs, buildWcg,
 * buildPairDatabase): min(execJobs(), events / 8192) shards — smaller
 * shards do not amortise the plan replay and the merge — and 1 on a
 * pool lane, where parallelFor would run the shards inline and the
 * plan and merge would be pure overhead.
 */
std::size_t profileShardCount(std::size_t events);

/**
 * Split @p trace into @p shard_count contiguous event ranges and
 * capture, via one fast state-only replay (TemporalQueue::touch, no
 * between-list collection or edge emission), the exact queue and
 * run-deduplication state at each shard boundary. Seeding a fresh
 * TrgAccumulator from shard i and replaying its range reproduces the
 * serial walk over that range bit-exactly, so the in-order merge of
 * all shards equals the serial build — including eviction and
 * queue-occupancy statistics.
 */
std::vector<TraceShard>
planTraceShards(const Program &program, const ChunkMap &chunks,
                const Trace &trace, const TrgBuildOptions &options,
                std::size_t shard_count);

/**
 * Build TRG_select and/or TRG_place from a trace.
 *
 * When profileShardCount() allows more than one shard and no
 * per-step observer is installed, the build runs sharded:
 * planTraceShards + one seeded TrgAccumulator per shard on the shared
 * pool, merged in shard order. The result is bit-identical to the
 * serial walk for any jobs value.
 *
 * @param program Procedure inventory.
 * @param chunks  Chunking of the program (for TRG_place).
 * @param trace   The profiling trace.
 * @param options Build options.
 */
TrgBuildResult buildTrgs(const Program &program, const ChunkMap &chunks,
                         const Trace &trace, const TrgBuildOptions &options);

} // namespace topo

#endif // TOPO_PROFILE_TRG_BUILDER_HH
