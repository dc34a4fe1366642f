/**
 * @file
 * Determinism-contract tests (DESIGN.md §9).
 *
 * Two families: (1) placement algorithms run twice from independently
 * rebuilt profiles must produce identical layouts and miss counts —
 * the guard against hash-order iteration leaking into placement
 * decisions; (2) the sharded profile-construction path (planTraceShards
 * + seeded TrgAccumulators merged in shard order) must equal the serial
 * walk bit-exactly, for uneven split points, empty shards, and runs
 * that span chunk boundaries.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "topo/cache/simulate.hh"
#include "topo/eval/experiment.hh"
#include "topo/eval/layout_diff.hh"
#include "topo/placement/decision_log.hh"
#include "topo/trace/fetch_stream.hh"
#include "topo/exec/exec.hh"
#include "topo/placement/cache_coloring.hh"
#include "topo/placement/gbsc.hh"
#include "topo/placement/pettis_hansen.hh"
#include "topo/profile/pair_database.hh"
#include "topo/profile/trg_accumulator.hh"
#include "topo/profile/trg_builder.hh"
#include "topo/profile/wcg_builder.hh"
#include "topo/workload/paper_suite.hh"
#include "topo/workload/trace_synthesizer.hh"

namespace topo
{
namespace
{

void
expectGraphsEqual(const WeightedGraph &a, const WeightedGraph &b,
                  const std::string &what)
{
    ASSERT_EQ(a.nodeCount(), b.nodeCount()) << what;
    ASSERT_EQ(a.edgeCount(), b.edgeCount()) << what;
    const std::vector<WeightedGraph::Edge> ea = a.edges();
    const std::vector<WeightedGraph::Edge> eb = b.edges();
    ASSERT_EQ(ea.size(), eb.size()) << what;
    for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].u, eb[i].u) << what << " edge " << i;
        EXPECT_EQ(ea[i].v, eb[i].v) << what << " edge " << i;
        // TRG weights are integer-valued counts, so equality is exact.
        EXPECT_EQ(ea[i].weight, eb[i].weight)
            << what << " edge {" << ea[i].u << "," << ea[i].v << "}";
    }
}

void
expectResultsEqual(const TrgBuildResult &a, const TrgBuildResult &b)
{
    expectGraphsEqual(a.select, b.select, "TRG_select");
    expectGraphsEqual(a.place, b.place, "TRG_place");
    EXPECT_EQ(a.proc_steps, b.proc_steps);
    EXPECT_EQ(a.proc_evictions, b.proc_evictions);
    EXPECT_EQ(a.chunk_evictions, b.chunk_evictions);
    EXPECT_DOUBLE_EQ(a.avg_queue_procs, b.avg_queue_procs);
}

/** Seed an accumulator from a shard and replay the shard's events. */
TrgAccumulator
replayShard(const Program &program, const ChunkMap &chunks,
            const TrgBuildOptions &options, const Trace &trace,
            const TraceShard &shard)
{
    TrgAccumulator acc(program, chunks, options);
    acc.seedState(shard.proc_queue, shard.chunk_queue, shard.last_proc,
                  shard.last_chunk);
    const std::vector<TraceEvent> &events = trace.events();
    for (std::size_t i = shard.begin; i < shard.end; ++i)
        acc.onRun(events[i].proc, events[i].offset, events[i].length);
    return acc;
}

TrgBuildResult
shardedBuild(const Program &program, const ChunkMap &chunks,
             const TrgBuildOptions &options, const Trace &trace,
             std::size_t shard_count)
{
    const std::vector<TraceShard> shards =
        planTraceShards(program, chunks, trace, options, shard_count);
    std::unique_ptr<TrgAccumulator> total;
    for (const TraceShard &shard : shards) {
        TrgAccumulator acc =
            replayShard(program, chunks, options, trace, shard);
        if (!total)
            total = std::make_unique<TrgAccumulator>(std::move(acc));
        else
            total->merge(acc);
    }
    return total->take();
}

/** Layouts must agree address-by-address, not just in order. */
void
expectLayoutsEqual(const Program &program, const Layout &a,
                   const Layout &b, const std::string &what)
{
    ASSERT_EQ(a.procCount(), b.procCount()) << what;
    for (ProcId p = 0; p < program.procCount(); ++p) {
        EXPECT_EQ(a.address(p), b.address(p))
            << what << ": procedure " << program.proc(p).name;
    }
}

TEST(Determinism, AlgorithmsRepeatAcrossIndependentProfileBuilds)
{
    // Rebuild the entire profile pipeline twice; any hash-order
    // dependence in TRG/WCG construction or in the placement
    // algorithms shows up as an address mismatch here.
    const EvalOptions eval;
    const ProfileBundle first(paperBenchmark("gcc", 0.01), eval);
    const ProfileBundle second(paperBenchmark("gcc", 0.01), eval);

    const PettisHansen ph;
    const CacheColoring hkc;
    const Gbsc gbsc;
    const PlacementAlgorithm *algorithms[] = {&ph, &hkc, &gbsc};

    for (const PlacementAlgorithm *algorithm : algorithms) {
        const Layout a = algorithm->place(first.makeContext());
        const Layout b = algorithm->place(second.makeContext());
        expectLayoutsEqual(first.program(), a, b, algorithm->name());
        EXPECT_DOUBLE_EQ(first.testMissRate(a), second.testMissRate(b))
            << algorithm->name();
    }
}

TEST(Determinism, ShardedTrgEqualsSerialForUnevenSplits)
{
    const BenchmarkCase bench = paperBenchmark("gcc", 0.005);
    const Program &program = bench.model.program;
    const Trace trace = synthesizeTrace(bench.model, bench.train);
    const ChunkMap chunks(program);
    const TrgBuildOptions options;

    TrgAccumulator serial(program, chunks, options);
    serial.onTrace(trace);
    const TrgBuildResult reference = serial.take();
    ASSERT_GT(reference.select.edgeCount(), 0u);

    // Prime shard counts guarantee uneven i*n/shards boundaries.
    for (const std::size_t shard_count : {2u, 3u, 5u, 7u, 11u}) {
        SCOPED_TRACE("shard_count=" + std::to_string(shard_count));
        const TrgBuildResult sharded =
            shardedBuild(program, chunks, options, trace, shard_count);
        expectResultsEqual(sharded, reference);
    }
}

TEST(Determinism, ShardMergeIsAssociative)
{
    const BenchmarkCase bench = paperBenchmark("perl", 0.005);
    const Program &program = bench.model.program;
    const Trace trace = synthesizeTrace(bench.model, bench.train);
    const ChunkMap chunks(program);
    const TrgBuildOptions options;
    const std::vector<TraceShard> shards =
        planTraceShards(program, chunks, trace, options, 4);
    ASSERT_EQ(shards.size(), 4u);

    const auto replay = [&](std::size_t s) {
        return replayShard(program, chunks, options, trace, shards[s]);
    };

    // Left fold: ((a + b) + c) + d.
    TrgAccumulator left = replay(0);
    for (std::size_t s = 1; s < shards.size(); ++s) {
        const TrgAccumulator other = replay(s);
        left.merge(other);
    }

    // Pairwise tree: (a + b) + (c + d).
    TrgAccumulator ab = replay(0);
    {
        const TrgAccumulator b = replay(1);
        ab.merge(b);
    }
    TrgAccumulator cd = replay(2);
    {
        const TrgAccumulator d = replay(3);
        cd.merge(d);
    }
    ab.merge(cd);

    expectResultsEqual(left.take(), ab.take());
}

TEST(Determinism, EmptyShardsAreNeutral)
{
    // More shards than events: the plan produces empty [begin, begin)
    // ranges whose seeded accumulators contribute nothing to the merge.
    Program p;
    const ProcId f = p.addProcedure("f", 64);
    const ProcId g = p.addProcedure("g", 64);
    Trace trace(2);
    trace.appendWhole(f, 64);
    trace.appendWhole(g, 64);
    trace.appendWhole(f, 64);

    const ChunkMap chunks(p);
    const TrgBuildOptions options;
    TrgAccumulator serial(p, chunks, options);
    serial.onTrace(trace);
    const TrgBuildResult reference = serial.take();

    const TrgBuildResult sharded =
        shardedBuild(p, chunks, options, trace, 8);
    expectResultsEqual(sharded, reference);
}

TEST(Determinism, ShardBoundaryInsideChunkSpanningRuns)
{
    // Runs that cross chunk boundaries exercise the last_chunk
    // deduplication state; a shard boundary landing between two such
    // runs must not re-count the chunk transition.
    Program p;
    const ProcId f = p.addProcedure("f", 1024);
    const ProcId g = p.addProcedure("g", 1024);
    Trace trace(2);
    for (int i = 0; i < 20; ++i) {
        // Each run covers several 256-byte chunks, and consecutive
        // runs overlap in their first/last chunk.
        trace.append(f, 128, 512);  // chunks 0..2 of f
        trace.append(f, 512, 512);  // chunks 2..3 of f (2 repeats)
        trace.append(g, 0, 640);    // chunks 0..2 of g
        trace.append(g, 600, 424);  // chunks 2..3 of g (2 repeats)
    }

    const ChunkMap chunks(p, 256);
    TrgBuildOptions options;
    TrgAccumulator serial(p, chunks, options);
    serial.onTrace(trace);
    const TrgBuildResult reference = serial.take();
    ASSERT_GT(reference.place.edgeCount(), 0u);

    // Every possible split point, so some boundary falls between the
    // overlapping runs of each pair.
    for (std::size_t shard_count = 2; shard_count <= trace.size();
         ++shard_count) {
        SCOPED_TRACE("shard_count=" + std::to_string(shard_count));
        const TrgBuildResult sharded =
            shardedBuild(p, chunks, options, trace, shard_count);
        expectResultsEqual(sharded, reference);
    }
}

TEST(Determinism, PooledProfileBuildsMatchSerial)
{
    // End-to-end: the real buildTrgs/buildWcg/buildPairDatabase entry
    // points with the pool engaged vs fully serial.
    const BenchmarkCase bench = paperBenchmark("gcc", 0.03);
    const Program &program = bench.model.program;
    const Trace trace = synthesizeTrace(bench.model, bench.train);
    const ChunkMap chunks(program);
    const TrgBuildOptions trg_options;
    // Large enough that buildTrgs actually takes the sharded path.
    ASSERT_GE(trace.size(), 2u * 8192u);

    setExecJobs(1);
    const TrgBuildResult serial_trg =
        buildTrgs(program, chunks, trace, trg_options);
    const WeightedGraph serial_wcg = buildWcg(program, trace);
    const PairBuildOptions pair_options;
    const PairDatabase serial_pairs =
        buildPairDatabase(program, trace, pair_options);

    setExecJobs(4);
    const TrgBuildResult pooled_trg =
        buildTrgs(program, chunks, trace, trg_options);
    const WeightedGraph pooled_wcg = buildWcg(program, trace);
    const PairDatabase pooled_pairs =
        buildPairDatabase(program, trace, pair_options);
    setExecJobs(1);

    expectResultsEqual(pooled_trg, serial_trg);
    expectGraphsEqual(pooled_wcg, serial_wcg, "WCG");

    const std::vector<PairDatabase::Entry> sp = serial_pairs.entries();
    const std::vector<PairDatabase::Entry> pp = pooled_pairs.entries();
    ASSERT_EQ(sp.size(), pp.size());
    for (std::size_t i = 0; i < sp.size(); ++i) {
        EXPECT_EQ(sp[i].p, pp[i].p) << "pair entry " << i;
        EXPECT_EQ(sp[i].r, pp[i].r) << "pair entry " << i;
        EXPECT_EQ(sp[i].s, pp[i].s) << "pair entry " << i;
        EXPECT_EQ(sp[i].weight, pp[i].weight) << "pair entry " << i;
    }
}

TEST(Determinism, SeededRandomPolicyIsJobsInvariantAndRepeatable)
{
    // The random replacement policy draws from a per-cache-instance
    // counter RNG seeded by CacheConfig::policy_seed, so full pipeline
    // runs must be bit-identical across --jobs values and across
    // reruns — no global RNG state leaks between grid cells.
    EvalOptions eval;
    eval.cache.associativity = 4;
    eval.cache.policy = ReplacementPolicy::kRandom;
    const Gbsc gbsc;

    auto run = [&](int jobs) {
        setExecJobs(jobs);
        const ProfileBundle bundle(paperBenchmark("gcc", 0.01), eval);
        const Layout layout = gbsc.place(bundle.makeContext());
        const double miss_rate = bundle.testMissRate(layout);
        setExecJobs(1);
        return std::make_pair(layout, miss_rate);
    };

    const auto serial = run(1);
    const auto rerun = run(1);
    const auto pooled = run(4);
    const ProfileBundle bundle(paperBenchmark("gcc", 0.01), eval);
    expectLayoutsEqual(bundle.program(), serial.first, rerun.first,
                       "rerun");
    expectLayoutsEqual(bundle.program(), serial.first, pooled.first,
                       "jobs=4");
    EXPECT_DOUBLE_EQ(serial.second, rerun.second);
    EXPECT_DOUBLE_EQ(serial.second, pooled.second);
}

TEST(Determinism, ExplainArtifactsAreJobsInvariant)
{
    // The decisions artifact and the attributed layout-diff artifact
    // must be byte-identical for any --jobs value: decision recording
    // is strictly sequential inside each algorithm, and the diff's
    // double replay merges per-task metrics in fixed side order.
    const EvalOptions eval;
    const ProfileBundle bundle(paperBenchmark("gcc", 0.01), eval);
    const Gbsc gbsc;
    const PettisHansen ph;

    auto render = [&]() {
        DecisionLog log;
        log.setAlgorithm("gbsc");
        log.setCache(eval.cache);
        PlacementContext ctx = bundle.makeContext();
        ctx.decisions = &log;
        const Layout gb = gbsc.place(ctx);
        const Layout base = ph.place(bundle.makeContext());

        LayoutDiff diff = buildLayoutDiff(bundle.program(), eval.cache,
                                          base, gb, "ph", "gbsc");
        attributeMissDelta(diff, bundle.program(), base, gb,
                           bundle.testStream());
        crossReferenceDecisions(diff, bundle.program(),
                                snapshotDecisions(log,
                                                  bundle.program()));
        return std::make_pair(
            log.toJson(bundle.program()).toString(),
            diffToJson(diff, bundle.program()).toString());
    };

    setExecJobs(1);
    const auto serial = render();
    setExecJobs(4);
    const auto pooled = render();
    setExecJobs(1);

    EXPECT_EQ(serial.first, pooled.first) << "decisions JSON";
    EXPECT_EQ(serial.second, pooled.second) << "diff JSON";
}

} // namespace
} // namespace topo
