/**
 * @file
 * Tests for TRG construction (Section 3), including the paper's
 * Figure 1/2 qualitative claims and the chunk-granularity TRG_place.
 */

#include <gtest/gtest.h>

#include "topo/profile/trg_accumulator.hh"
#include "topo/profile/trg_builder.hh"
#include "topo/profile/wcg_builder.hh"
#include "topo/util/error.hh"
#include "topo/util/rng.hh"
#include "topo/workload/figure1.hh"

namespace topo
{
namespace
{

TrgBuildOptions
figure1Options(const Figure1Example &ex)
{
    TrgBuildOptions opts;
    opts.byte_budget = 2 * ex.cache.size_bytes;
    return opts;
}

TEST(Trg, Figure2SiblingEdgesAppearOnlyWithInterleaving)
{
    const Figure1Example ex = makeFigure1Example();
    const ChunkMap chunks(ex.program, 256);

    // Trace #2 (phased): X and Y never interleave, so the TRG must
    // contain edges (X,Z) and (Y,Z) but only a negligible (X,Y)
    // weight (one phase transition at most).
    const TrgBuildResult trg2 =
        buildTrgs(ex.program, chunks, ex.trace2(), figure1Options(ex));
    EXPECT_GT(trg2.select.weight(ex.m, ex.x), 0.0);
    EXPECT_GT(trg2.select.weight(ex.m, ex.y), 0.0);
    EXPECT_GT(trg2.select.weight(ex.m, ex.z), 0.0);
    EXPECT_GT(trg2.select.weight(ex.x, ex.z), 0.0);
    EXPECT_GT(trg2.select.weight(ex.y, ex.z), 0.0);
    // X/Y interleave only around the single phase boundary.
    EXPECT_LE(trg2.select.weight(ex.x, ex.y), 2.0);

    // Trace #1 (alternating): X and Y interleave constantly.
    const TrgBuildResult trg1 =
        buildTrgs(ex.program, chunks, ex.trace1(), figure1Options(ex));
    EXPECT_GT(trg1.select.weight(ex.x, ex.y),
              10.0 * trg2.select.weight(ex.x, ex.y));
}

TEST(Trg, WcgIdenticalForBothTracesButTrgDiffers)
{
    // The motivating claim of Section 1: both traces produce the same
    // WCG, yet their TRGs differ.
    const Figure1Example ex = makeFigure1Example();
    const WeightedGraph wcg1 = buildWcg(ex.program, ex.trace1());
    const WeightedGraph wcg2 = buildWcg(ex.program, ex.trace2());
    for (ProcId a = 0; a < 4; ++a) {
        for (ProcId b = a + 1; b < 4; ++b)
            EXPECT_DOUBLE_EQ(wcg1.weight(a, b), wcg2.weight(a, b))
                << "(" << a << "," << b << ")";
    }
    const ChunkMap chunks(ex.program, 256);
    const TrgBuildResult trg1 =
        buildTrgs(ex.program, chunks, ex.trace1(), figure1Options(ex));
    const TrgBuildResult trg2 =
        buildTrgs(ex.program, chunks, ex.trace2(), figure1Options(ex));
    EXPECT_NE(trg1.select.weight(ex.x, ex.y),
              trg2.select.weight(ex.x, ex.y));
}

TEST(Trg, EdgeWeightCountsInterveningReferences)
{
    // Trace f g f: one edge increment (g between the two f's).
    Program p("t");
    const ProcId f = p.addProcedure("f", 32);
    const ProcId g = p.addProcedure("g", 32);
    Trace t(2);
    t.append(f, 0, 32);
    t.append(g, 0, 32);
    t.append(f, 0, 32);
    const ChunkMap chunks(p, 256);
    TrgBuildOptions opts;
    opts.byte_budget = 1024;
    const TrgBuildResult trg = buildTrgs(p, chunks, t, opts);
    EXPECT_DOUBLE_EQ(trg.select.weight(f, g), 1.0);
}

TEST(Trg, NoEdgeWithoutReuse)
{
    // Trace f g: g is never between two references to anything.
    Program p("t");
    const ProcId f = p.addProcedure("f", 32);
    const ProcId g = p.addProcedure("g", 32);
    Trace t(2);
    t.append(f, 0, 32);
    t.append(g, 0, 32);
    const ChunkMap chunks(p, 256);
    TrgBuildOptions opts;
    opts.byte_budget = 1024;
    const TrgBuildResult trg = buildTrgs(p, chunks, t, opts);
    EXPECT_DOUBLE_EQ(trg.select.weight(f, g), 0.0);
    EXPECT_EQ(trg.select.edgeCount(), 0u);
}

TEST(Trg, CapacityBoundPreventsDistantEdges)
{
    // f ... lots of unique code ... f: the second reference to f must
    // not create edges because f was evicted from Q (capacity, not
    // timely interleaving — Section 3).
    Program p("t");
    const ProcId f = p.addProcedure("f", 64);
    std::vector<ProcId> fillers;
    for (int i = 0; i < 20; ++i)
        fillers.push_back(p.addProcedure("u" + std::to_string(i), 512));
    Trace t(p.procCount());
    t.append(f, 0, 64);
    for (ProcId u : fillers)
        t.append(u, 0, 512);
    t.append(f, 0, 64);
    const ChunkMap chunks(p, 256);
    TrgBuildOptions opts;
    opts.byte_budget = 2048; // far less than 20*512 bytes of filler
    const TrgBuildResult trg = buildTrgs(p, chunks, t, opts);
    for (ProcId u : fillers)
        EXPECT_DOUBLE_EQ(trg.select.weight(f, u), 0.0);
}

TEST(Trg, PopularFilterDropsColdProcs)
{
    Program p("t");
    const ProcId f = p.addProcedure("f", 32);
    const ProcId g = p.addProcedure("g", 32);
    const ProcId cold = p.addProcedure("cold", 32);
    Trace t(3);
    t.append(f, 0, 32);
    t.append(cold, 0, 32);
    t.append(g, 0, 32);
    t.append(f, 0, 32);
    const ChunkMap chunks(p, 256);
    TrgBuildOptions opts;
    opts.byte_budget = 1024;
    std::vector<bool> popular{true, true, false};
    opts.popular = &popular;
    const TrgBuildResult trg = buildTrgs(p, chunks, t, opts);
    EXPECT_DOUBLE_EQ(trg.select.weight(f, g), 1.0);
    EXPECT_DOUBLE_EQ(trg.select.weight(f, cold), 0.0);
}

TEST(Trg, ChunkGranularityConnectsChunksNotJustProcs)
{
    // Two multi-chunk procedures alternating: TRG_place must connect
    // their chunks pairwise (the executed ones).
    Program p("t");
    const ProcId f = p.addProcedure("f", 512); // 2 chunks of 256
    const ProcId g = p.addProcedure("g", 512);
    Trace t(2);
    for (int i = 0; i < 5; ++i) {
        t.append(f, 0, 512);
        t.append(g, 0, 512);
    }
    const ChunkMap chunks(p, 256);
    TrgBuildOptions opts;
    opts.byte_budget = 8192;
    const TrgBuildResult trg = buildTrgs(p, chunks, t, opts);
    const ChunkId f0 = chunks.chunkId(f, 0);
    const ChunkId f1 = chunks.chunkId(f, 1);
    const ChunkId g0 = chunks.chunkId(g, 0);
    EXPECT_GT(trg.place.weight(f0, g0), 0.0);
    EXPECT_GT(trg.place.weight(f1, g0), 0.0);
    // Within one pass through f, f0 is not between two f0 references.
    EXPECT_GT(trg.place.weight(f0, f1), 0.0);
}

TEST(TrgAccumulator, MergeRejectsMismatchedNodeCounts)
{
    Program small("small");
    small.addProcedure("f", 32);
    small.addProcedure("g", 32);
    Program large("large");
    for (const char *name : {"f", "g", "h"})
        large.addProcedure(name, 32);
    // Same procedure count, more chunks: only TRG_place differs.
    Program wide("wide");
    wide.addProcedure("f", 32);
    wide.addProcedure("g", 600);
    const ChunkMap small_chunks(small, 256);
    const ChunkMap large_chunks(large, 256);
    const ChunkMap wide_chunks(wide, 256);
    const TrgBuildOptions opts;

    TrgAccumulator acc(small, small_chunks, opts);
    const TrgAccumulator larger(large, large_chunks, opts);
    const TrgAccumulator wider(wide, wide_chunks, opts);
    for (const TrgAccumulator *other : {&larger, &wider}) {
        try {
            acc.merge(*other);
            FAIL() << "merge accepted a different node count";
        } catch (const TopoError &e) {
            EXPECT_EQ(e.code(), ErrCode::kUser);
            EXPECT_STREQ(e.what(),
                         "TrgAccumulator::merge: node count mismatch");
        }
    }

    // Same program, one side building only TRG_place: the option
    // check fires first.
    TrgBuildOptions place_only = opts;
    place_only.build_select = false;
    const TrgAccumulator partial(small, small_chunks, place_only);
    EXPECT_THROW(acc.merge(partial), TopoError);

    const TrgAccumulator twin(small, small_chunks, opts);
    EXPECT_NO_THROW(acc.merge(twin));
}

TEST(Trg, AverageQueueSizeReported)
{
    const Figure1Example ex = makeFigure1Example();
    const ChunkMap chunks(ex.program, 256);
    const TrgBuildResult trg =
        buildTrgs(ex.program, chunks, ex.trace2(), figure1Options(ex));
    EXPECT_GT(trg.avg_queue_procs, 1.0);
    EXPECT_LE(trg.avg_queue_procs, 4.0);
    EXPECT_GT(trg.proc_steps, 0u);
}

TEST(Trg, ObserverSeesEverything)
{
    const Figure1Example ex = makeFigure1Example();
    const ChunkMap chunks(ex.program, 256);
    TrgBuildOptions opts = figure1Options(ex);
    std::size_t steps = 0;
    std::size_t with_prev = 0;
    opts.observer = [&](ProcId, bool had_prev,
                        const std::vector<BlockId> &,
                        const TemporalQueue &q) {
        ++steps;
        with_prev += had_prev;
        EXPECT_GE(q.size(), 1u);
    };
    const TrgBuildResult trg =
        buildTrgs(ex.program, chunks, ex.trace2(), opts);
    EXPECT_EQ(steps, trg.proc_steps);
    EXPECT_GT(with_prev, 0u);
}

/** Property: select-TRG weights are symmetric and non-negative. */
class TrgSymmetryTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TrgSymmetryTest, SymmetricWeights)
{
    Program p("t");
    for (int i = 0; i < 12; ++i)
        p.addProcedure("p" + std::to_string(i), 64 + 16 * i);
    Trace t(p.procCount());
    Rng rng(GetParam());
    for (int i = 0; i < 3000; ++i) {
        const ProcId id = static_cast<ProcId>(rng.nextBelow(12));
        t.append(id, 0, p.proc(id).size_bytes);
    }
    const ChunkMap chunks(p, 256);
    TrgBuildOptions opts;
    opts.byte_budget = GetParam() * 128 + 256;
    const TrgBuildResult trg = buildTrgs(p, chunks, t, opts);
    for (ProcId a = 0; a < 12; ++a) {
        for (ProcId b = 0; b < 12; ++b) {
            EXPECT_DOUBLE_EQ(trg.select.weight(a, b),
                             trg.select.weight(b, a));
            EXPECT_GE(trg.select.weight(a, b), 0.0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrgSymmetryTest,
                         ::testing::Values(1u, 2u, 3u, 8u));

} // namespace
} // namespace topo
