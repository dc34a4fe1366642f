/**
 * @file
 * Tests for the evaluation harness: TraceProfile (against the layer
 * calls it replaces), ProfileBundle, runComparison, conflict metrics,
 * layout offsets, and the Table 1 reporter.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "topo/eval/conflict_metric.hh"
#include "topo/eval/experiment.hh"
#include "topo/eval/reports.hh"
#include "topo/placement/cache_coloring.hh"
#include "topo/placement/gbsc.hh"
#include "topo/placement/pettis_hansen.hh"
#include "topo/profile/trg_builder.hh"
#include "topo/profile/wcg_builder.hh"
#include "topo/sampling/sampled_profile.hh"
#include "topo/util/error.hh"
#include "topo/workload/microsuite.hh"
#include "topo/workload/synthetic_program.hh"
#include "topo/workload/trace_synthesizer.hh"

namespace topo
{
namespace
{

/** A small, fast benchmark case for harness tests. */
BenchmarkCase
miniCase()
{
    SyntheticSpec spec;
    spec.name = "mini";
    spec.proc_count = 50;
    spec.total_bytes = 100 * 1024;
    spec.popular_count = 16;
    spec.popular_bytes = 30 * 1024;
    spec.phase_count = 3;
    spec.ranks = 3;
    spec.seed = 99;
    BenchmarkCase bench;
    bench.name = spec.name;
    bench.model = buildSyntheticWorkload(spec);
    bench.train.name = "train";
    bench.train.seed = 1;
    bench.train.target_runs = 30000;
    bench.test.name = "test";
    bench.test.seed = 2;
    bench.test.target_runs = 30000;
    return bench;
}

EvalOptions
miniOptions()
{
    EvalOptions opts;
    opts.cache = CacheConfig{4096, 32, 1};
    return opts;
}

class EvalFixture : public ::testing::Test
{
  protected:
    EvalFixture() : bundle_(miniCase(), miniOptions()) {}
    ProfileBundle bundle_;
};

TEST_F(EvalFixture, BundlePipelineConsistency)
{
    EXPECT_EQ(bundle_.name(), "mini");
    EXPECT_EQ(bundle_.program().procCount(), 50u);
    EXPECT_GE(bundle_.trainTrace().size(), 30000u);
    EXPECT_GE(bundle_.testTrace().size(), 30000u);
    EXPECT_GT(bundle_.popular().count, 0u);
    EXPECT_LE(bundle_.popular().count, 50u);
    EXPECT_GT(bundle_.wcg().edgeCount(), 0u);
    EXPECT_GT(bundle_.trgSelect().edgeCount(), 0u);
    EXPECT_GT(bundle_.trgPlace().edgeCount(), 0u);
    EXPECT_GT(bundle_.avgQueueProcs(), 1.0);
    // The TRG has at least the popular-popular interleavings the WCG
    // lacks: typically strictly more edges than popular WCG pairs.
    EXPECT_GT(bundle_.trgSelect().edgeCount(), 0u);
}

TEST_F(EvalFixture, ContextPointsIntoBundle)
{
    const PlacementContext ctx = bundle_.makeContext();
    EXPECT_EQ(ctx.program, &bundle_.program());
    EXPECT_EQ(ctx.wcg, &bundle_.wcg());
    EXPECT_EQ(ctx.trg_select, &bundle_.trgSelect());
    EXPECT_EQ(ctx.popular.size(), 50u);
    EXPECT_EQ(ctx.heat.size(), 50u);
    // Overrides replace the stored graphs.
    WeightedGraph other(50);
    const PlacementContext ctx2 = bundle_.makeContext(&other);
    EXPECT_EQ(ctx2.wcg, &other);
}

TEST_F(EvalFixture, MissRatesAreSane)
{
    const DefaultPlacement def;
    const Layout layout = def.place(bundle_.makeContext());
    const double test_mr = bundle_.testMissRate(layout);
    const double train_mr = bundle_.trainMissRate(layout);
    EXPECT_GT(test_mr, 0.0);
    EXPECT_LT(test_mr, 0.9);
    EXPECT_GT(train_mr, 0.0);
}

TEST_F(EvalFixture, GbscBeatsDefaultOnTrain)
{
    // On its own training trace, GBSC must do no worse than the
    // arbitrary default layout (the fundamental sanity requirement).
    const DefaultPlacement def;
    const Gbsc gbsc;
    const PlacementContext ctx = bundle_.makeContext();
    const double default_mr = bundle_.trainMissRate(def.place(ctx));
    const double gbsc_mr = bundle_.trainMissRate(gbsc.place(ctx));
    EXPECT_LT(gbsc_mr, default_mr);
}

TEST_F(EvalFixture, RunComparisonShapes)
{
    const PettisHansen ph;
    const Gbsc gbsc;
    ComparisonOptions opts;
    opts.repetitions = 3;
    opts.scale = 0.1;
    const auto results = runComparison(bundle_, {&ph, &gbsc}, opts);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].algorithm, "PH");
    EXPECT_EQ(results[1].algorithm, "GBSC");
    for (const AlgorithmResult &res : results) {
        EXPECT_EQ(res.perturbed.size(), 3u);
        EXPECT_GT(res.unperturbed, 0.0);
        for (double mr : res.perturbed) {
            EXPECT_GT(mr, 0.0);
            EXPECT_LT(mr, 1.0);
        }
    }
}

TEST_F(EvalFixture, ComparisonDeterministicInSeed)
{
    const Gbsc gbsc;
    ComparisonOptions opts;
    opts.repetitions = 2;
    const auto a = runComparison(bundle_, {&gbsc}, opts);
    const auto b = runComparison(bundle_, {&gbsc}, opts);
    ASSERT_EQ(a[0].perturbed.size(), b[0].perturbed.size());
    for (std::size_t i = 0; i < a[0].perturbed.size(); ++i)
        EXPECT_DOUBLE_EQ(a[0].perturbed[i], b[0].perturbed[i]);
}

TEST_F(EvalFixture, LayoutOffsetsModuloCache)
{
    const DefaultPlacement def;
    const Layout layout = def.place(bundle_.makeContext());
    const auto offsets = layoutOffsets(bundle_.program(), layout,
                                       bundle_.options().cache);
    ASSERT_EQ(offsets.size(), 50u);
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        EXPECT_LT(offsets[i], bundle_.options().cache.lineCount());
        EXPECT_EQ(offsets[i],
                  layout.startLine(static_cast<ProcId>(i), 32) % 128);
    }
}

TEST_F(EvalFixture, ConflictMetricsDiscriminateLayouts)
{
    // A GBSC layout must have a lower TRG conflict metric than the
    // default layout (that is exactly what it minimises greedily).
    const PlacementContext ctx = bundle_.makeContext();
    const DefaultPlacement def;
    const Gbsc gbsc;
    const Layout l_def = def.place(ctx);
    const Layout l_gbsc = gbsc.place(ctx);
    EXPECT_LT(trgConflictMetric(ctx, l_gbsc),
              trgConflictMetric(ctx, l_def));
    EXPECT_GE(wcgConflictMetric(ctx, l_def), 0.0);
}

TEST_F(EvalFixture, Table1RowAndPrinting)
{
    const BenchmarkCase bench = miniCase();
    const Table1Row row = computeTable1Row(bench, bundle_);
    EXPECT_EQ(row.name, "mini");
    EXPECT_EQ(row.all_count, 50u);
    EXPECT_GT(row.popular_count, 0u);
    EXPECT_GT(row.default_miss_rate, 0.0);
    EXPECT_GT(row.avg_queue_size, 0.0);
    std::ostringstream oss;
    printTable1(oss, {row});
    EXPECT_NE(oss.str().find("mini"), std::string::npos);
    EXPECT_NE(oss.str().find("Table 1"), std::string::npos);
}

TEST_F(EvalFixture, Figure5PanelPrinting)
{
    const Gbsc gbsc;
    ComparisonOptions opts;
    opts.repetitions = 2;
    const auto results = runComparison(bundle_, {&gbsc}, opts);
    std::ostringstream oss;
    printFigure5Panel(oss, "mini", 0.05, results);
    EXPECT_NE(oss.str().find("GBSC"), std::string::npos);
    EXPECT_NE(oss.str().find("default"), std::string::npos);
    EXPECT_NE(oss.str().find("fraction"), std::string::npos);
}

TEST(EvalOptionsParsing, ReadsKnobs)
{
    Options opts;
    opts.set("cache-kb", "16");
    opts.set("assoc", "2");
    opts.set("chunk-bytes", "128");
    opts.set("coverage", "0.9");
    const EvalOptions eval = evalOptionsFrom(opts);
    EXPECT_EQ(eval.cache.size_bytes, 16u * 1024u);
    EXPECT_EQ(eval.cache.associativity, 2u);
    EXPECT_EQ(eval.chunk_bytes, 128u);
    EXPECT_DOUBLE_EQ(eval.popularity.coverage, 0.9);
    EXPECT_DOUBLE_EQ(traceScaleFrom(opts), 1.0);
}

/** The profiling recipe spelled out layer by layer: the reference. */
struct ReferenceProfile
{
    PopularSet popular;
    WeightedGraph wcg;
    WeightedGraph trg_select;
    WeightedGraph trg_place;
    double avg_queue_procs = 0.0;
    PairDatabase pairs;
    std::vector<double> heat;
};

ReferenceProfile
referenceProfile(const Program &program, const Trace &trace,
                 const EvalOptions &eval)
{
    ReferenceProfile ref;
    const TraceStats stats = computeTraceStats(program, trace);
    ref.popular = selectPopular(program, stats, eval.popularity);
    const ChunkMap chunks(program, eval.chunk_bytes);
    TrgBuildOptions trg;
    trg.byte_budget = static_cast<std::uint64_t>(
        eval.q_budget_factor * eval.cache.size_bytes);
    trg.popular = &ref.popular.mask;
    if (eval.sampling.active()) {
        const SamplePlan plan = buildSamplePlan(
            program, trace, eval.cache.line_bytes, eval.sampling);
        SampledProfileResult sampled =
            buildSampledProfile(program, chunks, trace, plan, trg);
        ref.wcg = std::move(sampled.wcg);
        ref.trg_select = std::move(sampled.trg_select);
        ref.trg_place = std::move(sampled.trg_place);
        ref.avg_queue_procs = sampled.avg_queue_procs;
    } else {
        ref.wcg = buildWcg(program, trace);
        TrgBuildResult trgs = buildTrgs(program, chunks, trace, trg);
        ref.trg_select = std::move(trgs.select);
        ref.trg_place = std::move(trgs.place);
        ref.avg_queue_procs = trgs.avg_queue_procs;
    }
    if (eval.build_pairs) {
        PairBuildOptions pair;
        pair.byte_budget = trg.byte_budget;
        pair.pair_window = eval.pair_window;
        pair.popular = &ref.popular.mask;
        ref.pairs = buildPairDatabase(program, trace, pair);
        if (eval.pair_prune > 0.0)
            ref.pairs.prune(eval.pair_prune);
    }
    for (const std::uint64_t bytes : stats.bytes_fetched)
        ref.heat.push_back(static_cast<double>(bytes));
    return ref;
}

void
expectSameGraph(const WeightedGraph &got, const WeightedGraph &want,
                const char *what)
{
    EXPECT_EQ(got.nodeCount(), want.nodeCount()) << what;
    const std::vector<WeightedGraph::Edge> g = got.edges();
    const std::vector<WeightedGraph::Edge> w = want.edges();
    ASSERT_EQ(g.size(), w.size()) << what;
    for (std::size_t i = 0; i < g.size(); ++i) {
        EXPECT_EQ(g[i].u, w[i].u) << what << " edge " << i;
        EXPECT_EQ(g[i].v, w[i].v) << what << " edge " << i;
        EXPECT_EQ(g[i].weight, w[i].weight) << what << " edge " << i;
    }
}

void
expectMatchesReference(const Program &program, const Trace &trace,
                       const EvalOptions &eval)
{
    const ReferenceProfile ref = referenceProfile(program, trace, eval);
    const TraceProfile profile(program, trace, eval);
    EXPECT_EQ(profile.sampled(), eval.sampling.active());
    EXPECT_GT(ref.trg_place.edgeCount(), 0u);
    expectSameGraph(profile.wcg(), ref.wcg, "WCG");
    expectSameGraph(profile.trgSelect(), ref.trg_select, "TRG_select");
    expectSameGraph(profile.trgPlace(), ref.trg_place, "TRG_place");
    EXPECT_EQ(profile.avgQueueProcs(), ref.avg_queue_procs);

    const std::vector<PairDatabase::Entry> got = profile.pairs().entries();
    const std::vector<PairDatabase::Entry> want = ref.pairs.entries();
    EXPECT_EQ(want.empty(), !eval.build_pairs);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].p, want[i].p) << "pair entry " << i;
        EXPECT_EQ(got[i].r, want[i].r) << "pair entry " << i;
        EXPECT_EQ(got[i].s, want[i].s) << "pair entry " << i;
        EXPECT_EQ(got[i].weight, want[i].weight) << "pair entry " << i;
    }

    const PlacementContext ctx = profile.context();
    EXPECT_EQ(ctx.program, &program);
    EXPECT_EQ(ctx.cache.size_bytes, eval.cache.size_bytes);
    EXPECT_EQ(ctx.chunks, &profile.chunks());
    EXPECT_EQ(ctx.wcg, &profile.wcg());
    EXPECT_EQ(ctx.trg_select, &profile.trgSelect());
    EXPECT_EQ(ctx.trg_place, &profile.trgPlace());
    EXPECT_EQ(ctx.pairs, &profile.pairs());
    EXPECT_EQ(ctx.popular, ref.popular.mask);
    EXPECT_EQ(ctx.heat, ref.heat);
}

struct PaperTrain
{
    BenchmarkCase bench = paperBenchmark("m88ksim", 0.05);
    Trace train = synthesizeTrace(bench.model, bench.train);
};

TEST(TraceProfileParity, MicrosuiteCase)
{
    const MicroCase mc = microCase("giant_proc");
    EvalOptions eval;
    eval.cache = mc.cache;
    expectMatchesReference(mc.program, mc.trace, eval);
}

TEST(TraceProfileParity, PaperBenchmarkExact)
{
    const PaperTrain in;
    expectMatchesReference(in.bench.model.program, in.train, EvalOptions{});
}

TEST(TraceProfileParity, PaperBenchmarkSampled)
{
    const PaperTrain in;
    EvalOptions eval;
    eval.sampling.mode = SampleMode::kSimpoint;
    expectMatchesReference(in.bench.model.program, in.train, eval);
    const TraceProfile profile(in.bench.model.program, in.train, eval);
    EXPECT_GT(profile.plan().cluster_count, 0u);
}

TEST(TraceProfileParity, PaperBenchmarkWithPairs)
{
    const PaperTrain in;
    EvalOptions eval;
    eval.build_pairs = true;
    expectMatchesReference(in.bench.model.program, in.train, eval);
}

TEST(TraceProfileErrors, SampledPairsAndBadQFactorRejected)
{
    const MicroCase mc = microCase("thrash_pair");
    EvalOptions eval;
    eval.cache = mc.cache;
    const TraceProfile exact(mc.program, mc.trace, eval);
    EXPECT_THROW(exact.plan(), TopoError);

    EvalOptions sampled_pairs = eval;
    sampled_pairs.sampling.mode = SampleMode::kSimpoint;
    sampled_pairs.build_pairs = true;
    EXPECT_THROW(TraceProfile(mc.program, mc.trace, sampled_pairs),
                 TopoError);

    for (const double factor :
         {-1.0, 0.0, 1e-9, 1e30, std::nan(""), HUGE_VAL}) {
        EvalOptions bad = eval;
        bad.q_budget_factor = factor;
        EXPECT_THROW(qByteBudget(bad), TopoError) << factor;
        EXPECT_THROW(TraceProfile(mc.program, mc.trace, bad), TopoError)
            << factor;
    }
    EXPECT_EQ(qByteBudget(eval), 2u * mc.cache.size_bytes);
}

TEST(RunComparisonErrors, EmptyAlgorithmListRejected)
{
    const ProfileBundle bundle(miniCase(), miniOptions());
    EXPECT_THROW(runComparison(bundle, {}, {}), TopoError);
}

} // namespace
} // namespace topo
