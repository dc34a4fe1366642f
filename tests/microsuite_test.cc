/**
 * @file
 * Expected-winner tests on the adversarial microsuite: each case has
 * a known structure and the algorithms must behave accordingly.
 */

#include <gtest/gtest.h>

#include "topo/cache/simulate.hh"
#include "topo/eval/trace_profile.hh"
#include "topo/placement/cache_coloring.hh"
#include "topo/placement/gbsc.hh"
#include "topo/placement/pettis_hansen.hh"
#include "topo/util/error.hh"
#include "topo/workload/microsuite.hh"

namespace topo
{
namespace
{

EvalOptions
onCaseCache(const MicroCase &mc)
{
    EvalOptions eval;
    eval.cache = mc.cache;
    return eval;
}

/** Self-contained pipeline for one micro case. */
struct MicroPipeline
{
    MicroCase mc;
    TraceProfile profile;
    FetchStream stream;

    explicit MicroPipeline(MicroCase micro)
        : mc(std::move(micro)),
          profile(mc.program, mc.trace, onCaseCache(mc)),
          stream(mc.program, mc.trace, mc.cache.line_bytes)
    {
    }

    PlacementContext context() const { return profile.context(); }

    double
    missRate(const Layout &layout) const
    {
        return layoutMissRate(mc.program, layout, stream, mc.cache);
    }
};

TEST(Microsuite, HasAllCases)
{
    const auto cases = microsuite();
    ASSERT_EQ(cases.size(), 5u);
    for (const MicroCase &mc : cases) {
        EXPECT_FALSE(mc.trace.empty()) << mc.name;
        mc.trace.validate(mc.program);
        mc.cache.validate();
        EXPECT_FALSE(mc.lesson.empty()) << mc.name;
    }
    EXPECT_THROW(microCase("unknown"), TopoError);
    EXPECT_EQ(microCase("thrash_pair").name, "thrash_pair");
}

TEST(Microsuite, ThrashPairSolvedByEveryProfileDrivenAlgorithm)
{
    MicroPipeline pipe(microCase("thrash_pair"));
    const PlacementContext ctx = pipe.context();
    const DefaultPlacement def;
    const double default_mr = pipe.missRate(def.place(ctx));
    // Both procedures fit together: a good layout is near-zero misses.
    const PettisHansen ph;
    const CacheColoring hkc;
    const Gbsc gbsc;
    EXPECT_LT(pipe.missRate(ph.place(ctx)), 0.01);
    EXPECT_LT(pipe.missRate(hkc.place(ctx)), 0.01);
    EXPECT_LT(pipe.missRate(gbsc.place(ctx)), 0.01);
    EXPECT_GT(default_mr, 0.4); // the default layout thrashes
}

TEST(Microsuite, SiblingFanoutNeedsTemporalInformation)
{
    // Six 1KB siblings + 1KB dispatcher around a 4KB cache: someone
    // must share lines with someone. GBSC sees which siblings
    // interleave (round-robin neighbours) and must do at least as
    // well as the WCG-driven baselines, which cannot tell siblings
    // apart at all.
    MicroPipeline pipe(microCase("sibling_fanout"));
    const PlacementContext ctx = pipe.context();
    const PettisHansen ph;
    const CacheColoring hkc;
    const Gbsc gbsc;
    const double gbsc_mr = pipe.missRate(gbsc.place(ctx));
    EXPECT_LE(gbsc_mr, pipe.missRate(ph.place(ctx)));
    EXPECT_LE(gbsc_mr, pipe.missRate(hkc.place(ctx)));
}

TEST(Microsuite, PhaseFlipOverlapsAcrossPhasesOnly)
{
    // Each phase's three 2KB procedures (6KB) fit the 8KB cache; the
    // other phase may overlap them freely. GBSC must reach the
    // near-cold-only regime.
    MicroPipeline pipe(microCase("phase_flip"));
    const PlacementContext ctx = pipe.context();
    const Gbsc gbsc;
    const double gbsc_mr = pipe.missRate(gbsc.place(ctx));
    EXPECT_LT(gbsc_mr, 0.02);
}

TEST(Microsuite, GiantProcNeedsChunkInformation)
{
    // The helper must dodge the giant's two hot windows; whole-
    // procedure information cannot distinguish any alignment. GBSC
    // must reach near-zero conflict.
    MicroPipeline pipe(microCase("giant_proc"));
    const PlacementContext ctx = pipe.context();
    const Gbsc gbsc;
    const PettisHansen ph;
    const double gbsc_mr = pipe.missRate(gbsc.place(ctx));
    EXPECT_LT(gbsc_mr, 0.01);
    EXPECT_LE(gbsc_mr, pipe.missRate(ph.place(ctx)));
}

TEST(Microsuite, ColdSandwichFixedByPlacement)
{
    MicroPipeline pipe(microCase("cold_sandwich"));
    const PlacementContext ctx = pipe.context();
    const DefaultPlacement def;
    const Gbsc gbsc;
    EXPECT_GT(pipe.missRate(def.place(ctx)), 0.3);
    EXPECT_LT(pipe.missRate(gbsc.place(ctx)), 0.01);
}

} // namespace
} // namespace topo
