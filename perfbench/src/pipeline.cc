#include "pipeline.hh"

#include <cmath>
#include <stdexcept>

#include "spans.hh"
#include "topo/cache/simulate.hh"
#include "topo/placement/cache_coloring.hh"
#include "topo/placement/gbsc.hh"
#include "topo/placement/pettis_hansen.hh"
#include "topo/profile/perturb.hh"
#include "topo/profile/wcg_builder.hh"
#include "topo/sampling/estimator.hh"
#include "topo/sampling/sampled_profile.hh"
#include "topo/workload/trace_synthesizer.hh"

namespace perfbench
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

const char *
placementSpan(const std::string &algorithm)
{
    if (algorithm == "default")
        return "placement.default";
    if (algorithm == "ph")
        return "placement.ph";
    if (algorithm == "hkc")
        return "placement.hkc";
    return "placement.gbsc";
}

topo::TrgBuildOptions
trgOptions(const topo::EvalOptions &eval, const std::vector<bool> &popular)
{
    topo::TrgBuildOptions options;
    options.byte_budget = static_cast<std::uint64_t>(
        eval.q_budget_factor * eval.cache.size_bytes);
    options.popular = &popular;
    return options;
}

} // namespace

const std::vector<std::string> &
algorithmNames()
{
    static const std::vector<std::string> names = {"default", "ph", "hkc",
                                                   "gbsc"};
    return names;
}

const topo::PlacementAlgorithm &
algorithmByName(const std::string &name)
{
    static const topo::DefaultPlacement def;
    static const topo::PettisHansen ph;
    static const topo::CacheColoring hkc;
    static const topo::Gbsc gbsc;
    if (name == "default")
        return def;
    if (name == "ph")
        return ph;
    if (name == "hkc")
        return hkc;
    if (name == "gbsc")
        return gbsc;
    throw std::invalid_argument("unknown algorithm '" + name + "'");
}

topo::BenchmarkCase
benchmarkCase(const std::string &name, double scale,
              std::optional<std::uint64_t> seed)
{
    topo::BenchmarkCase bench = topo::paperBenchmark(name, scale);
    if (seed) {
        const std::uint64_t mix = splitmix64(*seed);
        bench.train.seed = splitmix64(bench.train.seed ^ mix);
        bench.test.seed = splitmix64(bench.test.seed ^ (mix + 1));
    }
    return bench;
}

Inputs
synthesize(const topo::BenchmarkCase &bench)
{
    ScopedSpan span("workload.synthesize");
    Inputs inputs{bench, topo::synthesizeTrace(bench.model, bench.train),
                  topo::synthesizeTrace(bench.model, bench.test)};
    return inputs;
}

Profile
buildProfile(const Inputs &inputs, const topo::EvalOptions &eval)
{
    const topo::Program &program = inputs.bench.model.program;
    const bool sampled = eval.sampling.active();
    const std::uint32_t line = eval.cache.line_bytes;
    Profile profile;
    profile.inputs = &inputs;
    {
        ScopedSpan span("trace.stats");
        profile.stats = topo::computeTraceStats(program, inputs.train);
    }
    {
        ScopedSpan span("placement.popularity");
        profile.popular =
            topo::selectPopular(program, profile.stats, eval.popularity);
    }
    {
        ScopedSpan span("profile.chunk_map");
        profile.chunks.emplace(program, eval.chunk_bytes);
    }
    {
        // A sampled bundle never expands the full streams; it builds
        // empty ones, as ProfileBundle does.
        ScopedSpan span("trace.fetch_stream");
        const topo::Trace empty(program.procCount());
        profile.train_stream.emplace(program,
                                     sampled ? empty : inputs.train, line);
        profile.test_stream.emplace(program, sampled ? empty : inputs.test,
                                    line);
    }
    const topo::TrgBuildOptions trg =
        trgOptions(eval, profile.popular.mask);
    if (sampled) {
        {
            ScopedSpan span("sampling.plan");
            profile.train_plan = std::make_unique<topo::SamplePlan>(
                topo::buildSamplePlan(program, inputs.train, line,
                                      eval.sampling));
            profile.test_plan = std::make_unique<topo::SamplePlan>(
                topo::buildSamplePlan(program, inputs.test, line,
                                      eval.sampling));
        }
        ScopedSpan span("sampling.profile");
        topo::SampledProfileResult built = topo::buildSampledProfile(
            program, *profile.chunks, inputs.train, *profile.train_plan,
            trg);
        profile.wcg = std::move(built.wcg);
        profile.trg_select = std::move(built.trg_select);
        profile.trg_place = std::move(built.trg_place);
        profile.trg_proc_steps = built.proc_steps;
        return profile;
    }
    {
        ScopedSpan span("profile.wcg");
        profile.wcg = topo::buildWcg(program, inputs.train);
    }
    ScopedSpan span("profile.trg");
    topo::TrgBuildResult built =
        topo::buildTrgs(program, *profile.chunks, inputs.train, trg);
    profile.trg_select = std::move(built.select);
    profile.trg_place = std::move(built.place);
    profile.trg_proc_steps = built.proc_steps;
    return profile;
}

topo::PlacementContext
makeContext(const Profile &profile, const topo::EvalOptions &eval,
            const topo::WeightedGraph *wcg,
            const topo::WeightedGraph *trg_select,
            const topo::WeightedGraph *trg_place)
{
    const topo::Program &program = profile.inputs->bench.model.program;
    static const topo::PairDatabase no_pairs;
    topo::PlacementContext ctx;
    ctx.program = &program;
    ctx.cache = eval.cache;
    ctx.chunks = &*profile.chunks;
    ctx.wcg = wcg ? wcg : &profile.wcg;
    ctx.trg_select = trg_select ? trg_select : &profile.trg_select;
    ctx.trg_place = trg_place ? trg_place : &profile.trg_place;
    ctx.pairs = &no_pairs;
    ctx.popular = profile.popular.mask;
    ctx.heat.assign(program.procCount(), 0.0);
    for (std::size_t i = 0; i < program.procCount(); ++i)
        ctx.heat[i] = static_cast<double>(profile.stats.bytes_fetched[i]);
    return ctx;
}

Cell
runCell(const Profile &profile, const topo::EvalOptions &eval,
        const std::string &algorithm, const topo::WeightedGraph *wcg,
        const topo::WeightedGraph *trg_select,
        const topo::WeightedGraph *trg_place)
{
    const topo::Program &program = profile.inputs->bench.model.program;
    Cell cell;
    cell.algorithm = algorithm;
    {
        ScopedSpan span(placementSpan(algorithm));
        const topo::PlacementContext ctx =
            makeContext(profile, eval, wcg, trg_select, trg_place);
        cell.layout = algorithmByName(algorithm).place(ctx);
        cell.layout.validate(program, eval.cache.line_bytes);
    }
    if (profile.sampled()) {
        ScopedSpan span("sampling.estimate");
        const topo::SampledSimResult est =
            topo::estimateLayout(program, cell.layout, profile.inputs->test,
                                 *profile.test_plan, eval.cache, false);
        cell.sampled = true;
        cell.accesses = est.accesses;
        cell.est_misses = est.est_misses;
        cell.misses = static_cast<std::uint64_t>(std::llround(est.est_misses));
        cell.replayed = est.replayed_blocks;
        return cell;
    }
    ScopedSpan span("cache.replay");
    const topo::SimResult result = topo::simulateLayout(
        program, cell.layout, *profile.test_stream, eval.cache);
    cell.accesses = result.accesses;
    cell.misses = result.misses;
    cell.replayed = result.accesses;
    return cell;
}

PerturbedGraphs
perturbProfile(const Profile &profile, const topo::Rng &master,
               std::size_t ai, std::size_t rep, double scale)
{
    ScopedSpan span("profile.perturb");
    const std::uint64_t base = ai * 1000003ULL + rep;
    topo::Rng rng_wcg = master.split(base * 3 + 0);
    topo::Rng rng_sel = master.split(base * 3 + 1);
    topo::Rng rng_plc = master.split(base * 3 + 2);
    return PerturbedGraphs{topo::perturb(profile.wcg, scale, rng_wcg),
                           topo::perturb(profile.trg_select, scale, rng_sel),
                           topo::perturb(profile.trg_place, scale, rng_plc)};
}

} // namespace perfbench
