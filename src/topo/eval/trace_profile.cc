#include "topo/eval/trace_profile.hh"

#include <sstream>

#include "topo/util/error.hh"

namespace topo
{

std::uint64_t
qByteBudget(const EvalOptions &options)
{
    const double budget =
        options.q_budget_factor * options.cache.size_bytes;
    // Written so that NaN fails too; 0, negative and infinite factors
    // all land outside the range.
    if (!(budget >= 1.0 && budget <= 0x1p53)) {
        std::ostringstream msg;
        msg << "--q-factor must be finite and > 0 and give a Q budget "
               "of 1 to 2^53 bytes (got "
            << options.q_budget_factor << " x a "
            << options.cache.size_bytes << "-byte cache)";
        fail(msg.str());
    }
    return static_cast<std::uint64_t>(budget);
}

TraceProfile::TraceProfile(const Program &program, const Trace &trace,
                           const EvalOptions &options)
    : program_(&program),
      options_(options),
      stats_(computeTraceStats(program, trace)),
      popular_(selectPopular(program, stats_, options.popularity)),
      chunks_(program, options.chunk_bytes)
{
    options_.cache.validate();
    TrgBuildOptions trg;
    trg.byte_budget = qByteBudget(options_);
    trg.popular = &popular_.mask;
    PairBuildOptions pair;
    pair.byte_budget = trg.byte_budget;
    pair.pair_window = options_.pair_window;
    pair.popular = &popular_.mask;
    if (options_.sampling.active()) {
        plan_ = std::make_unique<SamplePlan>(
            buildSamplePlan(program, trace, options_.cache.line_bytes,
                            options_.sampling));
    }
    graphs_ = buildProfileGraphs(program, chunks_, trace, plan_.get(), trg,
                                 options_.build_pairs ? &pair : nullptr);
    if (options_.build_pairs && options_.pair_prune > 0.0)
        graphs_.pairs.prune(options_.pair_prune);
}

const SamplePlan &
TraceProfile::plan() const
{
    require(sampled(), "TraceProfile: plan() on an exact profile");
    return *plan_;
}

PlacementContext
TraceProfile::context(const WeightedGraph *wcg,
                      const WeightedGraph *trg_select,
                      const WeightedGraph *trg_place) const
{
    PlacementContext ctx;
    ctx.program = program_;
    ctx.cache = options_.cache;
    ctx.chunks = &chunks_;
    ctx.wcg = wcg ? wcg : &graphs_.wcg;
    ctx.trg_select = trg_select ? trg_select : &graphs_.trgs.select;
    ctx.trg_place = trg_place ? trg_place : &graphs_.trgs.place;
    ctx.pairs = &graphs_.pairs;
    ctx.popular = popular_.mask;
    ctx.heat.assign(program_->procCount(), 0.0);
    for (std::size_t i = 0; i < program_->procCount(); ++i)
        ctx.heat[i] = static_cast<double>(stats_.bytes_fetched[i]);
    return ctx;
}

} // namespace topo
