#include "topo/placement/placement.hh"

#include <algorithm>
#include <numeric>

#include "topo/placement/cache_coloring.hh"
#include "topo/placement/decision_log.hh"
#include "topo/placement/gbsc.hh"
#include "topo/placement/pettis_hansen.hh"
#include "topo/util/error.hh"
#include "topo/util/rng.hh"
#include "topo/util/string_utils.hh"

namespace topo
{

namespace
{

/** Trivial per-procedure kPlace records for a finished layout. */
void
recordWholeLayout(const PlacementContext &ctx, const Layout &layout,
                  const char *stage, const char *tie_break)
{
    if (!ctx.decisions)
        return;
    for (ProcId p : layout.orderByAddress())
        ctx.decisions->recordPlace(stage, p, layout.address(p),
                                   ctx.heatOf(p), tie_break);
}

struct NamedPlacement
{
    const char *name;
    const PlacementAlgorithm *algorithm;
};

/** The name -> algorithm table, in the paper's comparison order. */
const std::vector<NamedPlacement> &
placementTable()
{
    static const DefaultPlacement def;
    static const PettisHansen ph;
    static const CacheColoring hkc;
    static const Gbsc gbsc;
    static const std::vector<NamedPlacement> table = {
        {"default", &def}, {"ph", &ph}, {"hkc", &hkc}, {"gbsc", &gbsc}};
    return table;
}

} // namespace

const std::vector<std::string> &
placementNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const NamedPlacement &entry : placementTable())
            out.emplace_back(entry.name);
        return out;
    }();
    return names;
}

const PlacementAlgorithm &
placementByName(const std::string &name)
{
    for (const NamedPlacement &entry : placementTable()) {
        if (name == entry.name)
            return *entry.algorithm;
    }
    // Names are 2-7 letters, so allow less slack than for options.
    const std::string hint = closestMatch(name, placementNames(), 2);
    std::string msg = "unknown placement algorithm '" + name + "'";
    if (!hint.empty())
        msg += " (did you mean '" + hint + "'?)";
    msg += "; known:";
    for (const std::string &known : placementNames())
        msg += " " + known;
    fail(msg);
}

void
PlacementContext::requireBasics(const std::string &who) const
{
    require(program != nullptr, who + ": context has no program");
    cache.validate();
    if (!popular.empty()) {
        require(popular.size() == program->procCount(),
                who + ": popularity mask size mismatch");
    }
    if (!heat.empty()) {
        require(heat.size() == program->procCount(),
                who + ": heat vector size mismatch");
    }
}

Layout
DefaultPlacement::place(const PlacementContext &ctx) const
{
    ctx.requireBasics("DefaultPlacement");
    Layout layout = Layout::defaultOrder(*ctx.program,
                                         ctx.cache.line_bytes);
    recordWholeLayout(ctx, layout, "default.emit", "source-order");
    return layout;
}

Layout
RandomPlacement::place(const PlacementContext &ctx) const
{
    ctx.requireBasics("RandomPlacement");
    std::vector<ProcId> order(ctx.program->procCount());
    std::iota(order.begin(), order.end(), 0);
    Rng rng(seed_);
    rng.shuffle(order);
    Layout layout = Layout::fromOrder(*ctx.program, order,
                                      ctx.cache.line_bytes);
    recordWholeLayout(ctx, layout, "random.emit", "seeded-shuffle");
    return layout;
}

std::vector<ProcId>
procsByHeat(const PlacementContext &ctx)
{
    std::vector<ProcId> order(ctx.program->procCount());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&ctx](ProcId a, ProcId b) {
                         const double ha = ctx.heatOf(a);
                         const double hb = ctx.heatOf(b);
                         if (ha != hb)
                             return ha > hb;
                         return a < b;
                     });
    return order;
}

} // namespace topo
