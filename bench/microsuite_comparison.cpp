/**
 * @file
 * Microsuite comparison: every algorithm on every adversarial micro
 * workload, with the case's lesson printed alongside. The known-best
 * structure of each case makes this the most readable head-to-head of
 * the repository.
 */

#include <iostream>

#include "topo/cache/attribution.hh"
#include "topo/cache/simulate.hh"
#include "topo/eval/trace_profile.hh"
#include "topo/placement/cache_coloring.hh"
#include "topo/placement/gbsc.hh"
#include "topo/placement/pettis_hansen.hh"
#include "topo/util/table.hh"
#include "topo/workload/microsuite.hh"

int
main()
{
    using namespace topo;
    const DefaultPlacement def;
    const PettisHansen ph;
    const CacheColoring hkc;
    const Gbsc gbsc;

    TextTable table({"case", "cache", "default", "PH", "HKC", "GBSC",
                     "default's worst conflict"});
    std::vector<std::pair<std::string, std::string>> lessons;
    for (const MicroCase &mc : microsuite()) {
        EvalOptions eval;
        eval.cache = mc.cache;
        const TraceProfile profile(mc.program, mc.trace, eval);
        const PlacementContext ctx = profile.context();

        const FetchStream stream(mc.program, mc.trace,
                                 mc.cache.line_bytes);
        auto mr = [&](const PlacementAlgorithm &algo) {
            return fmtPercent(layoutMissRate(
                mc.program, algo.place(ctx), stream, mc.cache));
        };
        // Attribute the default layout's misses so each row also names
        // the procedure pair that thrashes before placement fixes it.
        const Layout base = def.place(ctx);
        AttributionSink sink(mc.program, base, mc.cache,
                             mc.cache.line_bytes);
        SimObservers observers;
        observers.attribution = &sink;
        simulateLayout(mc.program, base, stream, mc.cache, false,
                       &observers);
        const std::vector<ConflictPair> top = sink.topPairs(1);
        const std::string conflict =
            top.empty() ? "-"
                        : mc.program.proc(top[0].evictor).name +
                              " evicts " +
                              mc.program.proc(top[0].victim).name +
                              " x" + std::to_string(top[0].count);
        table.addRow({mc.name, mc.cache.describe(), mr(def), mr(ph),
                      mr(hkc), mr(gbsc), conflict});
        lessons.emplace_back(mc.name, mc.lesson);
    }
    table.render(std::cout,
                 "Microsuite: adversarial cases with known structure");
    std::cout << '\n';
    for (const auto &[name, lesson] : lessons)
        std::cout << "  " << name << ": " << lesson << "\n";
    return 0;
}
