/**
 * @file
 * Layout explorer: compare default, PH, HKC and GBSC layouts on one
 * of the paper-suite benchmarks, with per-procedure miss attribution
 * for the worst offenders and an optional linker-script dump.
 *
 * Usage: layout_explorer [--benchmark=go] [--trace-scale=0.3]
 *                        [--cache-kb=8] [--emit-script=PATH]
 */

#include <algorithm>
#include <fstream>
#include <iostream>

#include "topo/cache/simulate.hh"
#include "topo/eval/reports.hh"
#include "topo/placement/cache_coloring.hh"
#include "topo/placement/gbsc.hh"
#include "topo/placement/pettis_hansen.hh"
#include "topo/program/layout_script.hh"
#include "topo/util/table.hh"

int
main(int argc, char **argv)
{
    using namespace topo;
    const Options opts = Options::parse(argc, argv);
    if (opts.helpRequested()) {
        std::cout << "layout_explorer --benchmark=NAME "
                     "--trace-scale=F --cache-kb=N "
                     "--emit-script=PATH\n";
        return 0;
    }
    const std::string name = opts.getString("benchmark", "go");
    const double scale = opts.getDouble("trace-scale", 0.3);
    const EvalOptions eval = evalOptionsFrom(opts);

    std::cerr << "profiling " << name << " (trace scale " << scale
              << ") ...\n";
    const BenchmarkCase bench = paperBenchmark(name, scale);
    const ProfileBundle bundle(bench, eval);
    const PlacementContext ctx = bundle.makeContext();

    const DefaultPlacement def;
    const PettisHansen ph;
    const CacheColoring hkc;
    const Gbsc gbsc;

    TextTable table({"algorithm", "test MR", "train MR",
                     "text extent"});
    Layout best = def.place(ctx);
    double best_mr = bundle.testMissRate(best);
    for (const PlacementAlgorithm *algo :
         std::initializer_list<const PlacementAlgorithm *>{&def, &ph,
                                                           &hkc, &gbsc}) {
        const Layout layout = algo->place(ctx);
        const double mr = bundle.testMissRate(layout);
        table.addRow({algo->name(), fmtPercent(mr),
                      fmtPercent(bundle.trainMissRate(layout)),
                      fmtBytes(layout.extent(bundle.program()))});
        if (mr < best_mr) {
            best_mr = mr;
            best = layout;
        }
    }
    table.render(std::cout, "Layouts for " + name + " on " +
                                eval.cache.describe());

    // Per-procedure misses of the winning layout.
    const SimResult detail = simulateLayout(
        bundle.program(), best, bundle.testStream(), eval.cache, true);
    std::vector<std::pair<std::uint64_t, ProcId>> offenders;
    for (ProcId i = 0; i < bundle.program().procCount(); ++i)
        offenders.emplace_back(detail.misses_by_proc[i], i);
    std::sort(offenders.rbegin(), offenders.rend());
    TextTable worst({"procedure", "misses", "share of all misses"});
    for (int i = 0; i < 8 && offenders[i].first > 0; ++i) {
        worst.addRow(
            {bundle.program().proc(offenders[i].second).name,
             std::to_string(offenders[i].first),
             fmtPercent(static_cast<double>(offenders[i].first) /
                        static_cast<double>(detail.misses))});
    }
    std::cout << '\n';
    worst.render(std::cout, "Top miss contributors (best layout)");

    const std::string script_path = opts.getString("emit-script", "");
    if (!script_path.empty()) {
        std::ofstream os(script_path);
        writeLinkerScript(os, bundle.program(), best,
                          eval.cache.line_bytes);
        std::cout << "\nwrote linker script to " << script_path << "\n";
    }
    return 0;
}
