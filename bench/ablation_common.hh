/**
 * @file
 * Shared helper for the ablation benches: run GBSC (and the default
 * layout for reference) on a set of benchmarks under one EvalOptions
 * configuration and report test-input miss rates.
 */

#ifndef TOPO_ABLATION_COMMON_HH
#define TOPO_ABLATION_COMMON_HH

#include <iostream>
#include <string>
#include <vector>

#include "topo/eval/reports.hh"
#include "topo/placement/gbsc.hh"
#include "topo/util/table.hh"

namespace topo::bench
{

/** Benchmarks used by the ablations (fast, representative subset). */
inline std::vector<std::string>
ablationBenchmarks(const Options &opts)
{
    const std::string only = opts.getString("benchmark", "");
    if (!only.empty())
        return {only};
    return {"go", "perl", "vortex"};
}

/** GBSC test miss rate for one benchmark under one configuration. */
inline double
gbscMissRate(const BenchmarkCase &bench, const EvalOptions &eval)
{
    const ProfileBundle bundle(bench, eval);
    const Gbsc gbsc;
    return bundle.testMissRate(gbsc.place(bundle.makeContext()));
}

} // namespace topo::bench

#endif // TOPO_ABLATION_COMMON_HH
