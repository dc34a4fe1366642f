/**
 * @file
 * Report helpers shared by the bench binaries: Table 1 rows, Figure 5
 * CDF printing, and standard option handling for the experiment knobs.
 */

#ifndef TOPO_EVAL_REPORTS_HH
#define TOPO_EVAL_REPORTS_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "topo/eval/experiment.hh"
#include "topo/util/options.hh"

namespace topo
{

/** One row of the Table 1 reproduction. */
struct Table1Row
{
    std::string name;
    std::uint64_t all_size = 0;
    std::size_t all_count = 0;
    std::uint64_t popular_size = 0;
    std::size_t popular_count = 0;
    std::string train_input;
    std::uint64_t train_runs = 0;
    std::string test_input;
    std::uint64_t test_runs = 0;
    double default_miss_rate = 0.0;
    double avg_queue_size = 0.0;
};

/** Compute a Table 1 row from a benchmark's profile bundle. */
Table1Row computeTable1Row(const BenchmarkCase &bench,
                           const ProfileBundle &bundle);

/** Render a set of Table 1 rows as an aligned text table. */
void printTable1(std::ostream &os, const std::vector<Table1Row> &rows);

/**
 * Print one benchmark's Figure 5 panel: the non-perturbed miss-rate
 * table plus the sorted (miss rate, fraction <=) series per algorithm.
 */
void printFigure5Panel(std::ostream &os, const std::string &benchmark,
                       double default_miss_rate,
                       const std::vector<AlgorithmResult> &results);

/**
 * Standard evaluation options from the common command-line/environment
 * knobs: --cache-kb, --line-bytes, --assoc, --chunk-bytes, --coverage,
 * --q-factor. Fails (exit 1) on an invalid cache or Q budget.
 */
EvalOptions evalOptionsFrom(const Options &opts);

/** Trace scale from --trace-scale / TOPO_TRACE_SCALE (default 1.0). */
double traceScaleFrom(const Options &opts);

} // namespace topo

#endif // TOPO_EVAL_REPORTS_HH
