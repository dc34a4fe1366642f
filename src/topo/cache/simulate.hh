/**
 * @file
 * Layout miss-rate simulation: replay a FetchStream against a layout.
 *
 * This is the measurement instrument of every experiment in the paper:
 * given a layout (procedure base addresses) and the line-granularity
 * reference stream, count instruction-cache misses.
 *
 * A replay is a pure function of its inputs and takes milliseconds
 * per cell even at paper scale; the expensive, failure-prone work is
 * upstream (profiling), so replays are simply rerun, never
 * checkpointed.
 */

#ifndef TOPO_CACHE_SIMULATE_HH
#define TOPO_CACHE_SIMULATE_HH

#include <cstdint>
#include <vector>

#include "topo/cache/cache_config.hh"
#include "topo/program/layout.hh"
#include "topo/trace/fetch_stream.hh"

namespace topo
{

class AttributionSink;
class TaxonomySink;
class TimelineRecorder;

/** Result of a cache simulation. */
struct SimResult
{
    /** References replayed (the full stream length). */
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    /** Valid lines displaced by misses (cold fills excluded). */
    std::uint64_t evictions = 0;
    /** Per-procedure miss attribution (empty unless requested). */
    std::vector<std::uint64_t> misses_by_proc;

    /** Miss rate in [0, 1]; 0 when there were no accesses. */
    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

/**
 * Optional observation sinks fed by the replay loop. Attaching any
 * sink selects a separate instrumented instantiation of the loop, so
 * the default (unobserved) path is byte-identical with or without
 * this feature compiled in.
 */
struct SimObservers
{
    /** Per-procedure / per-set / conflict-matrix attribution. */
    AttributionSink *attribution = nullptr;
    /** 3C miss classification + reuse-distance profiling. */
    TaxonomySink *taxonomy = nullptr;
    /** Windowed miss-rate / working-set sampling. */
    TimelineRecorder *timeline = nullptr;

    bool
    any() const
    {
        return attribution != nullptr || taxonomy != nullptr ||
               timeline != nullptr;
    }
};

/**
 * Simulate a fetch stream against a layout.
 *
 * @param program       Procedure inventory.
 * @param layout        Complete layout (validated by the caller or not;
 *                      base addresses are read directly).
 * @param stream        Line-granularity reference stream; its line size
 *                      must match @p config.
 * @param config        Cache geometry (any associativity).
 * @param attribute     When true, fill SimResult::misses_by_proc.
 * @param observers     Optional attribution/taxonomy/timeline sinks.
 */
SimResult simulateLayout(const Program &program, const Layout &layout,
                         const FetchStream &stream, const CacheConfig &config,
                         bool attribute = false,
                         const SimObservers *observers = nullptr);

/**
 * Miss rate shortcut for harness code.
 */
double layoutMissRate(const Program &program, const Layout &layout,
                      const FetchStream &stream, const CacheConfig &config);

} // namespace topo

#endif // TOPO_CACHE_SIMULATE_HH
