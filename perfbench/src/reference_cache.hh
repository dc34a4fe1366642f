/**
 * @file
 * Naive instruction-cache reference simulator, the benchmark's
 * independent output check.
 *
 * It shares no code with src/topo/cache or the FetchStream: it walks
 * the trace's runs itself, maps each touched line through the layout's
 * byte addresses, and looks it up in a plain tag array with true-LRU
 * ways. Every reference is simulated; nothing is elided.
 */

#ifndef PERFBENCH_REFERENCE_CACHE_HH
#define PERFBENCH_REFERENCE_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <limits>

#include "topo/cache/cache_config.hh"
#include "topo/program/layout.hh"
#include "topo/program/program.hh"
#include "topo/trace/trace.hh"

namespace perfbench
{

struct ReferenceResult
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

/**
 * Replay trace events [begin, end) from a cold cache. Only LRU
 * replacement is modelled (the paper's caches are direct-mapped or
 * LRU); other policies are rejected.
 */
ReferenceResult
referenceReplay(const topo::Program &program, const topo::Layout &layout,
                const topo::Trace &trace, const topo::CacheConfig &cache,
                std::size_t begin = 0,
                std::size_t end = std::numeric_limits<std::size_t>::max());

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_CACHE_HH
