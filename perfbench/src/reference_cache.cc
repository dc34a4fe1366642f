#include "reference_cache.hh"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace perfbench
{

ReferenceResult
referenceReplay(const topo::Program &program, const topo::Layout &layout,
                const topo::Trace &trace, const topo::CacheConfig &cache,
                std::size_t begin, std::size_t end)
{
    if (cache.policy != topo::ReplacementPolicy::kLru)
        throw std::runtime_error("reference cache models LRU only");
    const std::uint64_t line = cache.line_bytes;
    const std::uint64_t ways = cache.associativity;
    const std::uint64_t sets = cache.size_bytes / line / ways;
    if (line == 0 || ways == 0 || sets == 0)
        throw std::runtime_error("reference cache: bad geometry");

    // tags[set * ways + w] holds a line address; age[] the time of its
    // last touch (0 = never filled, so empty ways are used first).
    std::vector<std::uint64_t> tags(sets * ways, 0);
    std::vector<std::uint64_t> age(sets * ways, 0);
    std::uint64_t clock = 0;

    ReferenceResult result;
    const auto &events = trace.events();
    end = std::min(end, events.size());
    for (std::size_t i = begin; i < end; ++i) {
        const topo::TraceEvent &ev = events[i];
        if (ev.length == 0 ||
            std::uint64_t{ev.offset} + ev.length >
                program.proc(ev.proc).size_bytes)
            throw std::runtime_error("reference cache: run out of bounds");
        const std::uint64_t start = layout.address(ev.proc) + ev.offset;
        const std::uint64_t first = start / line;
        const std::uint64_t last = (start + ev.length - 1) / line;
        for (std::uint64_t addr = first; addr <= last; ++addr) {
            ++result.accesses;
            ++clock;
            const std::uint64_t base = (addr % sets) * ways;
            std::uint64_t victim = base;
            bool hit = false;
            for (std::uint64_t w = base; w < base + ways; ++w) {
                if (age[w] != 0 && tags[w] == addr) {
                    age[w] = clock;
                    hit = true;
                    break;
                }
                if (age[w] < age[victim])
                    victim = w;
            }
            if (!hit) {
                ++result.misses;
                tags[victim] = addr;
                age[victim] = clock;
            }
        }
    }
    return result;
}

} // namespace perfbench
