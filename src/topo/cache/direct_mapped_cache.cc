#include "topo/cache/direct_mapped_cache.hh"

#include <limits>

#include "topo/util/error.hh"

namespace topo
{

namespace
{

bool
isPowerOfTwo(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // namespace

DirectMappedCache::DirectMappedCache(const CacheConfig &config)
    : config_(config)
{
    config_.validate();
    require(config_.associativity == 1,
            "DirectMappedCache: configuration is not direct-mapped");
    frames_.assign(config_.lineCount(),
                   std::numeric_limits<std::uint64_t>::max());
    mask_ = isPowerOfTwo(frames_.size()) ? frames_.size() - 1 : 0;
}

void
DirectMappedCache::reset()
{
    frames_.assign(frames_.size(),
                   std::numeric_limits<std::uint64_t>::max());
}

std::uint64_t
DirectMappedCache::validLineCount() const
{
    std::uint64_t valid = 0;
    for (const std::uint64_t frame : frames_) {
        if (frame != kInvalidFrame)
            ++valid;
    }
    return valid;
}

} // namespace topo
