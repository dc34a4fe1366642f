/**
 * @file
 * EpochCounter: O(1) distinct-id counting over a rolling window.
 *
 * The classic trick behind TimelineRecorder's working-set column:
 * instead of clearing a seen-set at every window boundary (O(ids) per
 * window), stamp each id with the epoch it was last seen in and bump
 * the epoch to reset. touch() is one load + compare on the hot path;
 * reset() is O(1) regardless of how many ids the window touched.
 *
 * Used by the simulation timeline (distinct procedures per window).
 */

#ifndef TOPO_OBS_EPOCH_COUNTER_HH
#define TOPO_OBS_EPOCH_COUNTER_HH

#include <cstdint>
#include <vector>

namespace topo
{

/** Distinct-id counter with O(1) window reset. */
class EpochCounter
{
  public:
    /** @param id_count Size of the id universe. */
    explicit EpochCounter(std::size_t id_count)
        : epoch_of_(id_count, 0)
    {}

    /**
     * Mark @p id as seen in the current window. Returns true exactly
     * when this is the id's first occurrence since the last reset().
     */
    bool
    touch(std::size_t id)
    {
        if (epoch_of_[id] == epoch_)
            return false;
        epoch_of_[id] = epoch_;
        ++count_;
        return true;
    }

    /** Distinct ids seen since the last reset(). */
    std::uint32_t count() const { return count_; }

    /** Start a new window; previously seen ids count again. */
    void
    reset()
    {
        ++epoch_;
        count_ = 0;
    }

  private:
    std::vector<std::uint64_t> epoch_of_;
    std::uint64_t epoch_ = 1;
    std::uint32_t count_ = 0;
};

} // namespace topo

#endif // TOPO_OBS_EPOCH_COUNTER_HH
