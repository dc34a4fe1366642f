/**
 * @file
 * Deterministic random number generation for libtopo.
 *
 * All randomness in the library flows through Rng so that every
 * experiment is exactly reproducible from a single 64-bit seed. The
 * generator is xoshiro256** seeded through SplitMix64, which is both
 * fast and statistically strong for simulation purposes.
 */

#ifndef TOPO_UTIL_RNG_HH
#define TOPO_UTIL_RNG_HH

#include <array>
#include <cstdint>
#include <vector>

namespace topo
{

/**
 * Deterministic pseudo-random number generator (xoshiro256**).
 *
 * Satisfies the essential parts of the UniformRandomBitGenerator
 * concept so it can also be handed to standard library facilities.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Smallest value next() can return. */
    static constexpr result_type min() { return 0; }
    /** Largest value next() can return. */
    static constexpr result_type max() { return ~0ULL; }

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Callable form required by UniformRandomBitGenerator. */
    result_type operator()() { return next(); }

    /** Uniform integer in [0, bound); bound must be non-zero. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive; requires lo <= hi. */
    std::int64_t nextInRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Standard normal variate (Box-Muller, internally cached). */
    double nextGaussian();

    /**
     * Log-normal variate exp(mu + sigma * N(0,1)).
     *
     * @param mu    Mean of the underlying normal.
     * @param sigma Standard deviation of the underlying normal.
     */
    double nextLogNormal(double mu, double sigma);

    /** Bernoulli trial with success probability p (clamped to [0,1]). */
    bool nextBool(double p);

    /** Fisher-Yates shuffle of a vector, in place. */
    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        for (std::size_t i = items.size(); i > 1; --i) {
            std::size_t j = nextBelow(i);
            std::swap(items[i - 1], items[j]);
        }
    }

    /**
     * Derive an independent child generator. Used to give each
     * experiment repetition its own stream without coupling to how many
     * draws earlier repetitions consumed.
     *
     * @param stream Identifier of the child stream.
     */
    Rng split(std::uint64_t stream) const;

  private:
    std::array<std::uint64_t, 4> state_;
    double cached_gaussian_ = 0.0;
    bool has_cached_gaussian_ = false;
    std::uint64_t seed_;
};

/**
 * Mix one value into a running fingerprint: one SplitMix64 step from
 * state acc + value. Start from 0 and fold in every quantity the
 * fingerprint should cover. Pinned by known vectors in util_test.
 */
std::uint64_t fingerprintMix(std::uint64_t acc, std::uint64_t value);

} // namespace topo

#endif // TOPO_UTIL_RNG_HH
