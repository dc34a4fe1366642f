#include "topo/util/rng.hh"

#include <cmath>

#include "topo/util/error.hh"

namespace topo
{

namespace
{

/** SplitMix64 step; used for seeding and fingerprinting. */
std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

std::uint64_t
fingerprintMix(std::uint64_t acc, std::uint64_t value)
{
    std::uint64_t state = acc + value;
    return splitMix64(state);
}

Rng::Rng(std::uint64_t seed)
    : seed_(seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitMix64(s);
    // xoshiro's all-zero state is degenerate; SplitMix64 cannot produce
    // four zero words from any seed, but guard anyway.
    if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 &&
        state_[3] == 0) {
        state_[0] = 1;
    }
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    require(bound != 0, "Rng::nextBelow: bound must be non-zero");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (~bound + 1) % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::nextInRange(std::int64_t lo, std::int64_t hi)
{
    require(lo <= hi, "Rng::nextInRange: lo must be <= hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (span == 0) {
        // Full 64-bit range.
        return static_cast<std::int64_t>(next());
    }
    return lo + static_cast<std::int64_t>(nextBelow(span));
}

double
Rng::nextDouble()
{
    // 53 bits of mantissa.
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::nextGaussian()
{
    if (has_cached_gaussian_) {
        has_cached_gaussian_ = false;
        return cached_gaussian_;
    }
    // Box-Muller transform; avoid log(0).
    double u1 = 0.0;
    do {
        u1 = nextDouble();
    } while (u1 <= 0.0);
    const double u2 = nextDouble();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * M_PI * u2;
    cached_gaussian_ = radius * std::sin(angle);
    has_cached_gaussian_ = true;
    return radius * std::cos(angle);
}

double
Rng::nextLogNormal(double mu, double sigma)
{
    return std::exp(mu + sigma * nextGaussian());
}

bool
Rng::nextBool(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

Rng
Rng::split(std::uint64_t stream) const
{
    // Mix the original seed with the stream id through SplitMix64 twice
    // so adjacent stream ids produce unrelated child seeds.
    std::uint64_t s = seed_ ^ (0xa0761d6478bd642fULL * (stream + 1));
    std::uint64_t child = splitMix64(s);
    child ^= splitMix64(s);
    return Rng(child);
}

} // namespace topo
