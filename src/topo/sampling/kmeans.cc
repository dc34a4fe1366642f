#include "topo/sampling/kmeans.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "topo/exec/exec.hh"
#include "topo/util/error.hh"
#include "topo/util/rng.hh"

namespace topo
{

namespace
{

/**
 * Whether @p row is strictly closer to @p center than @p best_d2, or
 * exactly as close when @p wins_ties; on true, @p best_d2 becomes the
 * distance. The sum runs in sqDistance's order and stops as soon as
 * it can no longer win: every term is >= 0, and under round-to-nearest
 * adding one never makes the sum smaller, so a sum already at (or,
 * for a tie winner, past) @p best_d2 ends there too.
 */
inline bool
closerThan(const double *row, const double *center, std::size_t dims,
           bool wins_ties, double &best_d2)
{
    double sum = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
        const double diff = row[d] - center[d];
        sum += diff * diff;
        if (sum > best_d2 || (sum == best_d2 && !wins_ties))
            return false;
    }
    if (sum < best_d2 || (sum == best_d2 && wins_ties)) {
        best_d2 = sum;
        return true;
    }
    return false; // only reachable with dims == 0
}

/**
 * Seeded k-means++ initialisation: first center uniform, subsequent
 * centers D^2-sampled. Distance updates run in parallel (independent
 * per-window writes); the cumulative-sum draw is serial in window
 * order, so the chosen centers depend only on (features, k, seed).
 */
std::vector<double>
seedCenters(const WindowFeatureMatrix &features, std::size_t k, Rng &rng)
{
    const std::size_t n = features.windows;
    const std::size_t dims = features.dims;
    std::vector<double> centers(k * dims, 0.0);
    std::vector<bool> is_center(n, false);

    const std::size_t first = static_cast<std::size_t>(
        rng.nextBelow(static_cast<std::uint64_t>(n)));
    for (std::size_t d = 0; d < dims; ++d)
        centers[d] = features.row(first)[d];
    is_center[first] = true;

    std::vector<double> dist2(n,
                              std::numeric_limits<double>::infinity());
    for (std::size_t c = 1; c < k; ++c) {
        const double *latest = &centers[(c - 1) * dims];
        parallelFor(n, [&](std::size_t w) {
            const double d2 = sqDistance(features.row(w), latest, dims);
            if (d2 < dist2[w])
                dist2[w] = d2;
        });
        double total = 0.0;
        for (std::size_t w = 0; w < n; ++w)
            total += dist2[w];
        std::size_t pick = n;
        if (total > 0.0) {
            const double r = rng.nextDouble() * total;
            double cumulative = 0.0;
            for (std::size_t w = 0; w < n; ++w) {
                cumulative += dist2[w];
                if (cumulative > r) {
                    pick = w;
                    break;
                }
            }
        }
        if (pick == n) {
            // All remaining windows coincide with existing centers (or
            // FP rounding exhausted the draw): take the lowest-index
            // window that is not yet a center; duplicates are fine
            // when every window already is one.
            pick = 0;
            for (std::size_t w = 0; w < n; ++w) {
                if (!is_center[w]) {
                    pick = w;
                    break;
                }
            }
        }
        for (std::size_t d = 0; d < dims; ++d)
            centers[c * dims + d] = features.row(pick)[d];
        is_center[pick] = true;
    }
    return centers;
}

} // namespace

KMeansResult
kmeansCluster(const WindowFeatureMatrix &features, std::size_t k,
              const KMeansOptions &options)
{
    const std::size_t n = features.windows;
    const std::size_t dims = features.dims;
    require(n > 0, "kmeansCluster: no windows");
    require(k >= 1 && k <= n,
            "kmeansCluster: k must be in [1, windows]");

    Rng rng(options.seed);
    KMeansResult result;
    result.k = k;
    result.centroids = seedCenters(features, k, rng);
    result.assignment.assign(n, 0);

    std::vector<std::uint32_t> next(n, 0);
    constexpr std::size_t kChunk = 128;
    const std::size_t chunks = (n + kChunk - 1) / kChunk;
    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
        // Assignment: nearest centroid, ties to the lowest center
        // index. The window's previous center (center 0 on the first
        // pass) goes first, since it usually stays nearest and so cuts
        // the other sums short; a lower-index center then takes over
        // on an exact tie, a higher one only when strictly closer.
        // Independent writes — jobs-invariant. Windows go to the pool
        // in chunks, so each task outweighs its scheduling cost.
        parallelFor(chunks, [&](std::size_t chunk) {
            const std::size_t end = std::min(n, (chunk + 1) * kChunk);
            for (std::size_t w = chunk * kChunk; w < end; ++w) {
                const double *row = features.row(w);
                const std::uint32_t prev = result.assignment[w];
                std::uint32_t best = prev;
                double best_d2 = sqDistance(
                    row,
                    &result.centroids[static_cast<std::size_t>(prev) *
                                      dims],
                    dims);
                for (std::size_t c = 0; c < k; ++c) {
                    if (c != prev &&
                        closerThan(row, &result.centroids[c * dims],
                                   dims, c < best, best_d2))
                        best = static_cast<std::uint32_t>(c);
                }
                next[w] = best;
            }
        });
        result.iterations = iter + 1;
        const bool changed = next != result.assignment;
        std::swap(result.assignment, next);
        if (!changed && iter > 0)
            break;

        // Update: serial accumulation in window order pins the FP
        // summation order. Empty clusters keep their previous
        // centroid (they can be re-captured by a later assignment).
        std::vector<double> sums(k * dims, 0.0);
        std::vector<std::uint64_t> counts(k, 0);
        for (std::size_t w = 0; w < n; ++w) {
            const std::uint32_t c = result.assignment[w];
            const double *row = features.row(w);
            double *sum = &sums[static_cast<std::size_t>(c) * dims];
            for (std::size_t d = 0; d < dims; ++d)
                sum[d] += row[d];
            ++counts[c];
        }
        for (std::size_t c = 0; c < k; ++c) {
            if (counts[c] == 0)
                continue;
            const double inv = 1.0 / static_cast<double>(counts[c]);
            for (std::size_t d = 0; d < dims; ++d)
                result.centroids[c * dims + d] = sums[c * dims + d] * inv;
        }
        if (!changed)
            break;
    }

    result.cluster_size.assign(k, 0);
    result.inertia = 0.0;
    for (std::size_t w = 0; w < n; ++w) {
        const std::uint32_t c = result.assignment[w];
        ++result.cluster_size[c];
        result.inertia += sqDistance(
            features.row(w),
            &result.centroids[static_cast<std::size_t>(c) * dims], dims);
    }
    return result;
}

KMeansResult
kmeansAuto(const WindowFeatureMatrix &features, std::size_t max_k,
           const KMeansOptions &options)
{
    const std::size_t n = features.windows;
    require(n > 0, "kmeansAuto: no windows");
    require(max_k >= 1, "kmeansAuto: zero max_k");
    const std::size_t cap = max_k < n ? max_k : n;
    const double dn = static_cast<double>(n);
    const double dd = static_cast<double>(features.dims);

    KMeansResult best;
    double best_score = std::numeric_limits<double>::infinity();
    std::size_t worse_streak = 0;
    const Rng parent(options.seed);
    for (std::size_t k = 1; k <= cap; ++k) {
        KMeansOptions child = options;
        child.seed = parent.split(static_cast<std::uint64_t>(k)).next();
        KMeansResult candidate = kmeansCluster(features, k, child);
        // BIC-style score under a spherical-Gaussian model: the data
        // term is n * d * log(mean squared distance) — the d factor
        // matters, dropping it makes the parameter penalty dominate
        // and collapses every sweep to k = 1 — and the complexity
        // term charges (centroid params + mixture weights) * log n.
        // Lower is better; an eps floor keeps log() finite when a
        // clustering is exact.
        const double mse =
            candidate.inertia / dn > 1e-12 ? candidate.inertia / dn
                                           : 1e-12;
        const double score = dn * dd * std::log(mse) +
                             static_cast<double>(k) * (dd + 1.0) *
                                 std::log(dn);
        if (score < best_score) {
            best_score = score;
            best = std::move(candidate);
            worse_streak = 0;
        } else if (++worse_streak >= 2) {
            break;
        }
    }
    return best;
}

} // namespace topo
