/**
 * @file
 * Deterministic k-means over window feature vectors — stage 2 of the
 * representative-interval sampler (DESIGN.md §15).
 *
 * Everything is pinned for bit-identical results across --jobs values
 * and reruns (the clustering decides which trace windows get
 * simulated, so any nondeterminism here would violate the pipeline's
 * §9 determinism contract):
 *
 *  - seeded k-means++ initialisation drawn from the library Rng;
 *  - the assignment step parallelises over windows (independent
 *    writes, no accumulation), ties broken towards the lowest center
 *    index; distance sums that can no longer win stop early, which
 *    never changes the answer (DESIGN.md §15);
 *  - centroid recomputation and inertia folds run serially in window
 *    order, so FP summation order never depends on thread count;
 *  - a fixed iteration cap bounds the loop.
 */

#ifndef TOPO_SAMPLING_KMEANS_HH
#define TOPO_SAMPLING_KMEANS_HH

#include <cstdint>
#include <vector>

#include "topo/sampling/window_features.hh"

namespace topo
{

/**
 * Squared Euclidean distance between two @p dims-long rows, summed in
 * dimension order (every caller gets the same rounding).
 */
inline double
sqDistance(const double *a, const double *b, std::size_t dims)
{
    double sum = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
        const double diff = a[d] - b[d];
        sum += diff * diff;
    }
    return sum;
}

/** K-means knobs. */
struct KMeansOptions
{
    /** Seed of the k-means++ initialisation. */
    std::uint64_t seed = 42;
    /** Lloyd iteration cap (convergence usually takes far fewer). */
    std::size_t max_iterations = 50;
};

/** One clustering of the windows. */
struct KMeansResult
{
    std::size_t k = 0;
    /** Cluster index of each window. */
    std::vector<std::uint32_t> assignment;
    /** Windows per cluster. */
    std::vector<std::uint64_t> cluster_size;
    /** Row-major k x dims centroids. */
    std::vector<double> centroids;
    /** Sum of squared distances to the assigned centroid. */
    double inertia = 0.0;
    /** Lloyd iterations actually run. */
    std::size_t iterations = 0;
};

/**
 * Cluster the feature rows into exactly @p k clusters (1 <= k <=
 * windows). Deterministic for a fixed (features, k, options) triple,
 * independent of the execution layer's jobs count.
 */
KMeansResult kmeansCluster(const WindowFeatureMatrix &features,
                           std::size_t k, const KMeansOptions &options);

/**
 * Choose k automatically with a BIC-style score: sweep k upwards from
 * 1 (capped at @p max_k and the window count), score each clustering
 * by model fit (log mean squared distance) plus a parameter-count
 * penalty, and keep the minimum. The sweep stops early after two
 * consecutive worsening scores — the elbow. Each k clusters with an
 * independent child seed, so the chosen k's result is reproducible in
 * isolation.
 */
KMeansResult kmeansAuto(const WindowFeatureMatrix &features,
                        std::size_t max_k, const KMeansOptions &options);

} // namespace topo

#endif // TOPO_SAMPLING_KMEANS_HH
