/**
 * @file
 * Undirected weighted graph over code-block ids.
 *
 * This one data structure represents all three relationship graphs the
 * paper uses: the WCG of Section 2, TRG_select (procedure granularity)
 * and TRG_place (chunk granularity) of Sections 3-4. Weights are
 * doubles because the Section 5.1 perturbation is multiplicative
 * log-normal noise.
 *
 * Storage is split into two phases matching the pipeline:
 *  - accumulation: edges live in one open-addressing FlatMap keyed by
 *    the packed pair (min(u,v) << 32) | max(u,v), so addWeight() is a
 *    single probe instead of two unordered_map operations;
 *  - placement: on first neighbor query the graph freezes into a CSR
 *    (compressed sparse row) snapshot — per-node neighbor rows sorted
 *    by id in one contiguous array — so the placement inner loops
 *    iterate cache-line-sequential memory without hashing or
 *    re-sorting. Mutation invalidates the snapshot; the next query
 *    rebuilds it.
 */

#ifndef TOPO_PROFILE_WEIGHTED_GRAPH_HH
#define TOPO_PROFILE_WEIGHTED_GRAPH_HH

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "topo/util/flat_map.hh"

namespace topo
{

/** Generic code-block identifier (procedure id or global chunk id). */
using BlockId = std::uint32_t;

/** Undirected weighted graph with O(1) expected weight lookup. */
class WeightedGraph
{
  public:
    /** An undirected edge; u < v in enumerations. */
    struct Edge
    {
        BlockId u;
        BlockId v;
        double weight;
    };

    /**
     * A node's neighbors as (id, weight) pairs sorted by id, viewing
     * the frozen CSR snapshot. Valid until the graph is next mutated.
     */
    using NeighborSpan = std::span<const std::pair<BlockId, double>>;

    WeightedGraph() = default;

    /** Construct with a fixed node count. */
    explicit WeightedGraph(std::size_t node_count);

    WeightedGraph(const WeightedGraph &other);
    WeightedGraph &operator=(const WeightedGraph &other);
    WeightedGraph(WeightedGraph &&other) noexcept;
    WeightedGraph &operator=(WeightedGraph &&other) noexcept;
    ~WeightedGraph();

    /** Number of nodes. */
    std::size_t nodeCount() const { return node_count_; }

    /** Number of distinct edges. */
    std::size_t edgeCount() const { return edges_.size(); }

    /**
     * Add @p w to the weight of edge {u, v}; creates the edge when
     * absent. Self-edges are rejected.
     */
    void addWeight(BlockId u, BlockId v, double w);

    /** Overwrite the weight of edge {u, v} (edge must exist). */
    void setWeight(BlockId u, BlockId v, double w);

    /** Weight of edge {u, v}; 0 when the edge does not exist. */
    double weight(BlockId u, BlockId v) const;

    /** True when an edge {u, v} exists. */
    bool hasEdge(BlockId u, BlockId v) const;

    /**
     * Neighbors of @p u sorted by id, served from the frozen CSR
     * snapshot (built on first query after a mutation). The sorted
     * order makes iteration safe for placement decisions and FP
     * accumulation (determinism contract, DESIGN.md §9).
     */
    NeighborSpan neighbors(BlockId u) const;

    /** All edges with u < v, sorted by (u, v). */
    std::vector<Edge> edges() const;

    /** Sum of all edge weights (each edge counted once). */
    double totalWeight() const;

    /**
     * Element-wise addition of another graph's edges, scaled by
     * @p factor. Node counts must match. This is how profiles from
     * several training inputs are combined (Section 5.1 wishes for
     * "a large enough set of different inputs"; merged profiles are
     * the practical approximation).
     */
    void addGraph(const WeightedGraph &other, double factor = 1.0);

    /** Key of edge {u, v}: (min(u, v) << 32) | max(u, v). */
    static std::uint64_t
    packEdge(BlockId u, BlockId v)
    {
        return u < v ? (static_cast<std::uint64_t>(u) << 32) | v
                     : (static_cast<std::uint64_t>(v) << 32) | u;
    }

    /**
     * Graph whose edge weights are integer counts keyed by packEdge().
     * Accumulators that only ever add 1 count in integers and convert
     * once here; double(count) equals the sum of the unit increments.
     */
    static WeightedGraph
    fromCounts(std::size_t node_count,
               const util::FlatMap<std::uint64_t, std::uint64_t> &counts);

  private:
    /** The frozen sorted-adjacency snapshot (defined in the .cc). */
    struct Csr;

    void checkNode(BlockId id) const;
    const Csr &frozen() const;
    void invalidate();

    std::size_t node_count_ = 0;
    util::FlatMap<std::uint64_t, double> edges_;
    /**
     * Lazily built CSR snapshot, published with a release CAS so
     * concurrent const readers (parallel grid cells sharing one
     * profile) all see one fully built snapshot. Mutators run before
     * the readers in every pipeline and invalidate it.
     */
    mutable std::atomic<const Csr *> csr_{nullptr};
};

} // namespace topo

#endif // TOPO_PROFILE_WEIGHTED_GRAPH_HH
