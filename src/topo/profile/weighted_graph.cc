#include "topo/profile/weighted_graph.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "topo/util/error.hh"

namespace topo
{

/**
 * CSR snapshot: entries holds every node's neighbor row back to back,
 * sorted by neighbor id within a row; offsets[u] .. offsets[u+1]
 * delimit node u's row. Each undirected edge appears in both endpoint
 * rows with the same weight.
 */
struct WeightedGraph::Csr
{
    std::vector<std::size_t> offsets;
    std::vector<std::pair<BlockId, double>> entries;
};

WeightedGraph::WeightedGraph(std::size_t node_count)
    : node_count_(node_count)
{
}

WeightedGraph::WeightedGraph(const WeightedGraph &other)
    : node_count_(other.node_count_), edges_(other.edges_)
{
}

WeightedGraph &
WeightedGraph::operator=(const WeightedGraph &other)
{
    if (this != &other) {
        invalidate();
        node_count_ = other.node_count_;
        edges_ = other.edges_;
    }
    return *this;
}

WeightedGraph::WeightedGraph(WeightedGraph &&other) noexcept
    : node_count_(other.node_count_), edges_(std::move(other.edges_)),
      csr_(other.csr_.exchange(nullptr, std::memory_order_acq_rel))
{
    other.node_count_ = 0;
}

WeightedGraph &
WeightedGraph::operator=(WeightedGraph &&other) noexcept
{
    if (this != &other) {
        invalidate();
        node_count_ = other.node_count_;
        edges_ = std::move(other.edges_);
        csr_.store(other.csr_.exchange(nullptr,
                                       std::memory_order_acq_rel),
                   std::memory_order_release);
        other.node_count_ = 0;
    }
    return *this;
}

WeightedGraph::~WeightedGraph()
{
    delete csr_.load(std::memory_order_acquire);
}

void
WeightedGraph::checkNode(BlockId id) const
{
    require(id < node_count_, "WeightedGraph: node id out of range");
}

void
WeightedGraph::invalidate()
{
    // The accumulation phase calls this per mutation; the common case
    // (no snapshot yet) must stay a plain load.
    if (csr_.load(std::memory_order_relaxed) != nullptr)
        delete csr_.exchange(nullptr, std::memory_order_acq_rel);
}

const WeightedGraph::Csr &
WeightedGraph::frozen() const
{
    const Csr *snapshot = csr_.load(std::memory_order_acquire);
    if (snapshot != nullptr)
        return *snapshot;

    auto built = std::make_unique<Csr>();
    built->offsets.assign(node_count_ + 1, 0);
    edges_.forEach([&](std::uint64_t key, double) {
        ++built->offsets[static_cast<BlockId>(key >> 32) + 1];
        ++built->offsets[static_cast<BlockId>(key) + 1];
    });
    for (std::size_t u = 0; u < node_count_; ++u)
        built->offsets[u + 1] += built->offsets[u];
    built->entries.resize(built->offsets[node_count_]);
    std::vector<std::size_t> cursor(built->offsets.begin(),
                                    built->offsets.end() - 1);
    edges_.forEach([&](std::uint64_t key, double w) {
        const BlockId lo = static_cast<BlockId>(key >> 32);
        const BlockId hi = static_cast<BlockId>(key);
        built->entries[cursor[lo]++] = {hi, w};
        built->entries[cursor[hi]++] = {lo, w};
    });
    for (std::size_t u = 0; u < node_count_; ++u) {
        std::sort(built->entries.begin() +
                      static_cast<std::ptrdiff_t>(built->offsets[u]),
                  built->entries.begin() +
                      static_cast<std::ptrdiff_t>(built->offsets[u + 1]),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
    }

    // Publish; when another thread won the race, keep its snapshot
    // (both are built from the same edge set, so they are identical).
    const Csr *expected = nullptr;
    if (csr_.compare_exchange_strong(expected, built.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        return *built.release();
    }
    return *expected;
}

void
WeightedGraph::addWeight(BlockId u, BlockId v, double w)
{
    checkNode(u);
    checkNode(v);
    require(u != v, "WeightedGraph::addWeight: self edge");
    invalidate();
    edges_[packEdge(u, v)] += w;
}

void
WeightedGraph::setWeight(BlockId u, BlockId v, double w)
{
    checkNode(u);
    checkNode(v);
    require(u != v, "WeightedGraph::setWeight: self edge");
    double *entry = edges_.find(packEdge(u, v));
    require(entry != nullptr,
            "WeightedGraph::setWeight: edge does not exist");
    invalidate();
    *entry = w;
}

double
WeightedGraph::weight(BlockId u, BlockId v) const
{
    checkNode(u);
    checkNode(v);
    return edges_.get(packEdge(u, v), 0.0);
}

bool
WeightedGraph::hasEdge(BlockId u, BlockId v) const
{
    checkNode(u);
    checkNode(v);
    return edges_.contains(packEdge(u, v));
}

WeightedGraph::NeighborSpan
WeightedGraph::neighbors(BlockId u) const
{
    checkNode(u);
    const Csr &csr = frozen();
    return NeighborSpan(csr.entries.data() + csr.offsets[u],
                        csr.offsets[u + 1] - csr.offsets[u]);
}

std::vector<WeightedGraph::Edge>
WeightedGraph::edges() const
{
    // CSR rows are sorted by neighbor and visited in node order, so
    // taking the v > u half enumerates edges already sorted by (u, v).
    const Csr &csr = frozen();
    std::vector<Edge> all;
    all.reserve(edges_.size());
    for (std::size_t u = 0; u < node_count_; ++u) {
        for (std::size_t i = csr.offsets[u]; i < csr.offsets[u + 1];
             ++i) {
            const auto &[v, w] = csr.entries[i];
            if (v > static_cast<BlockId>(u))
                all.push_back(Edge{static_cast<BlockId>(u), v, w});
        }
    }
    return all;
}

void
WeightedGraph::addGraph(const WeightedGraph &other, double factor)
{
    require(other.nodeCount() == nodeCount(),
            "WeightedGraph::addGraph: node count mismatch");
    for (const Edge &e : other.edges())
        addWeight(e.u, e.v, e.weight * factor);
}

WeightedGraph
WeightedGraph::fromCounts(
    std::size_t node_count,
    const util::FlatMap<std::uint64_t, std::uint64_t> &counts)
{
    WeightedGraph graph(node_count);
    counts.forEach([&](std::uint64_t key, std::uint64_t count) {
        graph.addWeight(static_cast<BlockId>(key >> 32),
                        static_cast<BlockId>(key),
                        static_cast<double>(count));
    });
    return graph;
}

double
WeightedGraph::totalWeight() const
{
    // Deterministic (u, v)-sorted accumulation order via the CSR.
    const Csr &csr = frozen();
    double total = 0.0;
    for (std::size_t u = 0; u < node_count_; ++u) {
        for (std::size_t i = csr.offsets[u]; i < csr.offsets[u + 1];
             ++i) {
            if (csr.entries[i].first > static_cast<BlockId>(u))
                total += csr.entries[i].second;
        }
    }
    return total;
}

} // namespace topo
