/**
 * @file
 * Differential tests: the production cache simulators, the
 * TemporalQueue, the whole TRG build, every layout-replay path and the
 * sampler's window features and k-means are checked against deliberately naive reference models
 * under randomised inputs. These catch subtle state bugs (LRU
 * ordering, eviction accounting, shard merging, tie-breaking) that
 * example-based tests miss.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <iterator>
#include <limits>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "topo/cache/attribution.hh"
#include "topo/cache/direct_mapped_cache.hh"
#include "topo/cache/set_associative_cache.hh"
#include "topo/cache/simulate.hh"
#include "topo/cache/taxonomy.hh"
#include "topo/exec/exec.hh"
#include "topo/obs/epoch_counter.hh"
#include "topo/obs/log.hh"
#include "topo/obs/metrics.hh"
#include "topo/obs/timeline.hh"
#include "topo/profile/temporal_queue.hh"
#include "topo/profile/trg_builder.hh"
#include "topo/sampling/kmeans.hh"
#include "topo/sampling/window_features.hh"
#include "topo/trace/fetch_stream.hh"
#include "topo/util/error.hh"
#include "topo/util/rng.hh"

namespace topo
{
namespace
{

/** Naive set-associative LRU model: per-set vector scanned linearly. */
class NaiveLruCache
{
  public:
    NaiveLruCache(std::uint32_t sets, std::uint32_t ways)
        : sets_(sets), ways_(ways), content_(sets)
    {
    }

    bool
    access(std::uint64_t addr)
    {
        auto &set = content_[addr % sets_];
        auto it = std::find(set.begin(), set.end(), addr);
        if (it != set.end()) {
            set.erase(it);
            set.push_back(addr); // most recent at the back
            return true;
        }
        if (set.size() == ways_)
            set.erase(set.begin()); // evict least recent
        set.push_back(addr);
        return false;
    }

  private:
    std::uint32_t sets_;
    std::uint32_t ways_;
    std::vector<std::vector<std::uint64_t>> content_;
};

struct CacheCase
{
    CacheConfig config;
    std::uint64_t addr_space;
};

class CacheDifferentialTest : public ::testing::TestWithParam<CacheCase>
{
};

TEST_P(CacheDifferentialTest, MatchesNaiveModelStepByStep)
{
    const CacheCase param = GetParam();
    SetAssociativeCache fast(param.config);
    NaiveLruCache naive(param.config.setCount(),
                        param.config.associativity);
    Rng rng(param.addr_space * 31 + param.config.associativity);
    for (int step = 0; step < 20000; ++step) {
        // Mix of uniform and looping traffic for realistic reuse.
        std::uint64_t addr;
        if (rng.nextBool(0.5))
            addr = rng.nextBelow(param.addr_space);
        else
            addr = step % (param.addr_space / 2 + 1);
        EXPECT_EQ(fast.access(addr), naive.access(addr))
            << "step " << step << " addr " << addr;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferentialTest,
    ::testing::Values(CacheCase{{1024, 32, 1}, 64},
                      CacheCase{{1024, 32, 2}, 64},
                      CacheCase{{2048, 32, 4}, 256},
                      CacheCase{{4096, 64, 8}, 128},
                      CacheCase{{96, 32, 1}, 10},
                      CacheCase{{192, 32, 2}, 13}));

TEST(CacheDifferential, DirectMappedAgainstNaive)
{
    const CacheConfig config{512, 32, 1};
    DirectMappedCache fast(config);
    NaiveLruCache naive(config.lineCount(), 1);
    Rng rng(99);
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t addr = rng.nextBelow(60);
        EXPECT_EQ(fast.access(addr), naive.access(addr)) << step;
    }
}

/**
 * Naive model of the Section 3 ordered set: a deque of (id) with
 * linear scans, mirroring the paper's prose directly.
 */
class NaiveQueue
{
  public:
    NaiveQueue(std::vector<std::uint32_t> sizes, std::uint64_t budget)
        : sizes_(std::move(sizes)), budget_(budget)
    {
    }

    bool
    reference(BlockId id, std::vector<BlockId> &between)
    {
        between.clear();
        auto it = std::find(entries_.begin(), entries_.end(), id);
        if (it != entries_.end()) {
            for (auto walk = it + 1; walk != entries_.end(); ++walk)
                between.push_back(*walk);
            entries_.erase(it);
            entries_.push_back(id);
            return true;
        }
        entries_.push_back(id);
        // Trim: drop the oldest while the remainder stays >= budget.
        while (!entries_.empty() &&
               totalBytes() - sizes_[entries_.front()] >= budget_) {
            entries_.erase(entries_.begin());
        }
        return false;
    }

    std::vector<BlockId>
    contents() const
    {
        return {entries_.begin(), entries_.end()};
    }

  private:
    std::uint64_t
    totalBytes() const
    {
        std::uint64_t total = 0;
        for (BlockId id : entries_)
            total += sizes_[id];
        return total;
    }

    std::vector<std::uint32_t> sizes_;
    std::uint64_t budget_;
    std::deque<BlockId> entries_;
};

class QueueDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(QueueDifferentialTest, MatchesNaiveModelStepByStep)
{
    const std::uint64_t budget = GetParam();
    const std::size_t blocks = 24;
    std::vector<std::uint32_t> sizes;
    Rng size_rng(budget);
    for (std::size_t i = 0; i < blocks; ++i) {
        sizes.push_back(
            8 + static_cast<std::uint32_t>(size_rng.nextBelow(64)));
    }
    TemporalQueue fast(sizes, budget);
    NaiveQueue naive(sizes, budget);
    Rng rng(budget * 7919 + 3);
    std::vector<BlockId> fast_between, naive_between;
    for (int step = 0; step < 20000; ++step) {
        const BlockId id = static_cast<BlockId>(rng.nextBelow(blocks));
        const bool fast_prev = fast.reference(id, fast_between);
        const bool naive_prev = naive.reference(id, naive_between);
        ASSERT_EQ(fast_prev, naive_prev) << "step " << step;
        ASSERT_EQ(fast_between, naive_between) << "step " << step;
        ASSERT_EQ(fast.contents(), naive.contents()) << "step " << step;
    }
}

INSTANTIATE_TEST_SUITE_P(Budgets, QueueDifferentialTest,
                         ::testing::Values(32u, 100u, 300u, 1000u,
                                           100000u));

/**
 * The Section 3 ordered set Q as the paper states it: a std::list in
 * reference order, searched linearly, trimmed from the oldest end while
 * the remainder still holds the byte budget.
 */
class ListQueue
{
  public:
    ListQueue(std::vector<std::uint32_t> sizes, std::uint64_t budget)
        : sizes_(std::move(sizes)), budget_(budget)
    {
    }

    /** Reference @p id; returns the blocks since its last reference. */
    std::optional<std::vector<BlockId>>
    reference(BlockId id)
    {
        const auto it = std::find(q_.begin(), q_.end(), id);
        if (it != q_.end()) {
            std::vector<BlockId> between(std::next(it), q_.end());
            q_.erase(it);
            q_.push_back(id);
            return between;
        }
        q_.push_back(id);
        bytes_ += sizes_[id];
        while (!q_.empty() && bytes_ - sizes_[q_.front()] >= budget_) {
            bytes_ -= sizes_[q_.front()];
            q_.pop_front();
            ++evictions;
        }
        return std::nullopt;
    }

    std::size_t size() const { return q_.size(); }

    std::uint64_t evictions = 0;

  private:
    std::vector<std::uint32_t> sizes_;
    std::uint64_t budget_;
    std::list<BlockId> q_;
    std::uint64_t bytes_ = 0;
};

using EdgeMap = std::map<std::pair<BlockId, BlockId>, std::uint64_t>;

struct NaiveTrg
{
    EdgeMap select;
    EdgeMap place;
    std::uint64_t proc_steps = 0;
    std::uint64_t proc_evictions = 0;
    std::uint64_t chunk_evictions = 0;
    double avg_queue_procs = 0.0;
};

void
credit(EdgeMap &edges, BlockId p, const std::vector<BlockId> &between)
{
    for (const BlockId q : between)
        ++edges[{std::min(p, q), std::max(p, q)}];
}

/**
 * TRG_select and TRG_place straight from Section 3: every popular run
 * is one reference to its procedure (skipped when it repeats the
 * previous run's procedure) and one reference to each chunk it covers
 * (skipped when it repeats the previous chunk); each reference credits
 * an edge to every block referenced since the block's last reference
 * while that reference is still in Q.
 */
NaiveTrg
naiveTrg(const Program &program, const ChunkMap &chunks, const Trace &trace,
         std::uint64_t budget, const std::vector<bool> *popular)
{
    std::vector<std::uint32_t> proc_sizes;
    for (const Procedure &p : program.procs())
        proc_sizes.push_back(p.size_bytes);
    std::vector<std::uint32_t> chunk_sizes;
    for (std::size_t c = 0; c < chunks.chunkCount(); ++c)
        chunk_sizes.push_back(
            chunks.chunkSizeBytes(static_cast<ChunkId>(c)));
    ListQueue proc_q(proc_sizes, budget);
    ListQueue chunk_q(chunk_sizes, budget);

    NaiveTrg out;
    std::optional<ProcId> last_proc;
    std::optional<ChunkId> last_chunk;
    std::uint64_t queue_sum = 0;
    for (const TraceEvent &ev : trace.events()) {
        if (popular && !(*popular)[ev.proc])
            continue;
        if (ev.proc != last_proc) {
            if (const auto between = proc_q.reference(ev.proc))
                credit(out.select, ev.proc, *between);
            ++out.proc_steps;
            queue_sum += proc_q.size();
        }
        last_proc = ev.proc;
        const std::uint32_t first = ev.offset / chunks.chunkBytes();
        const std::uint32_t last =
            (ev.offset + ev.length - 1) / chunks.chunkBytes();
        for (std::uint32_t idx = first; idx <= last; ++idx) {
            const ChunkId chunk = chunks.chunkId(ev.proc, idx);
            if (chunk == last_chunk)
                continue;
            if (const auto between = chunk_q.reference(chunk))
                credit(out.place, chunk, *between);
            last_chunk = chunk;
        }
    }
    out.proc_evictions = proc_q.evictions;
    out.chunk_evictions = chunk_q.evictions;
    out.avg_queue_procs = out.proc_steps
                              ? static_cast<double>(queue_sum) /
                                    static_cast<double>(out.proc_steps)
                              : 0.0;
    return out;
}

void
expectSameEdges(const WeightedGraph &graph, const EdgeMap &oracle,
                const char *what)
{
    const std::vector<WeightedGraph::Edge> edges = graph.edges();
    ASSERT_EQ(edges.size(), oracle.size()) << what;
    auto it = oracle.begin();
    for (const WeightedGraph::Edge &e : edges) {
        ASSERT_EQ(std::make_pair(e.u, e.v), it->first) << what;
        ASSERT_EQ(e.weight, static_cast<double>(it->second))
            << what << " edge (" << e.u << "," << e.v << ")";
        ++it;
    }
}

/**
 * A random program and a trace with drifting locality: most runs come
 * from a small working set that shifts over time, some repeat the
 * previous procedure, and a few jump anywhere, so the trace exercises
 * reuse, run and chunk de-duplication and budget eviction.
 */
struct RandomProfile
{
    Program program{"random"};
    Trace trace;
    std::vector<bool> popular;

    RandomProfile(std::uint64_t seed, std::size_t events)
    {
        Rng rng(seed);
        const std::size_t procs = 20 + rng.nextBelow(40);
        for (std::size_t p = 0; p < procs; ++p) {
            program.addProcedure(
                "p" + std::to_string(p),
                16 + static_cast<std::uint32_t>(rng.nextBelow(1500)));
        }
        trace = Trace(procs);
        ProcId proc = 0;
        for (std::size_t i = 0; i < events; ++i) {
            const std::uint64_t pick = rng.nextBelow(100);
            if (pick < 10) {
                proc = static_cast<ProcId>(rng.nextBelow(procs));
            } else if (pick >= 30) {
                const std::size_t window_base = (i / 2000) % procs;
                proc = static_cast<ProcId>(
                    (window_base + rng.nextBelow(8)) % procs);
            }
            const std::uint32_t size = program.proc(proc).size_bytes;
            const auto offset =
                static_cast<std::uint32_t>(rng.nextBelow(size));
            const auto length = static_cast<std::uint32_t>(
                1 + rng.nextBelow(size - offset));
            trace.append(proc, offset, length);
        }
        for (std::size_t p = 0; p < procs; ++p)
            popular.push_back(rng.nextBelow(10) < 7);
    }
};

class TrgOracleTest : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    void TearDown() override { setExecJobs(1); }
};

TEST_P(TrgOracleTest, BuildMatchesSection3Definition)
{
    // 4 x 8192 events: at jobs 4 every lane gets a shard.
    const RandomProfile profile(GetParam(), 4 * 8192 + 100);
    const ChunkMap chunks(profile.program, 256);
    Rng budget_rng(GetParam() ^ 0x5bd1e995u);
    const std::uint64_t budget = 1024 + budget_rng.nextBelow(8192);

    for (const bool masked : {false, true}) {
        const std::vector<bool> *mask =
            masked ? &profile.popular : nullptr;
        const NaiveTrg oracle =
            naiveTrg(profile.program, chunks, profile.trace, budget, mask);
        ASSERT_GT(oracle.select.size(), 0u);
        ASSERT_GT(oracle.place.size(), 0u);
        for (const int jobs : {1, 4}) {
            SCOPED_TRACE(testing::Message() << "masked=" << masked
                                            << " jobs=" << jobs);
            setExecJobs(jobs);
            Counter &shards =
                MetricsRegistry::current().counter("trg.shards");
            const std::uint64_t shards_before = shards.value();
            TrgBuildOptions opts;
            opts.byte_budget = budget;
            opts.popular = mask;
            const TrgBuildResult trg =
                buildTrgs(profile.program, chunks, profile.trace, opts);
            EXPECT_EQ(shards.value() - shards_before,
                      jobs == 1 ? 0u : static_cast<std::uint64_t>(jobs));
            expectSameEdges(trg.select, oracle.select, "TRG_select");
            expectSameEdges(trg.place, oracle.place, "TRG_place");
            EXPECT_EQ(trg.proc_steps, oracle.proc_steps);
            EXPECT_EQ(trg.proc_evictions, oracle.proc_evictions);
            EXPECT_EQ(trg.chunk_evictions, oracle.chunk_evictions);
            EXPECT_EQ(trg.avg_queue_procs, oracle.avg_queue_procs);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrgOracleTest,
                         ::testing::Values(1u, 2u, 3u));

/**
 * The sampler's window and clustering stages as first written, kept
 * as the reference the production code must match bit for bit: three
 * walks over the trace (block counts, global line counts, per-window
 * mix) and brute-force k-means assignment that sums every distance in
 * full and scans centres in index order.
 */
namespace reference
{

struct Windows
{
    std::uint64_t window_runs = 0;
    std::vector<std::size_t> event_begin;
    std::vector<std::uint64_t> blocks;

    std::size_t count() const { return blocks.size(); }
};

inline std::uint64_t
runLines(const TraceEvent &ev, std::uint32_t line_bytes)
{
    const std::uint32_t first = ev.offset / line_bytes;
    const std::uint32_t last = (ev.offset + ev.length - 1) / line_bytes;
    return static_cast<std::uint64_t>(last - first) + 1;
}

Windows
sliceTraceWindows(const Program &program, const Trace &trace,
                  std::uint64_t window_runs, std::uint32_t line_bytes)
{
    require(window_runs > 0, "sliceTraceWindows: zero window size");
    require(line_bytes > 0, "sliceTraceWindows: zero line size");
    require(trace.procCount() == program.procCount(),
            "sliceTraceWindows: program/trace mismatch");
    const std::size_t n = trace.size();
    const std::size_t count =
        n == 0 ? 0
               : (n + static_cast<std::size_t>(window_runs) - 1) /
                     static_cast<std::size_t>(window_runs);

    Windows windows;
    windows.window_runs = window_runs;
    windows.event_begin.resize(count + 1);
    windows.blocks.assign(count, 0);
    for (std::size_t w = 0; w <= count; ++w) {
        windows.event_begin[w] =
            std::min(n, w * static_cast<std::size_t>(window_runs));
    }
    windows.event_begin[count] = n;

    const std::vector<TraceEvent> &events = trace.events();
    parallelFor(count, [&](std::size_t w) {
        std::uint64_t blocks = 0;
        for (std::size_t i = windows.event_begin[w];
             i < windows.event_begin[w + 1]; ++i)
            blocks += runLines(events[i], line_bytes);
        windows.blocks[w] = blocks;
    });
    return windows;
}

WindowFeatureMatrix
extractWindowFeatures(const Program &program, const Trace &trace,
                      const Windows &windows, std::uint32_t line_bytes,
                      std::size_t top_procs)
{
    const std::vector<TraceEvent> &events = trace.events();
    const std::size_t proc_count = program.procCount();
    const std::size_t count = windows.count();

    std::vector<std::uint64_t> global_lines(proc_count, 0);
    for (const TraceEvent &ev : events)
        global_lines[ev.proc] += runLines(ev, line_bytes);
    std::vector<ProcId> hot(proc_count);
    for (std::size_t p = 0; p < proc_count; ++p)
        hot[p] = static_cast<ProcId>(p);
    std::sort(hot.begin(), hot.end(), [&](ProcId a, ProcId b) {
        if (global_lines[a] != global_lines[b])
            return global_lines[a] > global_lines[b];
        return a < b;
    });
    const std::size_t m = std::min(top_procs, proc_count);
    std::vector<std::uint32_t> feature_slot(proc_count,
                                            static_cast<std::uint32_t>(m));
    for (std::size_t i = 0; i < m; ++i)
        feature_slot[hot[i]] = static_cast<std::uint32_t>(i);

    WindowFeatureMatrix features;
    features.windows = count;
    features.dims = m + 4;
    features.values.assign(count * features.dims, 0.0);

    parallelFor(count, [&](std::size_t w) {
        const std::size_t begin = windows.event_begin[w];
        const std::size_t end = windows.event_begin[w + 1];
        double *row = &features.values[w * features.dims];
        std::vector<std::uint64_t> mix(m + 1, 0);
        EpochCounter distinct(proc_count);
        std::uint64_t repeats = 0;
        for (std::size_t i = begin; i < end; ++i) {
            const TraceEvent &ev = events[i];
            mix[feature_slot[ev.proc]] += runLines(ev, line_bytes);
            distinct.touch(ev.proc);
            if (i > begin && ev.proc == events[i - 1].proc)
                ++repeats;
        }
        const double lines =
            static_cast<double>(std::max<std::uint64_t>(
                windows.blocks[w], 1));
        const double runs =
            static_cast<double>(std::max<std::size_t>(end - begin, 1));
        for (std::size_t i = 0; i <= m; ++i)
            row[i] = static_cast<double>(mix[i]) / lines;
        row[m + 1] = static_cast<double>(distinct.count()) /
                     static_cast<double>(std::max<std::size_t>(
                         proc_count, 1));
        row[m + 2] = runs / lines >= 1.0 ? 1.0 : runs / lines;
        row[m + 3] = static_cast<double>(repeats) / runs;
    });
    return features;
}

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
    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
        parallelFor(n, [&](std::size_t w) {
            const double *row = features.row(w);
            std::uint32_t best = 0;
            double best_d2 =
                sqDistance(row, &result.centroids[0], dims);
            for (std::size_t c = 1; c < k; ++c) {
                const double d2 =
                    sqDistance(row, &result.centroids[c * dims], dims);
                if (d2 < best_d2) {
                    best_d2 = d2;
                    best = static_cast<std::uint32_t>(c);
                }
            }
            next[w] = best;
        });
        result.iterations = iter + 1;
        const bool changed = next != result.assignment;
        result.assignment = next;
        if (!changed && iter > 0)
            break;

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
        KMeansResult candidate =
            reference::kmeansCluster(features, k, child);
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

} // namespace reference

/** Equal bit patterns, so -0.0 vs 0.0 and rounding differences fail. */
bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
                0);
}

void
expectSameClustering(const KMeansResult &got, const KMeansResult &want)
{
    EXPECT_EQ(got.k, want.k);
    EXPECT_EQ(got.assignment, want.assignment);
    EXPECT_EQ(got.cluster_size, want.cluster_size);
    EXPECT_TRUE(sameBits(got.centroids, want.centroids));
    EXPECT_TRUE(sameBits({got.inertia}, {want.inertia}))
        << got.inertia << " vs " << want.inertia;
    EXPECT_EQ(got.iterations, want.iterations);
}

class WindowOracleTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 std::uint32_t>>
{
  protected:
    void TearDown() override { setExecJobs(1); }
};

TEST_P(WindowOracleTest, OneWalkMatchesThreePasses)
{
    const auto [seed, line_bytes] = GetParam();
    // Runs of up to ~1.5 KB span many lines at every line size.
    const RandomProfile profile(seed, 5000 + seed * 37);
    for (const std::uint64_t window_runs : {1u, 7u, 256u, 6000u}) {
        for (const std::size_t top_procs : {4u, 32u, 1000u}) {
            const reference::Windows want = reference::sliceTraceWindows(
                profile.program, profile.trace, window_runs, line_bytes);
            const WindowFeatureMatrix want_features =
                reference::extractWindowFeatures(
                    profile.program, profile.trace, want, line_bytes,
                    top_procs);
            for (const int jobs : {1, 4}) {
                SCOPED_TRACE(testing::Message()
                             << "window_runs=" << window_runs
                             << " top_procs=" << top_procs
                             << " jobs=" << jobs);
                setExecJobs(jobs);
                const TraceWindows got = buildTraceWindows(
                    profile.program, profile.trace, window_runs,
                    line_bytes, top_procs);
                EXPECT_EQ(got.window_runs, want.window_runs);
                EXPECT_EQ(got.event_begin, want.event_begin);
                EXPECT_EQ(got.blocks, want.blocks);
                EXPECT_EQ(got.features.windows, want_features.windows);
                EXPECT_EQ(got.features.dims, want_features.dims);
                EXPECT_TRUE(sameBits(got.features.values,
                                     want_features.values));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndLines, WindowOracleTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(16u, 32u, 64u)));

/**
 * Rows drawn from a coarse grid: many rows coincide and many sit
 * exactly midway between others, so distance ties between centres are
 * common and the lowest-index tie rule decides real assignments.
 */
WindowFeatureMatrix
gridFeatures(std::uint64_t seed, std::size_t windows, std::size_t dims,
             std::uint64_t steps)
{
    Rng rng(seed);
    WindowFeatureMatrix features;
    features.windows = windows;
    features.dims = dims;
    features.values.resize(windows * dims);
    for (double &v : features.values)
        v = static_cast<double>(rng.nextBelow(steps + 1)) /
            static_cast<double>(steps);
    // Explicit duplicates of earlier rows.
    for (std::size_t w = 1; w < windows; w += 5) {
        const std::size_t src = rng.nextBelow(w);
        std::copy_n(features.values.begin() + src * dims, dims,
                    features.values.begin() + w * dims);
    }
    return features;
}

/** Rows of unrounded doubles, as real window features are. */
WindowFeatureMatrix
smoothFeatures(std::uint64_t seed, std::size_t windows, std::size_t dims)
{
    Rng rng(seed);
    WindowFeatureMatrix features;
    features.windows = windows;
    features.dims = dims;
    features.values.resize(windows * dims);
    // A few blobs, so k-means has structure to find.
    std::vector<double> blobs(4 * dims);
    for (double &v : blobs)
        v = rng.nextDouble();
    for (std::size_t w = 0; w < windows; ++w) {
        const std::size_t blob = rng.nextBelow(4);
        for (std::size_t d = 0; d < dims; ++d)
            features.values[w * dims + d] =
                blobs[blob * dims + d] * (0.9 + 0.2 * rng.nextDouble());
    }
    return features;
}

class KMeansOracleTest : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    void TearDown() override { setExecJobs(1); }
};

TEST_P(KMeansOracleTest, PartialDistanceMatchesBruteForce)
{
    const std::uint64_t seed = GetParam();
    const std::vector<WindowFeatureMatrix> matrices = {
        gridFeatures(seed, 97, 1, 2),   // values {0, 0.5, 1}
        gridFeatures(seed, 150, 3, 2),
        gridFeatures(seed, 300, 6, 4),
        smoothFeatures(seed, 400, 9),
    };
    for (std::size_t i = 0; i < matrices.size(); ++i) {
        const WindowFeatureMatrix &features = matrices[i];
        KMeansOptions opts;
        opts.seed = seed * 1000 + i;
        std::vector<KMeansResult> want;
        for (const std::size_t k : {1u, 2u, 3u, 5u, 16u})
            want.push_back(reference::kmeansCluster(features, k, opts));
        want.push_back(reference::kmeansCluster(features, 97, opts));
        const KMeansResult want_auto =
            reference::kmeansAuto(features, 16, opts);
        for (const int jobs : {1, 4}) {
            SCOPED_TRACE(testing::Message()
                         << "matrix=" << i << " jobs=" << jobs);
            setExecJobs(jobs);
            std::size_t at = 0;
            for (const std::size_t k : {1u, 2u, 3u, 5u, 16u, 97u}) {
                SCOPED_TRACE(testing::Message() << "k=" << k);
                expectSameClustering(kmeansCluster(features, k, opts),
                                     want[at++]);
            }
            SCOPED_TRACE("auto");
            expectSameClustering(kmeansAuto(features, 16, opts),
                                 want_auto);
        }
    }
}

TEST_P(KMeansOracleTest, RandomTraceFeaturesMatchBruteForce)
{
    // Real window features of a random trace, through both pipelines.
    const std::uint64_t seed = GetParam();
    const RandomProfile profile(seed, 20000);
    const reference::Windows windows = reference::sliceTraceWindows(
        profile.program, profile.trace, 64, 32);
    const WindowFeatureMatrix features = reference::extractWindowFeatures(
        profile.program, profile.trace, windows, 32, 32);
    KMeansOptions opts;
    opts.seed = seed;
    const KMeansResult want = reference::kmeansAuto(features, 16, opts);
    for (const int jobs : {1, 4}) {
        SCOPED_TRACE(testing::Message() << "jobs=" << jobs);
        setExecJobs(jobs);
        expectSameClustering(kmeansAuto(features, 16, opts), want);
    }
}

TEST(KMeansOracle, TinyGridsMatchBruteForce)
{
    // Many tiny matrices on a quarter grid. After an update step the
    // centroids are exact dyadic means, so a window can end exactly
    // as far from a lower-index centre as from its previous one —
    // the case where the lower index must take over.
    for (std::uint64_t t = 0; t < 400; ++t) {
        const WindowFeatureMatrix features =
            gridFeatures(t, 6 + t % 7, 1 + t % 3, 4);
        KMeansOptions opts;
        opts.seed = t;
        for (std::size_t k = 2; k <= 4; ++k) {
            SCOPED_TRACE(testing::Message() << "t=" << t << " k=" << k);
            expectSameClustering(kmeansCluster(features, k, opts),
                                 reference::kmeansCluster(features, k,
                                                          opts));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KMeansOracleTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

/**
 * Naive replay straight from trace events and layout addresses: every
 * run fetches the lines its bytes cover, one by one, through a
 * std::list LRU per set (most recent at the front). Nothing is shared
 * with FetchStream or the production caches.
 */
struct NaiveReplay
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::vector<std::uint64_t> fetches_by_proc;
    std::vector<std::uint64_t> misses_by_proc;
    /** Distinct lines touched: every first touch is a compulsory miss. */
    std::uint64_t distinct_lines = 0;
    /** Per timeline window of window_fetches fetches: (accesses, misses). */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> windows;
};

NaiveReplay
naiveReplay(const Program &program, const Layout &layout,
            const Trace &trace, const CacheConfig &config,
            std::uint64_t window_fetches)
{
    const std::uint64_t line = config.line_bytes;
    const std::uint64_t sets = config.setCount();
    std::vector<std::list<std::uint64_t>> content(sets);
    std::set<std::uint64_t> seen;
    NaiveReplay out;
    out.fetches_by_proc.assign(program.procCount(), 0);
    out.misses_by_proc.assign(program.procCount(), 0);
    for (const TraceEvent &ev : trace.events()) {
        const std::uint64_t start = layout.address(ev.proc) + ev.offset;
        for (std::uint64_t addr = start / line;
             addr <= (start + ev.length - 1) / line; ++addr) {
            if (out.accesses % window_fetches == 0)
                out.windows.emplace_back(0, 0);
            ++out.accesses;
            ++out.fetches_by_proc[ev.proc];
            ++out.windows.back().first;
            seen.insert(addr);
            std::list<std::uint64_t> &set = content[addr % sets];
            const auto it = std::find(set.begin(), set.end(), addr);
            if (it != set.end()) {
                set.erase(it);
            } else {
                ++out.misses;
                ++out.misses_by_proc[ev.proc];
                ++out.windows.back().second;
                if (set.size() == config.associativity)
                    set.pop_back();
            }
            set.push_front(addr);
        }
    }
    out.distinct_lines = seen.size();
    return out;
}

/**
 * A random program, a line-aligned random layout with gaps, and a
 * trace mixing loops over a small working set, immediate repeats of
 * the previous run, and runs that cover whole procedures (many lines,
 * often more than the cache holds).
 */
struct RandomReplayCase
{
    Program program{"replay"};
    Layout layout;
    Trace trace;

    explicit RandomReplayCase(std::uint64_t seed)
    {
        Rng rng(seed);
        const std::size_t procs = 8 + rng.nextBelow(40);
        for (std::size_t p = 0; p < procs; ++p) {
            program.addProcedure(
                "p" + std::to_string(p),
                1 + static_cast<std::uint32_t>(rng.nextBelow(3000)));
        }
        std::vector<ProcId> order(procs);
        for (std::size_t p = 0; p < procs; ++p)
            order[p] = static_cast<ProcId>(p);
        for (std::size_t p = procs; p > 1; --p)
            std::swap(order[p - 1], order[rng.nextBelow(p)]);
        layout = Layout(procs);
        std::uint64_t next = 64 * rng.nextBelow(4);
        for (const ProcId proc : order) {
            layout.setAddress(proc, next);
            const std::uint64_t end = next + program.proc(proc).size_bytes;
            next = (end + 63) / 64 * 64 + 64 * rng.nextBelow(4);
        }

        trace = Trace(procs);
        const std::size_t events = 3000 + rng.nextBelow(2000);
        for (std::size_t i = 0; i < events; ++i) {
            const std::uint64_t pick = rng.nextBelow(100);
            if (pick < 30 && !trace.events().empty()) {
                const TraceEvent prev = trace.events().back();
                trace.append(prev.proc, prev.offset, prev.length);
                continue;
            }
            const ProcId proc = static_cast<ProcId>(
                pick < 80 ? (i / 500 + rng.nextBelow(5)) % procs
                          : rng.nextBelow(procs));
            const std::uint32_t size = program.proc(proc).size_bytes;
            if (pick >= 90) {
                trace.append(proc, 0, size);
                continue;
            }
            const auto offset =
                static_cast<std::uint32_t>(rng.nextBelow(size));
            const auto length = static_cast<std::uint32_t>(
                1 + rng.nextBelow(size - offset));
            trace.append(proc, offset, length);
        }
    }
};

/** Debug logging into a discarding sink, so the replay takes its
 *  heartbeat variant; restores the global logger on exit. */
class HeartbeatScope
{
  public:
    explicit HeartbeatScope(bool on)
        : on_(on), level_(Logger::global().level())
    {
        if (!on_)
            return;
        Logger::global().setSinks({std::make_shared<DiscardSink>()});
        Logger::global().setLevel(LogLevel::kDebug);
    }

    ~HeartbeatScope()
    {
        if (!on_)
            return;
        Logger::global().setLevel(level_);
        Logger::global().setSinks({std::make_shared<StderrSink>()});
    }

    HeartbeatScope(const HeartbeatScope &) = delete;
    HeartbeatScope &operator=(const HeartbeatScope &) = delete;

  private:
    struct DiscardSink : LogSink
    {
        void write(const LogRecord &) override {}
    };

    bool on_;
    LogLevel level_;
};

class ReplayOracleTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ReplayOracleTest, EveryPathMatchesListLru)
{
    const RandomReplayCase c(GetParam());
    constexpr std::uint64_t kWindow = 97;
    for (const CacheConfig config :
         {CacheConfig{1024, 32, 1}, CacheConfig{8192, 32, 1},
          CacheConfig{2048, 32, 2}, CacheConfig{4096, 64, 4}}) {
        const NaiveReplay want =
            naiveReplay(c.program, c.layout, c.trace, config, kWindow);
        const FetchStream stream(c.program, c.trace, config.line_bytes);
        ASSERT_EQ(stream.size(), want.accesses);
        for (const bool heartbeat : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << config.describe() << " heartbeat="
                         << heartbeat);
            const HeartbeatScope scope(heartbeat);

            const SimResult plain =
                simulateLayout(c.program, c.layout, stream, config);
            EXPECT_EQ(plain.accesses, want.accesses);
            EXPECT_EQ(plain.misses, want.misses);

            const SimResult attributed = simulateLayout(
                c.program, c.layout, stream, config, true);
            EXPECT_EQ(attributed.accesses, want.accesses);
            EXPECT_EQ(attributed.misses, want.misses);
            EXPECT_EQ(attributed.misses_by_proc, want.misses_by_proc);

            AttributionSink attribution(c.program, c.layout, config,
                                        config.line_bytes);
            TaxonomySink taxonomy(c.program, stream.programLineCount(),
                                  config);
            TimelineRecorder timeline(kWindow, c.program.procCount());
            SimObservers observers;
            observers.attribution = &attribution;
            observers.taxonomy = &taxonomy;
            observers.timeline = &timeline;
            const SimResult observed = simulateLayout(
                c.program, c.layout, stream, config, true, &observers);
            EXPECT_EQ(observed.accesses, want.accesses);
            EXPECT_EQ(observed.misses, want.misses);
            EXPECT_EQ(observed.misses_by_proc, want.misses_by_proc);
            EXPECT_EQ(attribution.fetchesByProc(), want.fetches_by_proc);
            EXPECT_EQ(attribution.missesByProc(), want.misses_by_proc);
            EXPECT_EQ(taxonomy.compulsory(), want.distinct_lines);
            EXPECT_EQ(taxonomy.compulsory() + taxonomy.capacity() +
                          taxonomy.conflict(),
                      want.misses);
            std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
            for (const TimelineSample &sample : timeline.samples())
                got.emplace_back(sample.accesses, sample.misses);
            EXPECT_EQ(got, want.windows);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayOracleTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

} // namespace
} // namespace topo
