/**
 * @file
 * Differential tests: the production cache simulators, the
 * TemporalQueue and the whole TRG build are checked against
 * deliberately naive reference models under randomised traffic. These
 * catch subtle state bugs (LRU ordering, eviction accounting, shard
 * merging) that example-based tests miss.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "topo/cache/direct_mapped_cache.hh"
#include "topo/cache/set_associative_cache.hh"
#include "topo/exec/exec.hh"
#include "topo/obs/metrics.hh"
#include "topo/profile/temporal_queue.hh"
#include "topo/profile/trg_builder.hh"
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

} // namespace
} // namespace topo
