#include "topo/profile/pair_database.hh"

#include <algorithm>

#include "topo/exec/exec.hh"
#include "topo/profile/temporal_queue.hh"
#include "topo/profile/trg_builder.hh"
#include "topo/util/error.hh"

namespace topo
{

std::uint64_t
PairDatabase::key(BlockId p, BlockId r, BlockId s)
{
    require(p != r && p != s && r != s, "PairDatabase: ids must be distinct");
    require(p < (1u << 21) && r < (1u << 21) && s < (1u << 21),
            "PairDatabase: block id exceeds 21 bits");
    const BlockId lo = std::min(r, s);
    const BlockId hi = std::max(r, s);
    return (static_cast<std::uint64_t>(p) << 42) |
           (static_cast<std::uint64_t>(lo) << 21) |
           static_cast<std::uint64_t>(hi);
}

void
PairDatabase::add(BlockId p, BlockId r, BlockId s, double w)
{
    table_[key(p, r, s)] += w;
}

double
PairDatabase::get(BlockId p, BlockId r, BlockId s) const
{
    return table_.get(key(p, r, s), 0.0);
}

void
PairDatabase::merge(const PairDatabase &other)
{
    require(&other != this, "PairDatabase::merge: self merge");
    other.table_.forEach([this](std::uint64_t packed, double weight) {
        table_[packed] += weight;
    });
}

void
PairDatabase::prune(double min_weight)
{
    table_.filter([min_weight](std::uint64_t, double weight) {
        return weight >= min_weight;
    });
}

std::vector<PairDatabase::Entry>
PairDatabase::entries() const
{
    std::vector<Entry> out;
    out.reserve(table_.size());
    table_.forEach([&out](std::uint64_t packed, double weight) {
        Entry e;
        e.p = static_cast<BlockId>(packed >> 42);
        e.r = static_cast<BlockId>((packed >> 21) & ((1u << 21) - 1));
        e.s = static_cast<BlockId>(packed & ((1u << 21) - 1));
        e.weight = weight;
        out.push_back(e);
    });
    std::sort(out.begin(), out.end(), [](const Entry &a, const Entry &b) {
        if (a.p != b.p)
            return a.p < b.p;
        if (a.r != b.r)
            return a.r < b.r;
        return a.s < b.s;
    });
    return out;
}

namespace
{

std::vector<std::uint32_t>
procSizesOf(const Program &program)
{
    std::vector<std::uint32_t> sizes(program.procCount());
    for (std::size_t i = 0; i < program.procCount(); ++i)
        sizes[i] = program.proc(static_cast<ProcId>(i)).size_bytes;
    return sizes;
}

/**
 * The Section 6 walk over events [begin, end), with the queue and the
 * run-dedup state seeded to the serial walk's state at @p begin.
 */
void
collectPairs(const Program &program, const Trace &trace,
             const PairBuildOptions &options, std::size_t begin,
             std::size_t end, const std::vector<BlockId> &queue_seed,
             ProcId last, PairDatabase &db)
{
    TemporalQueue q(procSizesOf(program), options.byte_budget);
    q.loadState(queue_seed);
    std::vector<BlockId> between;
    const std::vector<TraceEvent> &events = trace.events();
    for (std::size_t n = begin; n < end; ++n) {
        const TraceEvent &ev = events[n];
        if (options.popular && !(*options.popular)[ev.proc])
            continue;
        if (ev.proc == last)
            continue;
        last = ev.proc;
        if (!q.reference(ev.proc, between))
            continue;
        // Keep only the most recent pair_window distinct blocks; those
        // are nearest the new reference and most likely still resident.
        const std::size_t count =
            std::min<std::size_t>(between.size(), options.pair_window);
        const std::size_t start = between.size() - count;
        for (std::size_t i = start; i < between.size(); ++i) {
            for (std::size_t j = i + 1; j < between.size(); ++j)
                db.add(ev.proc, between[i], between[j], 1.0);
        }
    }
}

} // namespace

PairDatabase
buildPairDatabase(const Program &program, const Trace &trace,
                  const PairBuildOptions &options)
{
    require(trace.procCount() == program.procCount(),
            "buildPairDatabase: program/trace mismatch");
    require(options.pair_window >= 2,
            "buildPairDatabase: pair window must be at least 2");

    const std::size_t shard_count = profileShardCount(trace.size());
    PairDatabase db;
    if (shard_count <= 1) {
        collectPairs(program, trace, options, 0, trace.size(), {},
                     kInvalidProc, db);
        return db;
    }

    // Reuse the TRG shard planner at procedure granularity; this walk
    // has the same popularity filter, run dedup, and queue budget.
    TrgBuildOptions plan_options;
    plan_options.byte_budget = options.byte_budget;
    plan_options.build_select = true;
    plan_options.build_place = false;
    plan_options.popular = options.popular;
    const ChunkMap plan_chunks(program);
    const std::vector<TraceShard> shards = planTraceShards(
        program, plan_chunks, trace, plan_options, shard_count);

    std::vector<PairDatabase> shard_dbs(shards.size());
    parallelFor(shards.size(), [&](std::size_t s) {
        collectPairs(program, trace, options, shards[s].begin,
                     shards[s].end, shards[s].proc_queue,
                     shards[s].last_proc, shard_dbs[s]);
    });
    for (PairDatabase &shard_db : shard_dbs)
        db.merge(shard_db);
    return db;
}

} // namespace topo
