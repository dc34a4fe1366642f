#include "topo/profile/trg_accumulator.hh"

#include "topo/util/error.hh"

namespace topo
{

namespace
{

std::vector<std::uint32_t>
procSizes(const Program &program)
{
    std::vector<std::uint32_t> sizes(program.procCount());
    for (std::size_t i = 0; i < program.procCount(); ++i)
        sizes[i] = program.proc(static_cast<ProcId>(i)).size_bytes;
    return sizes;
}

std::vector<std::uint32_t>
chunkSizes(const ChunkMap &chunks)
{
    std::vector<std::uint32_t> sizes(chunks.chunkCount());
    for (std::size_t c = 0; c < chunks.chunkCount(); ++c)
        sizes[c] = chunks.chunkSizeBytes(static_cast<ChunkId>(c));
    return sizes;
}

} // namespace

TrgAccumulator::TrgAccumulator(const Program &program,
                               const ChunkMap &chunks,
                               const TrgBuildOptions &options)
    : program_(program),
      chunks_(chunks),
      options_(options),
      select_nodes_(options.build_select ? program.procCount() : 0),
      place_nodes_(options.build_place ? chunks.chunkCount() : 0),
      proc_q_(procSizes(program), options.byte_budget),
      chunk_q_(chunkSizes(chunks), options.byte_budget),
      last_chunk_(static_cast<ChunkId>(~0u))
{
    require(options_.byte_budget > 0, "TrgAccumulator: zero byte budget");
    if (options_.popular) {
        require(options_.popular->size() == program.procCount(),
                "TrgAccumulator: popularity mask size mismatch");
    }
    reset();
}

void
TrgAccumulator::reset()
{
    result_ = TrgBuildResult{};
    select_counts_ = EdgeCounts{};
    place_counts_ = EdgeCounts{};
    proc_q_.clear();
    chunk_q_.clear();
    queue_size_sum_ = 0;
    merged_proc_evictions_ = 0;
    merged_chunk_evictions_ = 0;
    last_proc_ = kInvalidProc;
    last_chunk_ = static_cast<ChunkId>(~0u);
}

void
TrgAccumulator::seedState(const std::vector<BlockId> &proc_queue,
                          const std::vector<BlockId> &chunk_queue,
                          ProcId last_proc, ChunkId last_chunk)
{
    require(result_.proc_steps == 0 && queue_size_sum_ == 0 &&
                proc_q_.size() == 0 && chunk_q_.size() == 0,
            "TrgAccumulator::seedState: session already started");
    proc_q_.loadState(proc_queue);
    chunk_q_.loadState(chunk_queue);
    last_proc_ = last_proc;
    last_chunk_ = last_chunk;
}

void
TrgAccumulator::merge(const TrgAccumulator &other)
{
    require(&other != this, "TrgAccumulator::merge: self merge");
    require(other.options_.build_select == options_.build_select &&
                other.options_.build_place == options_.build_place &&
                other.options_.byte_budget == options_.byte_budget,
            "TrgAccumulator::merge: incompatible build options");
    require(other.select_nodes_ == select_nodes_ &&
                other.place_nodes_ == place_nodes_,
            "TrgAccumulator::merge: node count mismatch");
    other.select_counts_.forEach([this](std::uint64_t key,
                                        std::uint64_t count) {
        select_counts_[key] += count;
    });
    other.place_counts_.forEach([this](std::uint64_t key,
                                       std::uint64_t count) {
        place_counts_[key] += count;
    });
    result_.proc_steps += other.result_.proc_steps;
    queue_size_sum_ += other.queue_size_sum_;
    merged_proc_evictions_ +=
        other.merged_proc_evictions_ + other.proc_q_.evictionCount();
    merged_chunk_evictions_ +=
        other.merged_chunk_evictions_ + other.chunk_q_.evictionCount();
}

void
TrgAccumulator::onRun(ProcId proc, std::uint32_t offset,
                      std::uint32_t length)
{
    require(proc < program_.procCount(), "TrgAccumulator: invalid proc");
    require(length > 0, "TrgAccumulator: zero-length run");
    require(static_cast<std::uint64_t>(offset) + length <=
                program_.proc(proc).size_bytes,
            "TrgAccumulator: run exceeds procedure bounds");
    if (options_.popular && !(*options_.popular)[proc])
        return;

    const bool need_proc_pass = options_.build_select ||
                                static_cast<bool>(options_.observer);
    if (need_proc_pass && proc != last_proc_) {
        const bool had_prev = proc_q_.reference(proc, between_);
        if (had_prev && options_.build_select) {
            for (BlockId q : between_)
                ++select_counts_[WeightedGraph::packEdge(proc, q)];
        }
        ++result_.proc_steps;
        queue_size_sum_ += proc_q_.size();
        if (options_.observer)
            options_.observer(proc, had_prev, between_, proc_q_);
    }
    last_proc_ = proc;

    if (options_.build_place) {
        const std::uint32_t chunk_bytes = chunks_.chunkBytes();
        const std::uint32_t first = offset / chunk_bytes;
        const std::uint32_t last = (offset + length - 1) / chunk_bytes;
        for (std::uint32_t idx = first; idx <= last; ++idx) {
            const ChunkId chunk = chunks_.chunkId(proc, idx);
            if (chunk == last_chunk_)
                continue;
            const bool had_prev = chunk_q_.reference(chunk, between_);
            if (had_prev) {
                for (BlockId q : between_)
                    ++place_counts_[WeightedGraph::packEdge(chunk, q)];
            }
            last_chunk_ = chunk;
        }
    }
}

void
TrgAccumulator::onTrace(const Trace &trace)
{
    require(trace.procCount() == program_.procCount(),
            "TrgAccumulator: program/trace mismatch");
    for (const TraceEvent &ev : trace.events())
        onRun(ev.proc, ev.offset, ev.length);
}

TrgBuildResult
TrgAccumulator::take()
{
    result_.avg_queue_procs =
        result_.proc_steps
            ? static_cast<double>(queue_size_sum_) /
                  static_cast<double>(result_.proc_steps)
            : 0.0;
    result_.proc_evictions =
        merged_proc_evictions_ + proc_q_.evictionCount();
    result_.chunk_evictions =
        merged_chunk_evictions_ + chunk_q_.evictionCount();
    result_.select =
        WeightedGraph::fromCounts(select_nodes_, select_counts_);
    result_.place = WeightedGraph::fromCounts(place_nodes_, place_counts_);
    TrgBuildResult out = std::move(result_);
    reset();
    return out;
}

} // namespace topo
