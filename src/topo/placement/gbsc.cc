#include "topo/placement/gbsc.hh"

#include <algorithm>
#include <map>
#include <numeric>

#include "topo/obs/log.hh"
#include "topo/obs/metrics.hh"
#include "topo/obs/phase_timer.hh"
#include "topo/placement/decision_log.hh"
#include "topo/placement/gap_fill.hh"
#include "topo/placement/merge_graph.hh"
#include "topo/util/error.hh"

namespace topo
{

namespace
{

/**
 * Chunk occupancy of a node: chunk id -> cache-line colours. Ordered
 * map: alignmentCost iterates this into a floating-point cost
 * accumulation, so the iteration order must be deterministic (hash
 * order would make the best-offset argmin depend on insertion history
 * — the DESIGN.md §9 determinism contract forbids that).
 */
using ChunkColors = std::map<ChunkId, std::vector<std::uint32_t>>;

/** Derive the chunk/colour occupancy of a node's current layout. */
ChunkColors
chunkColors(const PlacementContext &ctx, const GbscNode &node)
{
    const std::uint32_t cache_lines = ctx.cache.lineCount();
    const std::uint32_t line_bytes = ctx.cache.line_bytes;
    ChunkColors colors;
    for (const auto &[proc, offset] : node.procs) {
        const std::uint32_t len =
            ctx.program->sizeInLines(proc, line_bytes);
        for (std::uint32_t line = 0; line < len; ++line) {
            const ChunkId chunk =
                ctx.chunks->chunkAtLine(proc, line, line_bytes);
            const std::uint32_t color = (offset + line) % cache_lines;
            colors[chunk].push_back(color);
        }
    }
    return colors;
}

void
requireGbscInputs(const PlacementContext &ctx, const std::string &who)
{
    ctx.requireBasics(who);
    require(ctx.chunks != nullptr, who + ": context has no chunk map");
    require(ctx.trg_place != nullptr, who + ": context has no TRG_place");
    require(ctx.trg_place->nodeCount() == ctx.chunks->chunkCount(),
            who + ": TRG_place node count does not match the chunk map");
}

} // namespace

std::vector<double>
Gbsc::alignmentCost(const PlacementContext &ctx, const GbscNode &n1,
                    const GbscNode &n2, std::uint32_t modulus)
{
    requireGbscInputs(ctx, "Gbsc::alignmentCost");
    require(modulus > 0, "Gbsc::alignmentCost: zero modulus");
    const WeightedGraph &trg_place = *ctx.trg_place;

    const ChunkColors colors1 = chunkColors(ctx, n1);
    const ChunkColors colors2 = chunkColors(ctx, n2);

    // Sparse Figure 4 cost accumulation: iterate TRG_place edges from
    // the smaller node's chunks; each crossing edge credits its weight
    // to every relative offset placing the two chunks in one frame.
    std::vector<double> cost(modulus, 0.0);
    const bool iterate_first = colors1.size() <= colors2.size();
    const ChunkColors &mine = iterate_first ? colors1 : colors2;
    const ChunkColors &theirs = iterate_first ? colors2 : colors1;
    for (const auto &[chunk, my_colors] : mine) {
        for (const auto &[other, weight] : trg_place.neighbors(chunk)) {
            auto it = theirs.find(other);
            if (it == theirs.end())
                continue;
            for (const std::uint32_t a : my_colors) {
                for (const std::uint32_t b : it->second) {
                    // Offset i shifts n2: a collision needs
                    // (colour_in_n2 + i) == colour_in_n1 (mod modulus).
                    const std::uint32_t in_n1 = iterate_first ? a : b;
                    const std::uint32_t in_n2 = iterate_first ? b : a;
                    const std::uint32_t i =
                        (in_n1 % modulus + modulus - in_n2 % modulus) %
                        modulus;
                    cost[i] += weight;
                }
            }
        }
    }
    return cost;
}

GbscNode
Gbsc::mergeNodes(const PlacementContext &ctx, const GbscNode &n1,
                 const GbscNode &n2, double *out_best_metric)
{
    const std::uint32_t cache_lines = ctx.cache.lineCount();
    const std::vector<double> cost =
        alignmentCost(ctx, n1, n2, cache_lines);

    // Figure 4 tie rule: the first (smallest) offset wins.
    std::uint32_t best_offset = 0;
    double best_metric = cost[0];
    for (std::uint32_t i = 1; i < cache_lines; ++i) {
        if (cost[i] < best_metric) {
            best_metric = cost[i];
            best_offset = i;
        }
    }
    if (out_best_metric)
        *out_best_metric = best_metric;
    if (ctx.decisions) {
        const ProcId rep1 =
            n1.procs.empty() ? kInvalidProc : n1.procs.front().first;
        const ProcId rep2 =
            n2.procs.empty() ? kInvalidProc : n2.procs.front().first;
        ctx.decisions->recordChoice(DecisionKind::kColor, "gbsc.align",
                                    rep1, rep2, 0.0, best_offset, cost,
                                    "first-smallest-offset");
    }

    GbscNode merged;
    merged.procs = n1.procs;
    merged.procs.reserve(n1.procs.size() + n2.procs.size());
    for (const auto &[proc, offset] : n2.procs)
        merged.procs.emplace_back(proc, (offset + best_offset) %
                                            cache_lines);
    return merged;
}

double
Gbsc::conflictMetric(const PlacementContext &ctx,
                     const std::vector<std::uint32_t> &offsets,
                     const std::vector<bool> *include)
{
    requireGbscInputs(ctx, "Gbsc::conflictMetric");
    require(offsets.size() == ctx.program->procCount(),
            "Gbsc::conflictMetric: offsets size mismatch");
    const std::uint32_t cache_lines = ctx.cache.lineCount();
    const std::uint32_t line_bytes = ctx.cache.line_bytes;

    // Bucket chunks by cache line, then sum pairwise TRG_place weights
    // within each line — the whole-placement analogue of Figure 4's
    // per-merge cost.
    std::vector<std::vector<ChunkId>> by_line(cache_lines);
    for (std::size_t i = 0; i < ctx.program->procCount(); ++i) {
        const auto proc = static_cast<ProcId>(i);
        if (include && !(*include)[proc])
            continue;
        const std::uint32_t len = ctx.program->sizeInLines(proc,
                                                           line_bytes);
        for (std::uint32_t line = 0; line < len; ++line) {
            const ChunkId chunk =
                ctx.chunks->chunkAtLine(proc, line, line_bytes);
            by_line[(offsets[proc] + line) % cache_lines].push_back(chunk);
        }
    }
    double metric = 0.0;
    for (const auto &bucket : by_line) {
        for (std::size_t i = 0; i < bucket.size(); ++i) {
            for (std::size_t j = i + 1; j < bucket.size(); ++j)
                metric += ctx.trg_place->weight(bucket[i], bucket[j]);
        }
    }
    return metric;
}

void
Gbsc::validateInputs(const PlacementContext &ctx) const
{
    requireGbscInputs(ctx, name());
}

GbscNode
Gbsc::doMerge(const PlacementContext &ctx, const GbscNode &n1,
              const GbscNode &n2) const
{
    return mergeNodes(ctx, n1, n2);
}

Layout
Gbsc::place(const PlacementContext &ctx) const
{
    ctx.requireBasics(name());
    validateInputs(ctx);
    require(ctx.trg_select != nullptr, "Gbsc: context has no TRG_select");
    require(ctx.trg_select->nodeCount() == ctx.program->procCount(),
            "Gbsc: TRG_select node count mismatch");
    PhaseTimer timer("placement.gbsc");
    const Program &program = *ctx.program;
    const std::uint32_t cache_lines = ctx.cache.lineCount();
    const std::uint32_t line_bytes = ctx.cache.line_bytes;

    // Popular procedures start as singleton nodes at offset zero.
    std::vector<bool> popular_mask;
    if (ctx.popular.empty())
        popular_mask.assign(program.procCount(), true);
    else
        popular_mask = ctx.popular;

    std::vector<GbscNode> nodes(program.procCount());
    for (std::size_t i = 0; i < program.procCount(); ++i) {
        if (popular_mask[i])
            nodes[i].procs.emplace_back(static_cast<ProcId>(i), 0u);
    }

    // Greedy heaviest-edge merging over TRG_select (Section 4.1).
    MergeGraph working(*ctx.trg_select, &popular_mask);
    if (has_tie_seed_)
        working.setTieBreaker(tie_seed_);
    MetricsRegistry &metrics = MetricsRegistry::current();
    const bool log_passes = logEnabled(LogLevel::kDebug);
    std::uint64_t merge_steps = 0;
    while (!working.done()) {
        const MergeGraph::Edge heaviest = working.maxEdge();
        require(heaviest.valid, "Gbsc: inconsistent working graph");
        if (ctx.decisions) {
            DecisionRecord rec;
            rec.kind = DecisionKind::kMerge;
            rec.stage = "gbsc.select";
            rec.a = heaviest.u;
            rec.b = heaviest.v;
            rec.weight = heaviest.weight;
            rec.tie_break = "heaviest-edge-first";
            ctx.decisions->record(rec);
        }
        nodes[heaviest.u] =
            doMerge(ctx, nodes[heaviest.u], nodes[heaviest.v]);
        ++merge_steps;
        if (log_passes) {
            logDebug("gbsc", "merge pass",
                     {{"step", merge_steps},
                      {"u", heaviest.u},
                      {"v", heaviest.v},
                      {"weight", heaviest.weight},
                      {"node_procs", nodes[heaviest.u].procs.size()}});
        }
        nodes[heaviest.v].procs.clear();
        working.mergeInto(heaviest.u, heaviest.v);
    }
    metrics.counter("gbsc.merge_steps").add(merge_steps);
    // One alignmentCost sweep over all cache lines per merge.
    metrics.counter("gbsc.alignment_evals").add(merge_steps);
    metrics.counter("gbsc.offset_candidates")
        .add(merge_steps * ctx.cache.lineCount());

    // --- Section 4.3: produce the final linear list.
    struct Entry
    {
        ProcId proc;
        std::uint32_t start; // cache-relative line offset
        std::uint32_t len;   // lines
    };
    std::vector<Entry> entries;
    for (const GbscNode &node : nodes) {
        for (const auto &[proc, offset] : node.procs) {
            entries.push_back(Entry{
                proc, offset,
                program.sizeInLines(proc, line_bytes)});
        }
    }

    std::vector<ProcId> fillers;
    for (ProcId id : procsByHeat(ctx)) {
        if (!popular_mask[id])
            fillers.push_back(id);
    }
    GapFiller filler(program, fillers, line_bytes);

    Layout layout(program.procCount());
    std::uint64_t cursor = 0; // absolute line of the next free byte
    if (!entries.empty()) {
        // First procedure: prefer offset 0 (the paper notes any
        // starting offset would do); hottest such procedure for
        // determinism.
        auto better_first = [&](const Entry &x, const Entry &y) {
            if (x.start != y.start)
                return x.start < y.start;
            const double hx = ctx.heatOf(x.proc);
            const double hy = ctx.heatOf(y.proc);
            if (hx != hy)
                return hx > hy;
            return x.proc < y.proc;
        };
        std::size_t first = 0;
        for (std::size_t i = 1; i < entries.size(); ++i) {
            if (better_first(entries[i], entries[first]))
                first = i;
        }
        std::vector<bool> emitted(entries.size(), false);

        cursor = entries[first].start;
        layout.setAddress(entries[first].proc, cursor * line_bytes);
        if (ctx.decisions)
            ctx.decisions->recordPlace(
                "gbsc.emit", entries[first].proc,
                layout.address(entries[first].proc),
                ctx.heatOf(entries[first].proc),
                "lowest-offset,hotter,lower-id");
        cursor += entries[first].len;
        std::uint32_t prev_end =
            (entries[first].start + entries[first].len) % cache_lines;
        emitted[first] = true;

        for (std::size_t placed = 1; placed < entries.size(); ++placed) {
            // Smallest positive gap (the paper's gap formula, i.e.
            // (q_SL - p_EL) mod cache_lines); ties go to the hotter
            // procedure.
            std::size_t best = entries.size();
            std::uint32_t best_gap = 0;
            for (std::size_t i = 0; i < entries.size(); ++i) {
                if (emitted[i])
                    continue;
                const std::uint32_t gap =
                    (entries[i].start + cache_lines - prev_end) %
                    cache_lines;
                if (best == entries.size() || gap < best_gap ||
                    (gap == best_gap &&
                     (ctx.heatOf(entries[i].proc) >
                          ctx.heatOf(entries[best].proc) ||
                      (ctx.heatOf(entries[i].proc) ==
                           ctx.heatOf(entries[best].proc) &&
                       entries[i].proc < entries[best].proc)))) {
                    best = i;
                    best_gap = gap;
                }
            }
            // Fill the gap with unpopular procedures (best fit).
            if (best_gap > 0) {
                for (const auto &[f, rel] : filler.fill(best_gap)) {
                    layout.setAddress(f, (cursor + rel) * line_bytes);
                    if (ctx.decisions)
                        ctx.decisions->recordPlace("gbsc.fill", f,
                                                   layout.address(f),
                                                   ctx.heatOf(f),
                                                   "best-fit-filler");
                }
            }
            cursor += best_gap;
            layout.setAddress(entries[best].proc, cursor * line_bytes);
            if (ctx.decisions)
                ctx.decisions->recordPlace(
                    "gbsc.emit", entries[best].proc,
                    layout.address(entries[best].proc),
                    ctx.heatOf(entries[best].proc),
                    "smallest-gap,hotter,lower-id");
            cursor += entries[best].len;
            prev_end = (entries[best].start + entries[best].len) %
                       cache_lines;
            emitted[best] = true;
        }
    }

    // Append every remaining unpopular procedure.
    for (ProcId rest : filler.remaining()) {
        layout.setAddress(rest, cursor * line_bytes);
        if (ctx.decisions)
            ctx.decisions->recordPlace("gbsc.fill", rest,
                                       layout.address(rest),
                                       ctx.heatOf(rest),
                                       "best-fit-filler");
        cursor += program.sizeInLines(rest, line_bytes);
    }
    layout.validate(program, line_bytes);
    timer.stop();
    if (log_passes) {
        logDebug("gbsc", "placement done",
                 {{"merge_steps", merge_steps},
                  {"procs", program.procCount()},
                  {"extent_lines", cursor},
                  {"ms", timer.elapsedMs()}});
    }
    return layout;
}

} // namespace topo
