/**
 * @file
 * Layout diff implementation: structural diff, exact miss-delta
 * attribution by double replay, decision cross-referencing, and the
 * Markdown / JSON renderings.
 */

#include "topo/eval/layout_diff.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>

#include "topo/exec/exec.hh"
#include "topo/obs/metrics.hh"
#include "topo/obs/phase_timer.hh"
#include "topo/util/error.hh"

namespace topo
{

namespace
{

/** Sort moves by |miss_delta| desc, ties by proc id asc. */
void
orderMoves(std::vector<LayoutDiff::Move> &moves)
{
    std::stable_sort(moves.begin(), moves.end(),
                     [](const LayoutDiff::Move &x,
                        const LayoutDiff::Move &y) {
                         const std::int64_t ax =
                             x.miss_delta < 0 ? -x.miss_delta
                                              : x.miss_delta;
                         const std::int64_t ay =
                             y.miss_delta < 0 ? -y.miss_delta
                                              : y.miss_delta;
                         if (ax != ay)
                             return ax > ay;
                         return x.proc < y.proc;
                     });
}

/** Full conflict matrix of a sink as an ordered (evictor,victim) map. */
std::map<std::pair<ProcId, ProcId>, std::uint64_t>
fullPairs(const AttributionSink &sink)
{
    std::map<std::pair<ProcId, ProcId>, std::uint64_t> out;
    for (const ConflictPair &p : sink.topPairs(sink.trackedPairs()))
        out[{p.evictor, p.victim}] = p.count;
    return out;
}

std::string
signedStr(std::int64_t v)
{
    std::ostringstream os;
    if (v > 0)
        os << '+';
    os << v;
    return os.str();
}

} // namespace

LayoutDiff
buildLayoutDiff(const Program &program, const CacheConfig &cache,
                const Layout &layout_a, const Layout &layout_b,
                const std::string &label_a, const std::string &label_b,
                const LayoutDiffOptions &options)
{
    (void)options;
    PhaseTimer timer("diff.structural");
    layout_a.validate(program, cache.line_bytes);
    layout_b.validate(program, cache.line_bytes);
    const std::uint32_t sets = cache.setCount();
    const std::uint32_t line_bytes = cache.line_bytes;

    LayoutDiff diff;
    diff.program_name = program.name();
    diff.cache = cache;
    diff.a.label = label_a;
    diff.b.label = label_b;
    diff.set_occupancy_delta.assign(sets, 0);

    for (std::size_t i = 0; i < program.procCount(); ++i) {
        const auto proc = static_cast<ProcId>(i);
        const std::uint64_t addr_a = layout_a.address(proc);
        const std::uint64_t addr_b = layout_b.address(proc);
        const std::uint64_t line_a = layout_a.startLine(proc, line_bytes);
        const std::uint64_t line_b = layout_b.startLine(proc, line_bytes);
        const std::uint32_t len = program.sizeInLines(proc, line_bytes);
        for (std::uint32_t l = 0; l < len; ++l) {
            --diff.set_occupancy_delta[(line_a + l) % sets];
            ++diff.set_occupancy_delta[(line_b + l) % sets];
        }
        if (addr_a == addr_b) {
            ++diff.unmoved;
            continue;
        }
        LayoutDiff::Move move;
        move.proc = proc;
        move.addr_a = addr_a;
        move.addr_b = addr_b;
        move.set_a = static_cast<std::uint32_t>(line_a % sets);
        move.set_b = static_cast<std::uint32_t>(line_b % sets);
        diff.moves.push_back(std::move(move));
    }
    return diff;
}

void
attributeMissDelta(LayoutDiff &diff, const Program &program,
                   const Layout &layout_a, const Layout &layout_b,
                   const FetchStream &stream,
                   const LayoutDiffOptions &options)
{
    PhaseTimer timer("diff.attribute");
    const CacheConfig &cache = diff.cache;

    struct SideResult
    {
        std::uint64_t accesses = 0;
        std::uint64_t misses = 0;
        std::vector<std::uint64_t> misses_by_proc;
        std::vector<std::uint64_t> misses_by_set;
        std::map<std::pair<ProcId, ProcId>, std::uint64_t> pairs;
        std::uint64_t dropped_pairs = 0;
        std::unique_ptr<MetricsRegistry> metrics;
    };
    const Layout *layouts[2] = {&layout_a, &layout_b};
    std::vector<SideResult> sides = parallelMap(2, [&](std::size_t i) {
        SideResult out;
        out.metrics = std::make_unique<MetricsRegistry>();
        MetricsScope scope(*out.metrics);
        AttributionSink::Options sink_opts;
        sink_opts.max_pairs = options.max_pairs;
        AttributionSink sink(program, *layouts[i], cache,
                             stream.lineBytes(), sink_opts);
        SimObservers observers;
        observers.attribution = &sink;
        const SimResult sim = simulateLayout(program, *layouts[i],
                                             stream, cache, false,
                                             &observers);
        out.accesses = sim.accesses;
        out.misses = sim.misses;
        out.misses_by_proc = sink.missesByProc();
        out.misses_by_set = sink.missesBySet();
        out.pairs = fullPairs(sink);
        out.dropped_pairs = sink.droppedPairs();
        return out;
    });
    // Merge task registries in fixed (side) order: byte-identical
    // metrics for any --jobs value.
    for (SideResult &side : sides)
        MetricsRegistry::current().mergeFrom(*side.metrics);
    const SideResult &ra = sides[0];
    const SideResult &rb = sides[1];

    diff.a.accesses = ra.accesses;
    diff.a.misses = ra.misses;
    diff.b.accesses = rb.accesses;
    diff.b.misses = rb.misses;
    diff.dropped_pairs_a = ra.dropped_pairs;
    diff.dropped_pairs_b = rb.dropped_pairs;

    diff.miss_delta_by_proc.assign(program.procCount(), 0);
    for (std::size_t p = 0; p < program.procCount(); ++p) {
        diff.miss_delta_by_proc[p] =
            static_cast<std::int64_t>(rb.misses_by_proc[p]) -
            static_cast<std::int64_t>(ra.misses_by_proc[p]);
    }
    diff.set_miss_delta.assign(cache.setCount(), 0);
    for (std::size_t s = 0; s < diff.set_miss_delta.size(); ++s) {
        diff.set_miss_delta[s] =
            static_cast<std::int64_t>(rb.misses_by_set[s]) -
            static_cast<std::int64_t>(ra.misses_by_set[s]);
    }

    diff.pairs_created.clear();
    diff.pairs_destroyed.clear();
    for (const auto &[key, count] : rb.pairs) {
        if (ra.pairs.find(key) == ra.pairs.end())
            diff.pairs_created.push_back(
                {key.first, key.second, count});
    }
    for (const auto &[key, count] : ra.pairs) {
        if (rb.pairs.find(key) == rb.pairs.end())
            diff.pairs_destroyed.push_back(
                {key.first, key.second, count});
    }
    auto by_count = [](const LayoutDiff::PairDelta &x,
                       const LayoutDiff::PairDelta &y) {
        if (x.count != y.count)
            return x.count > y.count;
        if (x.evictor != y.evictor)
            return x.evictor < y.evictor;
        return x.victim < y.victim;
    };
    std::sort(diff.pairs_created.begin(), diff.pairs_created.end(),
              by_count);
    std::sort(diff.pairs_destroyed.begin(), diff.pairs_destroyed.end(),
              by_count);

    for (LayoutDiff::Move &move : diff.moves)
        move.miss_delta = diff.miss_delta_by_proc[move.proc];
    orderMoves(diff.moves);
    diff.attributed = true;
}

void
crossReferenceDecisions(LayoutDiff &diff, const Program &program,
                        const LoadedDecisions &decisions)
{
    diff.has_decisions = true;
    diff.decisions_algorithm = decisions.algorithm;
    diff.moves_explained = 0;
    for (LayoutDiff::Move &move : diff.moves) {
        move.decision_steps.clear();
        const std::string &name = program.proc(move.proc).name;
        for (std::size_t row : decisions.rowsFor(name))
            move.decision_steps.push_back(decisions.rows[row].step);
        if (!move.decision_steps.empty())
            ++diff.moves_explained;
    }
}

std::string
renderDiffMarkdown(const LayoutDiff &diff, const Program &program,
                   const LayoutDiffOptions &options)
{
    std::ostringstream os;
    os << "# Layout diff — " << diff.program_name << "\n\n";
    os << "- cache: " << diff.cache.describe() << "\n";
    os << "- A: " << diff.a.label << "\n";
    os << "- B: " << diff.b.label << "\n";
    os << "- moved: " << diff.moves.size()
       << ", unmoved: " << diff.unmoved << "\n";
    if (diff.attributed) {
        os << "- misses: " << diff.a.misses << " -> " << diff.b.misses
           << " (" << signedStr(diff.missDelta()) << ")\n";
        if (diff.dropped_pairs_a || diff.dropped_pairs_b) {
            os << "- conflict pairs dropped past budget: A="
               << diff.dropped_pairs_a << ", B="
               << diff.dropped_pairs_b << "\n";
        }
    }
    if (diff.has_decisions) {
        os << "- decisions: " << diff.decisions_algorithm << " ("
           << diff.moves_explained << "/" << diff.moves.size()
           << " moves explained)\n";
    }
    os << "\n";

    if (!diff.moves.empty()) {
        os << "## Moved procedures";
        if (diff.moves.size() > options.top_moves)
            os << " (top " << options.top_moves << " of "
               << diff.moves.size() << ")";
        os << "\n\n";
        os << "| proc | addr A | addr B | set A | set B |";
        if (diff.attributed)
            os << " miss delta |";
        if (diff.has_decisions)
            os << " decision steps |";
        os << "\n";
        os << "|---|---|---|---|---|";
        if (diff.attributed)
            os << "---|";
        if (diff.has_decisions)
            os << "---|";
        os << "\n";
        const std::size_t rows =
            std::min(diff.moves.size(), options.top_moves);
        for (std::size_t i = 0; i < rows; ++i) {
            const LayoutDiff::Move &m = diff.moves[i];
            os << "| " << program.proc(m.proc).name << " | "
               << m.addr_a << " | " << m.addr_b << " | " << m.set_a
               << " | " << m.set_b << " |";
            if (diff.attributed)
                os << " " << signedStr(m.miss_delta) << " |";
            if (diff.has_decisions) {
                os << " ";
                for (std::size_t k = 0;
                     k < m.decision_steps.size() && k < 4; ++k) {
                    if (k)
                        os << " ";
                    os << "#" << m.decision_steps[k];
                }
                if (m.decision_steps.size() > 4)
                    os << " …";
                if (m.decision_steps.empty())
                    os << "-";
                os << " |";
            }
            os << "\n";
        }
        os << "\n";
    }

    if (diff.attributed) {
        auto pairTable = [&](const char *title,
                             const std::vector<LayoutDiff::PairDelta>
                                 &pairs) {
            if (pairs.empty())
                return;
            os << "## " << title;
            if (pairs.size() > options.top_pairs)
                os << " (top " << options.top_pairs << " of "
                   << pairs.size() << ")";
            os << "\n\n| evictor | victim | evictions |\n|---|---|---|\n";
            const std::size_t rows =
                std::min(pairs.size(), options.top_pairs);
            for (std::size_t i = 0; i < rows; ++i) {
                const LayoutDiff::PairDelta &p = pairs[i];
                os << "| " << program.proc(p.evictor).name << " | "
                   << program.proc(p.victim).name << " | " << p.count
                   << " |\n";
            }
            os << "\n";
        };
        pairTable("Conflict pairs created", diff.pairs_created);
        pairTable("Conflict pairs destroyed", diff.pairs_destroyed);
    }
    return os.str();
}

JsonValue
diffToJson(const LayoutDiff &diff, const Program &program)
{
    JsonValue doc = JsonValue::object();
    doc.set("topo_diff", JsonValue::number(1));
    doc.set("program", JsonValue::string(diff.program_name));
    doc.set("cache", JsonValue::string(diff.cache.describe()));
    auto side = [&](const LayoutDiff::Side &s) {
        JsonValue v = JsonValue::object();
        v.set("label", JsonValue::string(s.label));
        v.set("accesses",
              JsonValue::number(static_cast<double>(s.accesses)));
        v.set("misses",
              JsonValue::number(static_cast<double>(s.misses)));
        return v;
    };
    doc.set("a", side(diff.a));
    doc.set("b", side(diff.b));
    doc.set("moved",
            JsonValue::number(static_cast<double>(diff.moves.size())));
    doc.set("unmoved",
            JsonValue::number(static_cast<double>(diff.unmoved)));
    doc.set("attributed", JsonValue::boolean(diff.attributed));
    doc.set("miss_delta", JsonValue::number(static_cast<double>(
                              diff.attributed ? diff.missDelta() : 0)));

    JsonValue moves = JsonValue::array();
    for (const LayoutDiff::Move &m : diff.moves) {
        JsonValue row = JsonValue::object();
        row.set("proc", JsonValue::string(program.proc(m.proc).name));
        row.set("addr_a",
                JsonValue::number(static_cast<double>(m.addr_a)));
        row.set("addr_b",
                JsonValue::number(static_cast<double>(m.addr_b)));
        row.set("set_a", JsonValue::number(m.set_a));
        row.set("set_b", JsonValue::number(m.set_b));
        if (diff.attributed)
            row.set("miss_delta",
                    JsonValue::number(
                        static_cast<double>(m.miss_delta)));
        if (diff.has_decisions) {
            JsonValue steps = JsonValue::array();
            for (std::uint64_t s : m.decision_steps)
                steps.push(
                    JsonValue::number(static_cast<double>(s)));
            row.set("decision_steps", std::move(steps));
        }
        moves.push(std::move(row));
    }
    doc.set("moves", std::move(moves));

    // Sparse complete deltas: every nonzero cell, so the sum
    // invariant is checkable from the artifact alone.
    auto sparse = [](const std::vector<std::int64_t> &deltas,
                     const char *key_name, auto key_of) {
        JsonValue arr = JsonValue::array();
        for (std::size_t i = 0; i < deltas.size(); ++i) {
            if (deltas[i] == 0)
                continue;
            JsonValue row = JsonValue::object();
            row.set(key_name, key_of(i));
            row.set("delta", JsonValue::number(
                                 static_cast<double>(deltas[i])));
            arr.push(std::move(row));
        }
        return arr;
    };
    if (diff.attributed) {
        doc.set("miss_delta_by_proc",
                sparse(diff.miss_delta_by_proc, "proc",
                       [&](std::size_t i) {
                           return JsonValue::string(
                               program.proc(static_cast<ProcId>(i))
                                   .name);
                       }));
        doc.set("set_miss_delta",
                sparse(diff.set_miss_delta, "set", [](std::size_t i) {
                    return JsonValue::number(
                        static_cast<double>(i));
                }));
        auto pairArr = [&](const std::vector<LayoutDiff::PairDelta>
                               &pairs) {
            JsonValue arr = JsonValue::array();
            for (const LayoutDiff::PairDelta &p : pairs) {
                JsonValue row = JsonValue::object();
                row.set("evictor", JsonValue::string(
                                       program.proc(p.evictor).name));
                row.set("victim", JsonValue::string(
                                      program.proc(p.victim).name));
                row.set("count", JsonValue::number(
                                     static_cast<double>(p.count)));
                arr.push(std::move(row));
            }
            return arr;
        };
        doc.set("pairs_created", pairArr(diff.pairs_created));
        doc.set("pairs_destroyed", pairArr(diff.pairs_destroyed));
        doc.set("dropped_pairs_a",
                JsonValue::number(
                    static_cast<double>(diff.dropped_pairs_a)));
        doc.set("dropped_pairs_b",
                JsonValue::number(
                    static_cast<double>(diff.dropped_pairs_b)));
    }
    doc.set("set_occupancy_delta",
            sparse(diff.set_occupancy_delta, "set", [](std::size_t i) {
                return JsonValue::number(static_cast<double>(i));
            }));
    if (diff.has_decisions) {
        doc.set("decisions_algorithm",
                JsonValue::string(diff.decisions_algorithm));
        doc.set("moves_explained",
                JsonValue::number(
                    static_cast<double>(diff.moves_explained)));
    }
    return doc;
}

void
publishDiffMetrics(const LayoutDiff &diff)
{
    MetricsRegistry &reg = MetricsRegistry::current();
    reg.counter("explain.diff_moved").add(diff.moves.size());
    reg.counter("explain.diff_pairs")
        .add(diff.pairs_created.size() + diff.pairs_destroyed.size());
    if (diff.has_decisions && !diff.moves.empty()) {
        reg.gauge("explain.diff_coverage")
            .set(static_cast<double>(diff.moves_explained) /
                 static_cast<double>(diff.moves.size()));
    }
}

} // namespace topo
