#include "topo/sampling/window_features.hh"

#include <algorithm>

#include "topo/exec/exec.hh"
#include "topo/util/error.hh"

namespace topo
{

namespace
{

/** Line fetches of one run at line size @p line_bytes (FetchStream's
 *  expansion rule: lines floor(off/L) .. floor((off+len-1)/L)). */
inline std::uint64_t
runLines(const TraceEvent &ev, std::uint32_t line_bytes)
{
    const std::uint32_t first = ev.offset / line_bytes;
    const std::uint32_t last = (ev.offset + ev.length - 1) / line_bytes;
    return static_cast<std::uint64_t>(last - first) + 1;
}

/** Line fetches of one procedure within one window. */
struct ProcLines
{
    ProcId proc = kInvalidProc;
    std::uint64_t lines = 0;
};

} // namespace

std::uint64_t
TraceWindows::totalBlocks() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t b : blocks)
        total += b;
    return total;
}

TraceWindows
buildTraceWindows(const Program &program, const Trace &trace,
                  std::uint64_t window_runs, std::uint32_t line_bytes,
                  std::size_t top_procs)
{
    require(window_runs > 0, "buildTraceWindows: zero window size");
    require(line_bytes > 0, "buildTraceWindows: zero line size");
    require(trace.procCount() == program.procCount(),
            "buildTraceWindows: program/trace mismatch");
    const std::vector<TraceEvent> &events = trace.events();
    const std::size_t n = events.size();
    const std::size_t proc_count = program.procCount();
    const std::size_t runs_per_window =
        static_cast<std::size_t>(window_runs);
    const std::size_t count =
        n == 0 ? 0 : (n + runs_per_window - 1) / runs_per_window;

    TraceWindows windows;
    windows.window_runs = window_runs;
    windows.event_begin.resize(count + 1);
    windows.blocks.assign(count, 0);
    std::vector<std::uint64_t> repeats(count, 0);

    // The one walk over the trace. Window w's procedures land in
    // touched[touched_begin[w], touched_begin[w + 1]) in first-touch
    // order, each with its line count; seen_in[p] == w + 1 stamps p as
    // already listed for window w, at index slot_of[p].
    std::vector<ProcLines> touched;
    std::vector<std::size_t> touched_begin(count + 1, 0);
    std::vector<std::size_t> seen_in(proc_count, 0);
    std::vector<std::size_t> slot_of(proc_count, 0);
    for (std::size_t w = 0; w < count; ++w) {
        const std::size_t begin = w * runs_per_window;
        const std::size_t end = std::min(n, begin + runs_per_window);
        windows.event_begin[w] = begin;
        touched_begin[w] = touched.size();
        std::uint64_t blocks = 0;
        std::uint64_t same = 0;
        for (std::size_t i = begin; i < end; ++i) {
            const TraceEvent &ev = events[i];
            const std::uint64_t lines = runLines(ev, line_bytes);
            blocks += lines;
            if (seen_in[ev.proc] == w + 1) {
                touched[slot_of[ev.proc]].lines += lines;
            } else {
                seen_in[ev.proc] = w + 1;
                slot_of[ev.proc] = touched.size();
                touched.push_back({ev.proc, lines});
            }
            if (i > begin && ev.proc == events[i - 1].proc)
                ++same;
        }
        windows.blocks[w] = blocks;
        repeats[w] = same;
    }
    windows.event_begin[count] = n;
    touched_begin[count] = touched.size();

    // Global per-procedure line counts select the feature procedures:
    // the hottest ones carry the phase signal, everything else folds
    // into one bucket so the dimensionality stays fixed. The counts
    // are integer sums, so summing per window gives the same totals as
    // summing per event.
    std::vector<std::uint64_t> global_lines(proc_count, 0);
    for (const ProcLines &t : touched)
        global_lines[t.proc] += t.lines;
    std::vector<ProcId> hot(proc_count);
    for (std::size_t p = 0; p < proc_count; ++p)
        hot[p] = static_cast<ProcId>(p);
    std::sort(hot.begin(), hot.end(), [&](ProcId a, ProcId b) {
        if (global_lines[a] != global_lines[b])
            return global_lines[a] > global_lines[b];
        return a < b;
    });
    const std::size_t m = std::min(top_procs, proc_count);
    // feature_slot[p] = index into the per-window mix, m = "other".
    std::vector<std::uint32_t> feature_slot(proc_count,
                                            static_cast<std::uint32_t>(m));
    for (std::size_t i = 0; i < m; ++i)
        feature_slot[hot[i]] = static_cast<std::uint32_t>(i);

    WindowFeatureMatrix &features = windows.features;
    features.windows = count;
    features.dims = m + 4; // mix + other + distinct + granularity + repeat
    features.values.assign(count * features.dims, 0.0);

    parallelFor(count, [&](std::size_t w) {
        const std::size_t begin = windows.event_begin[w];
        const std::size_t end = windows.event_begin[w + 1];
        double *row = &features.values[w * features.dims];
        const double lines =
            static_cast<double>(std::max<std::uint64_t>(
                windows.blocks[w], 1));
        const double runs =
            static_cast<double>(std::max<std::size_t>(end - begin, 1));
        // A window lists each procedure once, so every hot slot gets
        // one procedure's count; only "other" sums several.
        std::uint64_t other = 0;
        for (std::size_t t = touched_begin[w]; t < touched_begin[w + 1];
             ++t) {
            const std::uint32_t slot = feature_slot[touched[t].proc];
            if (slot < m)
                row[slot] = static_cast<double>(touched[t].lines) / lines;
            else
                other += touched[t].lines;
        }
        row[m] = static_cast<double>(other) / lines;
        row[m + 1] = static_cast<double>(touched_begin[w + 1] -
                                         touched_begin[w]) /
                     static_cast<double>(std::max<std::size_t>(
                         proc_count, 1));
        row[m + 2] = runs / lines >= 1.0 ? 1.0 : runs / lines;
        row[m + 3] = static_cast<double>(repeats[w]) / runs;
    });
    return windows;
}

} // namespace topo
