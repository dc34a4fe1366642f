#include "topo/trace/fetch_stream.hh"

#include "topo/resilience/fault.hh"
#include "topo/util/error.hh"

namespace topo
{

FetchStream::FetchStream(const Program &program, const Trace &trace,
                         std::uint32_t line_bytes)
    : line_bytes_(line_bytes)
{
    require(line_bytes > 0, "FetchStream: zero line size");

    // Source-order concatenation of every procedure's lines defines
    // the program line id space: proc p's line l is line_base_[p] + l.
    line_base_.assign(program.procCount() + 1, 0);
    std::uint64_t total_lines = 0;
    for (std::size_t p = 0; p < program.procCount(); ++p) {
        line_base_[p] = static_cast<std::uint32_t>(total_lines);
        const std::uint32_t size =
            program.proc(static_cast<ProcId>(p)).size_bytes;
        total_lines += (size + line_bytes - 1) / line_bytes;
        require(total_lines <= ~std::uint32_t{0},
                "FetchStream: program exceeds 2^32 lines");
    }
    line_base_[program.procCount()] =
        static_cast<std::uint32_t>(total_lines);
    proc_of_line_.resize(static_cast<std::size_t>(total_lines));
    for (std::size_t p = 0; p < program.procCount(); ++p) {
        for (std::uint32_t id = line_base_[p]; id < line_base_[p + 1];
             ++id)
            proc_of_line_[id] = static_cast<ProcId>(p);
    }

    // Pass 1 validates every run and sizes the stream exactly. The
    // fault hook is armed once outside the loop so the common case
    // stays a pure check; the periodic check keeps the injected-error
    // path (mid-expansion failure) exercisable without a per-event
    // cost when armed.
    const bool faulty = faultArmed(FaultKind::kThrowIo);
    const std::vector<TraceEvent> &events = trace.events();
    std::size_t processed = 0;
    std::size_t total_refs = 0;
    for (const TraceEvent &ev : events) {
        if (faulty && (++processed & 0xFF) == 0)
            faultMaybeThrowIo("fetch_stream");
        requireData(ev.proc < program.procCount(),
                    "FetchStream: invalid procedure id in trace");
        const std::uint64_t end =
            static_cast<std::uint64_t>(ev.offset) + ev.length;
        requireData(end <= program.proc(ev.proc).size_bytes,
                    "FetchStream: run exceeds procedure bounds");
        total_refs += (end - 1) / line_bytes - ev.offset / line_bytes + 1;
    }

    // Pass 2 fills the validated stream without further checks.
    line_ids_.resize(total_refs);
    runs_.reserve(events.size());
    std::uint32_t *out = line_ids_.data();
    for (const TraceEvent &ev : events) {
        const std::uint32_t first = line_base_[ev.proc] +
                                    ev.offset / line_bytes;
        const std::uint32_t count =
            (ev.offset + ev.length - 1) / line_bytes -
            ev.offset / line_bytes + 1;
        if (!runs_.empty() && runs_.back().first_line == first &&
            runs_.back().line_count == count)
            ++runs_.back().repeats;
        else
            runs_.push_back(FetchRun{first, count, 1});
        for (std::uint32_t i = 0; i < count; ++i)
            *out++ = first + i;
    }
}

} // namespace topo
