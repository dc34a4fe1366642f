/**
 * @file
 * FetchStream: the line-granularity expansion of a trace.
 *
 * The cache simulator consumes (procedure, line-within-procedure)
 * references. Expanding a trace once and reusing the stream for every
 * candidate layout is the key performance lever of the evaluation
 * harness: a layout only changes the *mapping* of each reference, not
 * the reference sequence itself.
 *
 * The stream is stored as runs only: one 12-byte FetchRun per maximal
 * group of back-to-back identical trace runs, in "program line id"
 * form (the index of a line in a source-order concatenation of all
 * procedures). Every replay walks the runs, and one table lookup per
 * run places a whole run under a layout. Loop-heavy traces compress
 * ~75x this way (the paper suite's test inputs: 42.4M fetches in 563k
 * runs), so the stream is a few MB, not one entry per fetch.
 */

#ifndef TOPO_TRACE_FETCH_STREAM_HH
#define TOPO_TRACE_FETCH_STREAM_HH

#include <cstdint>
#include <vector>

#include "topo/program/program.hh"
#include "topo/trace/trace.hh"

namespace topo
{

/** The lines one trace run fetches, relative to its procedure. */
struct LineSpan
{
    std::uint32_t first; // first line index within the procedure
    std::uint32_t count; // lines fetched, >= 1
};

/**
 * The expansion rule: a validated run (len >= 1, within its procedure)
 * touching bytes [off, off+len) fetches lines floor(off/L) ..
 * floor((off+len-1)/L).
 */
inline LineSpan
lineSpan(const TraceEvent &ev, std::uint32_t line_bytes)
{
    const std::uint32_t first = ev.offset / line_bytes;
    const std::uint32_t last = (ev.offset + ev.length - 1) / line_bytes;
    return LineSpan{first, last - first + 1};
}

/**
 * One trace run in line-id form, repeated @ref repeats times
 * back-to-back: each repeat is @ref line_count consecutive program
 * line ids starting at @ref first_line. Because a run never crosses a
 * procedure boundary, the ids also map to consecutive placed line
 * addresses under any layout — the property the simulator's batched
 * replay exploits to amortise its per-reference table lookup over a
 * whole run (runs average ~8-13 lines on the paper suite).
 *
 * The repeat count is the decisive compression: loop-heavy traces
 * re-execute the same run back-to-back for 75-85% of all line fetches
 * (paper suite, both inputs), and a repeat of a run short enough to
 * be self-contained in the cache is provably all-hits and leaves the
 * cache state untouched, so the simulator can account for it without
 * replaying it (see DirectMappedCache::accessRunBatch).
 */
struct FetchRun
{
    std::uint32_t first_line;
    std::uint32_t line_count;
    std::uint32_t repeats;
};

/**
 * Immutable line-granularity reference stream for one trace, stored as
 * repeat-compressed runs.
 */
class FetchStream
{
  public:
    /**
     * Expand a trace into line fetches (see lineSpan()), validating
     * every run against the program. Two passes over the trace: the
     * first validates and counts, so the runs are allocated once at
     * their exact size.
     *
     * @param program    Procedure inventory (for bounds checking).
     * @param trace      The run trace.
     * @param line_bytes Cache line size in bytes.
     */
    FetchStream(const Program &program, const Trace &trace,
                std::uint32_t line_bytes);

    /** Line size the stream was expanded at. */
    std::uint32_t lineBytes() const { return line_bytes_; }

    /** Number of line references (every run's lines x repeats). */
    std::size_t size() const { return size_; }

    /**
     * The reference sequence in execution order: run r stands for
     * runs()[r].repeats back-to-back copies of line_count consecutive
     * program line ids from first_line.
     */
    const std::vector<FetchRun> &runs() const { return runs_; }

    /** Total lines across all procedures at this line size. */
    std::uint32_t
    programLineCount() const
    {
        return static_cast<std::uint32_t>(proc_of_line_.size());
    }

    /** First program line id of @p proc. */
    std::uint32_t lineBase(ProcId proc) const { return line_base_[proc]; }

    /** Procedure owning program line @p id. */
    ProcId procOfLine(std::uint32_t id) const { return proc_of_line_[id]; }

  private:
    std::uint32_t line_bytes_;
    std::size_t size_ = 0;
    std::vector<FetchRun> runs_;
    /** Per procedure: first program line id (size procCount() + 1). */
    std::vector<std::uint32_t> line_base_;
    /** Per program line: the owning procedure. */
    std::vector<ProcId> proc_of_line_;
};

} // namespace topo

#endif // TOPO_TRACE_FETCH_STREAM_HH
