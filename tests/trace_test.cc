/**
 * @file
 * Unit tests for Trace, FetchStream, trace IO, and trace statistics.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <utility>
#include <vector>

#include "topo/program/program.hh"
#include "topo/trace/fetch_stream.hh"
#include "topo/trace/trace.hh"
#include "topo/trace/trace_io.hh"
#include "topo/trace/trace_stats.hh"
#include "topo/util/error.hh"

namespace topo
{
namespace
{

Program
makeProgram()
{
    Program p("t");
    p.addProcedure("f", 100);
    p.addProcedure("g", 64);
    return p;
}

TEST(Trace, AppendAndValidate)
{
    const Program p = makeProgram();
    Trace t(p.procCount());
    t.append(0, 0, 100);
    t.append(1, 32, 32);
    EXPECT_EQ(t.size(), 2u);
    t.validate(p);
}

TEST(Trace, RejectsBadRuns)
{
    Trace t(2);
    EXPECT_THROW(t.append(2, 0, 10), TopoError); // bad proc
    EXPECT_THROW(t.append(0, 0, 0), TopoError);  // zero length
}

TEST(Trace, ValidateCatchesOutOfBounds)
{
    const Program p = makeProgram();
    Trace t(p.procCount());
    t.append(0, 90, 20); // 90+20 > 100
    EXPECT_THROW(t.validate(p), TopoError);
}

TEST(Trace, ValidateFailureNamesTheProcedure)
{
    const Program p = makeProgram();
    Trace t(p.procCount());
    t.append(0, 0, 100);
    t.append(1, 60, 8); // 60+8 > 64
    try {
        t.validate(p);
        FAIL() << "validate accepted an out-of-bounds run";
    } catch (const TopoError &e) {
        EXPECT_EQ(e.code(), ErrCode::kUser);
        EXPECT_STREQ(e.what(), "Trace::validate: run exceeds bounds of "
                               "procedure 'g'");
    }
}

/** A reference as (procedure, line within the procedure). */
using Ref = std::pair<ProcId, std::uint32_t>;

/** Expand the stream's runs into its references, in order. */
std::vector<Ref>
expandRefs(const FetchStream &stream)
{
    std::vector<Ref> refs;
    for (const FetchRun &run : stream.runs()) {
        const ProcId proc = stream.procOfLine(run.first_line);
        const std::uint32_t line = run.first_line - stream.lineBase(proc);
        for (std::uint32_t rep = 0; rep < run.repeats; ++rep) {
            for (std::uint32_t i = 0; i < run.line_count; ++i)
                refs.emplace_back(proc, line + i);
        }
    }
    return refs;
}

TEST(FetchStream, ExpandsRunsToLines)
{
    const Program p = makeProgram();
    Trace t(p.procCount());
    t.append(0, 0, 100); // lines 0..3 at 32B lines
    t.append(1, 40, 8);  // line 1 only
    const FetchStream stream(p, t, 32);
    ASSERT_EQ(stream.size(), 5u);
    const std::vector<Ref> refs = expandRefs(stream);
    ASSERT_EQ(refs.size(), 5u);
    EXPECT_EQ(refs[0], (Ref{0, 0}));
    EXPECT_EQ(refs[3], (Ref{0, 3}));
    EXPECT_EQ(refs[4], (Ref{1, 1}));
}

TEST(FetchStream, SingleByteRun)
{
    const Program p = makeProgram();
    Trace t(p.procCount());
    t.append(0, 99, 1);
    const FetchStream stream(p, t, 32);
    ASSERT_EQ(stream.size(), 1u);
    const std::vector<Ref> refs = expandRefs(stream);
    ASSERT_EQ(refs.size(), 1u);
    EXPECT_EQ(refs[0], (Ref{0, 3}));
}

/** Property: total lines equals the per-run line-span sum. */
class FetchStreamLineTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(FetchStreamLineTest, LineCountMatchesSpans)
{
    const std::uint32_t line = GetParam();
    const Program p = makeProgram();
    Trace t(p.procCount());
    t.append(0, 10, 55);
    t.append(1, 0, 64);
    t.append(0, 96, 4);
    std::size_t expected = 0;
    for (const TraceEvent &ev : t.events()) {
        const std::uint32_t first = ev.offset / line;
        const std::uint32_t last = (ev.offset + ev.length - 1) / line;
        expected += last - first + 1;
    }
    const FetchStream stream(p, t, line);
    EXPECT_EQ(stream.size(), expected);
}

INSTANTIATE_TEST_SUITE_P(LineSizes, FetchStreamLineTest,
                         ::testing::Values(8u, 16u, 32u, 64u));

TEST(TraceIo, RoundTrip)
{
    const Program p = makeProgram();
    Trace t(p.procCount());
    t.append(0, 0, 100);
    t.append(1, 16, 48);
    std::stringstream ss;
    writeTrace(ss, t);
    const Trace back = readTrace(ss);
    EXPECT_EQ(back.procCount(), t.procCount());
    ASSERT_EQ(back.size(), t.size());
    EXPECT_EQ(back.events()[0], t.events()[0]);
    EXPECT_EQ(back.events()[1], t.events()[1]);
}

TEST(TraceIo, CommentsAndBlanksIgnored)
{
    std::stringstream ss("topo-trace v1 2\n# comment\n\n0 0 10\n");
    const Trace t = readTrace(ss);
    EXPECT_EQ(t.size(), 1u);
}

TEST(TraceIo, BadHeaderRejected)
{
    std::stringstream ss("not-a-trace\n");
    EXPECT_THROW(readTrace(ss), TopoError);
}

TEST(TraceIo, OutOfRangeProcRejected)
{
    std::stringstream ss("topo-trace v1 1\n5 0 10\n");
    EXPECT_THROW(readTrace(ss), TopoError);
}

TEST(TraceStats, CountsAndTotals)
{
    const Program p = makeProgram();
    Trace t(p.procCount());
    t.append(0, 0, 100);
    t.append(0, 0, 50);
    t.append(1, 0, 64);
    const TraceStats stats = computeTraceStats(p, t);
    EXPECT_EQ(stats.total_runs, 3u);
    EXPECT_EQ(stats.total_bytes, 214u);
    EXPECT_EQ(stats.run_count[0], 2u);
    EXPECT_EQ(stats.bytes_fetched[0], 150u);
    EXPECT_EQ(stats.procs_touched, 2u);
}

TEST(TraceStats, MismatchRejected)
{
    const Program p = makeProgram();
    Trace t(5);
    EXPECT_THROW(computeTraceStats(p, t), TopoError);
}

} // namespace
} // namespace topo
