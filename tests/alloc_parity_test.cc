/**
 * @file
 * Allocation-parity tests for the per-element profiling paths: a
 * passing require()/requireData() allocates nothing, a failing one
 * still throws the same TopoError, and the TRG walk and the FetchStream
 * expansion allocate the same amount for a short trace and a trace 40x
 * longer. Heap allocations are counted through a replaced global
 * operator new.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "topo/profile/trg_accumulator.hh"
#include "topo/trace/fetch_stream.hh"
#include "topo/util/error.hh"

namespace
{

/** Global allocation counter. */
std::atomic<std::uint64_t> g_allocs{0};

} // namespace

// The full replacement set (array and nothrow forms included) so every
// allocation and deallocation pairs up on malloc/free — a partial set
// trips ASan's alloc-dealloc-mismatch checker in the sanitized build.
void *
operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *ptr = std::malloc(size))
        return ptr;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &tag) noexcept
{
    return operator new(size, tag);
}

void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}

namespace topo
{
namespace
{

/** Heap allocations made while running @p fn. */
template <typename Fn>
std::uint64_t
allocationsOf(Fn &&fn)
{
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    fn();
    return g_allocs.load(std::memory_order_relaxed) - before;
}

// 40 characters: far past any small-string buffer.
constexpr const char *kLongMessage =
    "check: forty characters of message text";

TEST(AllocParity, PassingChecksAllocateNothing)
{
    // A volatile condition keeps the checks from folding away.
    volatile bool ok = true;
    const std::uint64_t allocs = allocationsOf([&] {
        for (int i = 0; i < 1000; ++i) {
            require(ok, kLongMessage);
            requireData(ok, kLongMessage, "context: a long file path name");
        }
    });
    EXPECT_EQ(allocs, 0u);
}

TEST(AllocParity, FailingRequireThrowsUserError)
{
    try {
        require(false, kLongMessage);
        FAIL() << "require(false) did not throw";
    } catch (const TopoError &e) {
        EXPECT_EQ(e.code(), ErrCode::kUser);
        EXPECT_STREQ(e.what(), kLongMessage);
        EXPECT_EQ(e.context(), "");
    }
}

TEST(AllocParity, FailingRequireDataThrowsCorruptWithContext)
{
    try {
        requireData(false, kLongMessage, "trace.bin");
        FAIL() << "requireData(false) did not throw";
    } catch (const TopoError &e) {
        EXPECT_EQ(e.code(), ErrCode::kCorrupt);
        EXPECT_EQ(std::string(e.what()),
                  std::string("trace.bin: ") + kLongMessage);
        EXPECT_EQ(e.context(), "trace.bin");
    }
    try {
        requireData(false, kLongMessage);
        FAIL() << "requireData(false) did not throw";
    } catch (const TopoError &e) {
        EXPECT_EQ(e.code(), ErrCode::kCorrupt);
        EXPECT_STREQ(e.what(), kLongMessage);
    }
}

/**
 * Four procedures of two chunks each, visited cyclically by runs that
 * cross the chunk boundary: every repetition of the cycle credits the
 * same edge set, so a longer trace only raises the counts.
 */
struct CycleFixture
{
    Program program{"cycle"};
    ChunkMap chunks;
    Trace short_trace;
    Trace long_trace;

    CycleFixture() : chunks(build(program), 64)
    {
        short_trace = cycle(50);
        long_trace = cycle(50 * 40);
    }

    static const Program &
    build(Program &program)
    {
        for (const char *name : {"a", "b", "c", "d"})
            program.addProcedure(name, 128);
        return program;
    }

    Trace
    cycle(std::size_t repeats) const
    {
        Trace trace(program.procCount());
        for (std::size_t r = 0; r < repeats; ++r) {
            for (ProcId p = 0; p < program.procCount(); ++p)
                trace.append(p, 32, 48);
        }
        return trace;
    }
};

TEST(AllocParity, TrgWalkAllocatesTheSameForALongerTrace)
{
    const CycleFixture fx;
    TrgBuildOptions opts;
    opts.byte_budget = 1024;

    // Warm each accumulator once so its queues, between-list and edge
    // tables hold the whole edge set; after that the walk is pure
    // updates whatever the trace length.
    TrgAccumulator short_acc(fx.program, fx.chunks, opts);
    TrgAccumulator long_acc(fx.program, fx.chunks, opts);
    short_acc.onTrace(fx.short_trace);
    long_acc.onTrace(fx.short_trace);

    const std::uint64_t short_allocs =
        allocationsOf([&] { short_acc.onTrace(fx.short_trace); });
    const std::uint64_t long_allocs =
        allocationsOf([&] { long_acc.onTrace(fx.long_trace); });
    EXPECT_EQ(long_allocs, short_allocs);

    // The counts kept growing, and the graphs carry them exactly.
    const TrgBuildResult long_trg = long_acc.take();
    const TrgBuildResult short_trg = short_acc.take();
    EXPECT_EQ(long_trg.select.edgeCount(), short_trg.select.edgeCount());
    EXPECT_EQ(long_trg.place.edgeCount(), short_trg.place.edgeCount());
    EXPECT_GT(long_trg.select.totalWeight(),
              20.0 * short_trg.select.totalWeight());
}

TEST(AllocParity, FetchStreamAllocatesTheSameForALongerTrace)
{
    // 16-byte lines: every run covers three lines. The runs are counted
    // before they are stored, so they never grow (and never
    // over-allocate) by an estimate.
    const CycleFixture fx;
    std::size_t short_refs = 0;
    std::size_t long_refs = 0;
    const std::uint64_t short_allocs = allocationsOf([&] {
        const FetchStream stream(fx.program, fx.short_trace, 16);
        short_refs = stream.size();
        EXPECT_EQ(stream.runs().capacity(), stream.runs().size());
    });
    const std::uint64_t long_allocs = allocationsOf([&] {
        const FetchStream stream(fx.program, fx.long_trace, 16);
        long_refs = stream.size();
        EXPECT_EQ(stream.runs().capacity(), stream.runs().size());
    });
    EXPECT_EQ(long_refs, 40 * short_refs);
    EXPECT_EQ(long_allocs, short_allocs);
}

} // namespace
} // namespace topo
