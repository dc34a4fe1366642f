/**
 * @file
 * Tests for the binary trace format: round trips, compactness,
 * corruption handling, and format auto-detection.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "topo/trace/trace_binary.hh"
#include "topo/trace/trace_io.hh"
#include "topo/util/error.hh"
#include "topo/util/rng.hh"

#include "scoped_temp_dir.hh"

namespace topo
{
namespace
{

Trace
randomTrace(std::size_t procs, std::size_t runs, std::uint64_t seed)
{
    Trace trace(procs);
    Rng rng(seed);
    for (std::size_t i = 0; i < runs; ++i) {
        const ProcId proc = static_cast<ProcId>(rng.nextBelow(procs));
        const std::uint32_t offset =
            static_cast<std::uint32_t>(rng.nextBelow(4096));
        const std::uint32_t length =
            1 + static_cast<std::uint32_t>(rng.nextBelow(512));
        trace.append(proc, offset, length);
    }
    return trace;
}

TEST(BinaryTrace, RoundTrip)
{
    const Trace trace = randomTrace(50, 5000, 1);
    std::stringstream ss;
    writeBinaryTrace(ss, trace);
    const Trace back = readBinaryTrace(ss);
    ASSERT_EQ(back.size(), trace.size());
    EXPECT_EQ(back.procCount(), trace.procCount());
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(back.events()[i], trace.events()[i]);
}

TEST(BinaryTrace, EmptyTraceRoundTrip)
{
    const Trace trace(7);
    std::stringstream ss;
    writeBinaryTrace(ss, trace);
    const Trace back = readBinaryTrace(ss);
    EXPECT_EQ(back.size(), 0u);
    EXPECT_EQ(back.procCount(), 7u);
}

TEST(BinaryTrace, MuchSmallerThanText)
{
    // Locality-heavy trace (like real programs): the delta coding
    // should put the binary form well under half of the text form.
    Trace trace(100);
    Rng rng(2);
    ProcId current = 0;
    for (int i = 0; i < 20000; ++i) {
        if (rng.nextBool(0.2))
            current = static_cast<ProcId>(rng.nextBelow(100));
        trace.append(current, 0, 64);
    }
    std::stringstream text, binary;
    writeTrace(text, trace);
    writeBinaryTrace(binary, trace);
    EXPECT_LT(binary.str().size(), text.str().size() / 2);
}

TEST(BinaryTrace, DetectsCorruption)
{
    {
        std::stringstream ss("nope");
        EXPECT_THROW(readBinaryTrace(ss), TopoError);
    }
    {
        // Valid header claiming runs that are not present.
        const Trace trace = randomTrace(4, 100, 3);
        std::stringstream ss;
        writeBinaryTrace(ss, trace);
        std::string data = ss.str();
        data.resize(data.size() / 2); // truncate
        std::stringstream cut(data);
        EXPECT_THROW(readBinaryTrace(cut), TopoError);
    }
    {
        // Out-of-range procedure delta.
        std::stringstream ss;
        ss.write("TOPB", 4);
        ss.put(1);  // version
        ss.put(2);  // proc_count
        ss.put(1);  // run_count
        ss.put(8);  // zigzag(4): proc 4 of 2
        ss.put(0);  // offset
        ss.put(1);  // length
        EXPECT_THROW(readBinaryTrace(ss), TopoError);
    }
    {
        // A delta of 2^63 - 1 after proc 1 must be rejected without
        // signed overflow (UBSan flags the overflow itself).
        std::stringstream ss;
        ss.write("TOPB", 4);
        ss.put(1);  // version
        ss.put(4);  // proc_count
        ss.put(2);  // run_count
        ss.put(2);  // zigzag(1): proc 1
        ss.put(0);  // offset
        ss.put(1);  // length
        ss.put(static_cast<char>(0xFE)); // zigzag(2^63 - 1) = 2^64 - 2
        for (int i = 0; i < 8; ++i)
            ss.put(static_cast<char>(0xFF));
        ss.put(1);
        ss.put(0);  // offset
        ss.put(1);  // length
        EXPECT_THROW(readBinaryTrace(ss), TopoError);
    }
}

TEST(BinaryTrace, FileRoundTripAndAutoDetect)
{
    const Trace trace = randomTrace(20, 1000, 4);
    const ScopedTempDir tmp;
    const std::string bin_path = tmp.file("trace_binary_test.tpb");
    const std::string txt_path = tmp.file("trace_binary_test.txt");
    saveBinaryTrace(bin_path, trace);
    saveTrace(txt_path, trace);

    const Trace from_bin = loadAnyTrace(bin_path);
    const Trace from_txt = loadAnyTrace(txt_path);
    ASSERT_EQ(from_bin.size(), trace.size());
    ASSERT_EQ(from_txt.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); i += 37) {
        EXPECT_EQ(from_bin.events()[i], trace.events()[i]);
        EXPECT_EQ(from_txt.events()[i], trace.events()[i]);
    }

    // A missing file is a user error that names the path.
    const std::string missing = tmp.file("missing.tpb");
    try {
        loadAnyTrace(missing);
        ADD_FAILURE() << "expected a TopoError";
    } catch (const TopoError &err) {
        EXPECT_EQ(err.code(), ErrCode::kUser);
        EXPECT_NE(std::string(err.what()).find(missing),
                  std::string::npos);
    }
    // An empty file is too short for either magic: corrupt input.
    const std::string empty = tmp.file("empty.tpb");
    { std::ofstream os(empty, std::ios::binary); }
    try {
        loadAnyTrace(empty);
        ADD_FAILURE() << "expected a TopoError";
    } catch (const TopoError &err) {
        EXPECT_EQ(err.code(), ErrCode::kCorrupt);
    }
}

TEST(BinaryTrace, LargeIdsAndValues)
{
    // Exercise multi-byte varints.
    Trace trace(100000);
    trace.append(99999, 4000000000u, 1000000u);
    trace.append(0, 0, 1);
    std::stringstream ss;
    writeBinaryTrace(ss, trace);
    const Trace back = readBinaryTrace(ss);
    EXPECT_EQ(back.events()[0].offset, 4000000000u);
    EXPECT_EQ(back.events()[0].length, 1000000u);
    EXPECT_EQ(back.events()[1].proc, 0u);
}

} // namespace
} // namespace topo
