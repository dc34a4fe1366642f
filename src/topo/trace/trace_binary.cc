#include "topo/trace/trace_binary.hh"

#include <algorithm>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <string_view>

#include "topo/obs/log.hh"
#include "topo/obs/metrics.hh"
#include "topo/resilience/crc32.hh"
#include "topo/resilience/durable_io.hh"
#include "topo/resilience/fault.hh"
#include "topo/trace/trace_io.hh"
#include "topo/util/error.hh"

namespace topo
{

namespace
{

constexpr char kMagic[4] = {'T', 'O', 'P', 'B'};
constexpr std::uint32_t kVersionV1 = 1;
constexpr std::uint32_t kVersionV2 = 2;

/**
 * Validation ceilings for size fields read from untrusted input. A
 * header field is never trusted for an allocation before it clears
 * these bounds (a 12-byte file must not make us reserve 2^60 slots).
 */
constexpr std::uint64_t kMaxProcCount = 1ULL << 31;
constexpr std::uint64_t kMaxChunkRecords = 1ULL << 22;
/** Worst-case encoded record: 10+5+5 varint bytes, rounded up. */
constexpr std::uint64_t kMaxRecordBytes = 30;
/** Cap speculative reserve() for v1 headers (append still grows). */
constexpr std::uint64_t kReserveCap = 1ULL << 20;

void
putVarint(std::string &out, std::uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<char>(0x80 | (value & 0x7f)));
        value >>= 7;
    }
    out.push_back(static_cast<char>(value));
}

void
putVarint(std::ostream &os, std::uint64_t value)
{
    while (value >= 0x80) {
        os.put(static_cast<char>(0x80 | (value & 0x7f)));
        value >>= 7;
    }
    os.put(static_cast<char>(value));
}

/**
 * Read one LEB128 varint at @p pos. This runs three times per record,
 * so the error text is built only when the read fails.
 */
std::uint64_t
getVarint(std::string_view buf, std::size_t &pos, const char *what)
{
    std::uint64_t value = 0;
    for (int shift = 0;; shift += 7) {
        if (pos >= buf.size())
            failCorrupt(std::string("truncated varint in ") + what);
        if (shift >= 64)
            failCorrupt(std::string("varint overflow in ") + what);
        const int byte = static_cast<unsigned char>(buf[pos++]);
        value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return value;
    }
}

std::uint64_t
zigzag(std::int64_t value)
{
    return (static_cast<std::uint64_t>(value) << 1) ^
           static_cast<std::uint64_t>(value >> 63);
}

std::int64_t
unzigzag(std::uint64_t value)
{
    return static_cast<std::int64_t>(value >> 1) ^
           -static_cast<std::int64_t>(value & 1);
}

/** Decode the run at @p pos; shared by the v1 body and v2 payloads. */
TraceEvent
decodeRecord(std::string_view buf, std::size_t &pos, const char *what,
             std::uint64_t &prev_proc, std::uint64_t proc_count)
{
    const std::uint64_t zz = getVarint(buf, pos, what);
    const std::uint64_t offset = getVarint(buf, pos, what);
    const std::uint64_t length = getVarint(buf, pos, what);
    // Unsigned, so a hostile delta wraps instead of overflowing; a
    // negative id wraps past proc_count and is rejected with the rest.
    const std::uint64_t proc =
        prev_proc + static_cast<std::uint64_t>(unzigzag(zz));
    if (proc >= proc_count)
        failCorrupt("readBinaryTrace: procedure id out of range");
    if (offset > ~std::uint32_t{0} || length > ~std::uint32_t{0})
        failCorrupt("readBinaryTrace: field overflow");
    prev_proc = proc;
    return TraceEvent{static_cast<ProcId>(proc),
                      static_cast<std::uint32_t>(offset),
                      static_cast<std::uint32_t>(length)};
}

/** The header in front of each v2 chunk payload. */
struct ChunkHeader
{
    std::uint64_t records = 0;
    std::uint64_t payload_bytes = 0;
    std::uint32_t crc = 0;
};

/**
 * Parse the v2 chunk header at @p pos and leave @p pos on the payload.
 * Both size fields are bounded before anything trusts them, so
 * pos + payload_bytes cannot wrap. Whether the whole payload is
 * present is the caller's check.
 */
ChunkHeader
parseChunkHeader(std::string_view buf, std::size_t &pos)
{
    ChunkHeader header;
    header.records = getVarint(buf, pos, "v2 chunk header");
    if (header.records == 0 || header.records > kMaxChunkRecords) {
        failCorrupt("readBinaryTrace: implausible chunk record count " +
                    std::to_string(header.records));
    }
    header.payload_bytes = getVarint(buf, pos, "v2 chunk header");
    if (header.payload_bytes > header.records * kMaxRecordBytes) {
        failCorrupt("readBinaryTrace: implausible chunk payload size " +
                    std::to_string(header.payload_bytes));
    }
    if (buf.size() - pos < 4)
        failCorrupt("readBinaryTrace: truncated chunk checksum");
    for (int i = 0; i < 4; ++i) {
        header.crc |= static_cast<std::uint32_t>(
                          static_cast<unsigned char>(buf[pos + i]))
                      << (8 * i);
    }
    pos += 4;
    return header;
}

/**
 * Decode the v2 chunk at @p pos into @p out (cleared first; the caller
 * reuses it) and move @p pos past the chunk. Fault hooks: throw_io
 * before the header, then a short read over the payload bytes present
 * and a bit flip on the payload, which is why @p image is writable.
 */
void
decodeChunk(std::string &image, std::size_t &pos,
            std::uint64_t proc_count, std::vector<TraceEvent> &out)
{
    faultMaybeThrowIo("trace_binary.chunk");
    const ChunkHeader header = parseChunkHeader(image, pos);
    const std::size_t size = static_cast<std::size_t>(
        std::min<std::uint64_t>(header.payload_bytes,
                                image.size() - pos));
    if (faultMaybeShortenRead("trace_binary.payload", size) !=
        header.payload_bytes) {
        failCorrupt("readBinaryTrace: truncated chunk payload");
    }
    char *payload = image.data() + pos;
    faultMaybeCorrupt("trace_binary.payload", payload, size);
    if (crc32(payload, size) != header.crc)
        failCorrupt("readBinaryTrace: chunk CRC mismatch");

    const std::string_view records(payload, size);
    out.clear();
    out.reserve(static_cast<std::size_t>(header.records));
    std::size_t at = 0;
    std::uint64_t prev_proc = 0;
    for (std::uint64_t i = 0; i < header.records; ++i) {
        out.push_back(decodeRecord(records, at, "v2 record", prev_proc,
                                   proc_count));
    }
    if (at != size)
        failCorrupt("readBinaryTrace: trailing bytes in chunk payload");
    pos += size;
}

/** v1 body: one undelimited run stream (salvageable per record). */
Trace
decodeBodyV1(std::string_view image, std::size_t pos,
             std::uint64_t proc_count, std::uint64_t run_count,
             const TraceReadOptions &ropts)
{
    Trace trace(proc_count);
    trace.reserve(static_cast<std::size_t>(
        std::min(run_count, kReserveCap)));
    std::uint64_t prev_proc = 0;
    std::uint64_t got = 0;
    try {
        for (; got < run_count; ++got) {
            const TraceEvent ev = decodeRecord(
                image, pos, "v1 record", prev_proc, proc_count);
            trace.append(ev.proc, ev.offset, ev.length);
        }
    } catch (const TopoError &) {
        if (!ropts.recover)
            throw;
    }
    if (got < run_count) {
        if (!ropts.recover) {
            failCorrupt("readBinaryTrace: trace promises " +
                        std::to_string(run_count) + " records, found " +
                        std::to_string(got));
        }
        MetricsRegistry &metrics = MetricsRegistry::current();
        metrics.counter("trace.dropped_records").add(run_count - got);
        logWarn("trace", "salvaged v1 binary trace",
                {{"records_recovered", got},
                 {"records_dropped", run_count - got}});
        if (ropts.report != nullptr) {
            ropts.report->recovered = true;
            ropts.report->records_recovered = got;
            ropts.report->records_dropped = run_count - got;
        }
    } else if (ropts.report != nullptr) {
        ropts.report->records_recovered = got;
    }
    return trace;
}

/** v2 body: CRC-guarded chunks (salvageable per chunk). */
Trace
decodeBodyV2(std::string &image, std::size_t pos,
             std::uint64_t proc_count, std::uint64_t run_count,
             const TraceReadOptions &ropts)
{
    Trace trace(proc_count);
    trace.reserve(static_cast<std::size_t>(
        std::min(run_count, kReserveCap)));
    std::uint64_t chunks = 0;
    std::uint64_t got = 0;
    bool bad_chunk = false;
    std::vector<TraceEvent> chunk;
    while (pos < image.size()) {
        try {
            decodeChunk(image, pos, proc_count, chunk);
        } catch (const TopoError &) {
            if (!ropts.recover)
                throw;
            bad_chunk = true;
            break;
        }
        for (const TraceEvent &ev : chunk)
            trace.append(ev.proc, ev.offset, ev.length);
        got += chunk.size();
        ++chunks;
    }
    if (got != run_count || bad_chunk) {
        if (!ropts.recover) {
            failCorrupt("readBinaryTrace: trace promises " +
                        std::to_string(run_count) + " records, found " +
                        std::to_string(got));
        }
        const std::uint64_t dropped =
            run_count > got ? run_count - got : 0;
        MetricsRegistry &metrics = MetricsRegistry::current();
        metrics.counter("trace.recovered_chunks").add(chunks);
        metrics.counter("trace.dropped_records").add(dropped);
        logWarn("trace", "salvaged corrupt/truncated trace",
                {{"chunks_recovered", chunks},
                 {"records_recovered", got},
                 {"records_dropped", dropped}});
        if (ropts.report != nullptr) {
            ropts.report->recovered = true;
            ropts.report->chunks_recovered = chunks;
            ropts.report->records_recovered = got;
            ropts.report->records_dropped = dropped;
        }
    } else if (ropts.report != nullptr) {
        ropts.report->chunks_recovered = chunks;
        ropts.report->records_recovered = got;
    }
    return trace;
}

/**
 * Decode a whole binary trace image (v1 or v2). The image is owned
 * and writable so the payload bit-flip fault hook can damage it in
 * place.
 */
Trace
decodeImage(std::string &image, const TraceReadOptions &ropts)
{
    faultMaybeThrowIo("trace_binary.header");
    requireData(image.size() >= 4 &&
                    std::equal(kMagic, kMagic + 4, image.begin()),
                "readBinaryTrace: bad magic");
    std::size_t pos = 4;
    const std::uint64_t version = getVarint(image, pos, "header");
    requireData(version == kVersionV1 || version == kVersionV2,
                "readBinaryTrace: unsupported version " +
                    std::to_string(version));
    const std::uint64_t proc_count = getVarint(image, pos, "header");
    requireData(proc_count <= kMaxProcCount,
                "readBinaryTrace: implausible procedure count " +
                    std::to_string(proc_count));
    const std::uint64_t run_count = getVarint(image, pos, "header");
    if (version == kVersionV1)
        return decodeBodyV1(image, pos, proc_count, run_count, ropts);
    return decodeBodyV2(image, pos, proc_count, run_count, ropts);
}

} // namespace

void
writeBinaryTrace(std::ostream &os, const Trace &trace,
                 const TraceWriteOptions &wopts)
{
    const std::size_t per_chunk =
        std::max<std::size_t>(1, wopts.records_per_chunk);
    os.write(kMagic, sizeof(kMagic));
    putVarint(os, kVersionV2);
    putVarint(os, trace.procCount());
    putVarint(os, trace.size());
    const std::vector<TraceEvent> &events = trace.events();
    std::string payload;
    for (std::size_t begin = 0; begin < events.size();
         begin += per_chunk) {
        const std::size_t end =
            std::min(events.size(), begin + per_chunk);
        payload.clear();
        std::int64_t prev_proc = 0;
        for (std::size_t i = begin; i < end; ++i) {
            const TraceEvent &ev = events[i];
            putVarint(payload,
                      zigzag(static_cast<std::int64_t>(ev.proc) -
                             prev_proc));
            putVarint(payload, ev.offset);
            putVarint(payload, ev.length);
            prev_proc = static_cast<std::int64_t>(ev.proc);
        }
        putVarint(os, end - begin);
        putVarint(os, payload.size());
        const std::uint32_t crc = crc32(payload);
        for (int i = 0; i < 4; ++i)
            os.put(static_cast<char>((crc >> (8 * i)) & 0xFF));
        os.write(payload.data(),
                 static_cast<std::streamsize>(payload.size()));
    }
    require(os.good(), "writeBinaryTrace: stream failure");
}

Trace
readBinaryTrace(std::istream &is, const TraceReadOptions &ropts)
{
    std::string image{std::istreambuf_iterator<char>(is),
                      std::istreambuf_iterator<char>()};
    return decodeImage(image, ropts);
}

void
saveBinaryTrace(const std::string &path, const Trace &trace,
                const TraceWriteOptions &wopts)
{
    std::ofstream os(path, std::ios::binary);
    require(os.good(), "saveBinaryTrace: cannot open '" + path + "'");
    writeBinaryTrace(os, trace, wopts);
    require(os.good(), "saveBinaryTrace: write failed for '" + path +
                           "'");
}

Trace
loadAnyTrace(const std::string &path, const TraceReadOptions &ropts)
{
    std::string image = readWholeFile(path);
    requireData(image.size() >= 4, "loadAnyTrace: file too short",
                path);
    if (std::equal(kMagic, kMagic + 4, image.begin()))
        return decodeImage(image, ropts);
    std::istringstream is(std::move(image));
    return readTrace(is, ropts);
}

std::vector<ChunkExtent>
scanBinaryTraceChunks(const std::string &bytes)
{
    requireData(bytes.size() >= 4 &&
                    std::equal(kMagic, kMagic + 4, bytes.begin()),
                "scanBinaryTraceChunks: bad magic");
    std::size_t pos = 4;
    const std::uint64_t version = getVarint(bytes, pos, "header");
    requireData(version == kVersionV2,
                "scanBinaryTraceChunks: not a v2 trace");
    getVarint(bytes, pos, "header"); // proc_count
    getVarint(bytes, pos, "header"); // run_count
    std::vector<ChunkExtent> extents;
    while (pos < bytes.size()) {
        ChunkExtent extent;
        extent.begin = pos;
        const ChunkHeader header = parseChunkHeader(bytes, pos);
        requireData(header.payload_bytes <= bytes.size() - pos,
                    "scanBinaryTraceChunks: truncated chunk");
        pos += static_cast<std::size_t>(header.payload_bytes);
        extent.end = pos;
        extent.records = header.records;
        extents.push_back(extent);
    }
    return extents;
}

} // namespace topo
