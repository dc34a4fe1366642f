/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum
 * guarding the v2 binary trace chunks and the profile store. A
 * plain table-driven implementation: the payloads it covers are read
 * once per run, so portability beats hardware-assisted throughput
 * here, and the library gains no external dependency.
 */

#ifndef TOPO_RESILIENCE_CRC32_HH
#define TOPO_RESILIENCE_CRC32_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace topo
{

/**
 * Update a running CRC-32 with @p size bytes.
 *
 * @param crc  Previous value (use 0 to start a fresh checksum).
 * @param data Bytes to absorb.
 * @param size Number of bytes.
 * @return Updated checksum.
 */
std::uint32_t crc32Update(std::uint32_t crc, const void *data,
                          std::size_t size);

/** One-shot CRC-32 of a byte buffer. */
inline std::uint32_t
crc32(const void *data, std::size_t size)
{
    return crc32Update(0, data, size);
}

/** One-shot CRC-32 of a string's bytes. */
inline std::uint32_t
crc32(const std::string &bytes)
{
    return crc32Update(0, bytes.data(), bytes.size());
}

} // namespace topo

#endif // TOPO_RESILIENCE_CRC32_HH
