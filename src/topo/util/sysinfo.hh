/**
 * @file
 * Small process/system introspection helpers for the bench harness:
 * peak resident set size and UTC timestamps for --bench-out records.
 */

#ifndef TOPO_UTIL_SYSINFO_HH
#define TOPO_UTIL_SYSINFO_HH

#include <cstdint>
#include <string>

namespace topo
{

/**
 * Peak resident set size of this process in kilobytes; 0 when the
 * platform does not expose it.
 */
std::uint64_t peakRssKb();

/** Current UTC time as "YYYY-MM-DDTHH:MM:SSZ". */
std::string utcTimestamp();

/** Current UTC date as "YYYYMMDD". */
std::string utcDateCompact();

} // namespace topo

#endif // TOPO_UTIL_SYSINFO_HH
