/**
 * @file
 * Run-provenance manifest: which build produced which numbers.
 *
 * Bench trajectories are only comparable when each snapshot says what
 * produced it. The build-time facts (git sha, build type, compiler)
 * are baked in by CMake via a configured header; runtime facts (cache
 * geometry, job count, trace scale, ...) are registered by the tool
 * with setProvenance() as soon as they are resolved. provenanceJson()
 * renders the combined manifest, and every --metrics-out and
 * --bench-out document embeds it under "provenance".
 */

#ifndef TOPO_OBS_PROVENANCE_HH
#define TOPO_OBS_PROVENANCE_HH

#include <string>

#include "topo/obs/json.hh"

namespace topo
{

/** Short git sha of the configured source tree ("unknown" outside git). */
const char *buildGitSha();

/** CMAKE_BUILD_TYPE the binaries were configured with. */
const char *buildTypeName();

/** Compiler id and version that built the binaries. */
const char *buildCompiler();

/**
 * Register a runtime provenance fact (e.g. "jobs" -> "4"). Re-setting
 * a key overwrites it; keys render in sorted order for determinism.
 * Thread-safe.
 */
void setProvenance(const std::string &key, const std::string &value);

/**
 * The manifest: {"git_sha": ..., "build_type": ..., "compiler": ...}
 * plus every runtime fact registered so far, all string-valued.
 */
JsonValue provenanceJson();

} // namespace topo

#endif // TOPO_OBS_PROVENANCE_HH
