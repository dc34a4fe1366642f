/**
 * @file
 * Umbrella header and CLI glue for the resilience layer.
 *
 * Every CLI tool runs through toolMain(), which owns the shared
 * option plumbing (help, unknown-option rejection, observability and
 * fault-plan setup) and translates failures into the stable exit
 * codes documented in error.hh:
 *
 *   0 ok / 1 user error / 2 corrupt input / 3 internal error
 *
 * Standard knobs accepted by every tool (also via TOPO_* environment):
 *
 *   --fault-spec=KIND@P[:seed][,...]  arm deterministic fault injection
 *   --crash-at=SITE[:N]  terminate the process at the N-th visit of a
 *     named crash-point site (profile-store crash drills)
 *   --log-level / --log-file / --metrics-out / --trace-out
 *     (observability layer; --trace-out emits Chrome trace events)
 *   --jobs=N  worker threads for parallel phases (default: hardware
 *     concurrency; results are bit-identical for every N, DESIGN.md §9)
 */

#ifndef TOPO_RESILIENCE_RESILIENCE_HH
#define TOPO_RESILIENCE_RESILIENCE_HH

#include <string>
#include <vector>

#include "topo/resilience/crc32.hh"
#include "topo/resilience/fault.hh"
#include "topo/util/options.hh"

namespace topo
{

/**
 * Install the process-wide fault plan from --fault-spec /
 * TOPO_FAULT_SPEC. No-op when the option is absent. Throws a
 * user-error TopoError on a malformed spec.
 */
void initResilience(const Options &opts);

/** What a CLI tool hands to toolMain. */
struct ToolSpec
{
    /** Tool name used in error messages ("topo_sim"). */
    const char *name;
    /** Full help text, printed verbatim for --help / no arguments. */
    const char *usage;
    /** Tool-specific option names; the standard knobs are implied. */
    std::vector<std::string> options;
    /** The tool body; its return value is the exit code on success. */
    int (*run)(const Options &);
};

/**
 * Shared CLI main: parse options, print help, reject unknown options
 * with a "did you mean" hint, set up observability and fault
 * injection, run the tool, write metrics, and map every failure to
 * its stable exit code. Never throws.
 */
int toolMain(int argc, const char *const *argv, const ToolSpec &spec);

} // namespace topo

#endif // TOPO_RESILIENCE_RESILIENCE_HH
