#include "topo/cache/simulate.hh"

#include <type_traits>

#include "topo/cache/attribution.hh"
#include "topo/cache/direct_mapped_cache.hh"
#include "topo/cache/set_associative_cache.hh"
#include "topo/cache/taxonomy.hh"
#include "topo/obs/log.hh"
#include "topo/obs/metrics.hh"
#include "topo/obs/phase_timer.hh"
#include "topo/obs/timeline.hh"
#include "topo/util/arena.hh"
#include "topo/util/error.hh"

namespace topo
{

namespace
{

/**
 * Per-thread scratch for the replay's line-address table. reset() +
 * re-alloc per replay reuses the grown buffer, so after the first
 * (largest) replay on a thread the steady-state loop performs no heap
 * allocation (asserted by attribution_test's allocation hooks).
 */
thread_local util::Arena t_replay_arena;

/** Emit a progress heartbeat every this many line fetches. */
constexpr std::uint64_t kHeartbeatMask = (1ULL << 23) - 1; // ~8.4M

/**
 * Shared replay loop; Cache is DirectMappedCache or a PolicyCache
 * instantiation, all exposing bool access(uint64). The observed
 * (attribution/taxonomy/timeline) variant is compiled separately so
 * the other paths pay nothing for observation sinks; @p heartbeat
 * (debug logging) moves the plain replay off the batch so progress
 * can be reported per reference.
 */
template <typename Cache, bool kObserved>
SimResult
replay(const Program &program, const Layout &layout,
       const FetchStream &stream, Cache &cache, bool attribute,
       bool heartbeat, const SimObservers *observers)
{
    // Precompute the placed address of every program line so the hot
    // loop is one table load per run + a cache probe per reference.
    // The stream's runs name program line ids; this table is the only
    // part that changes between candidate layouts.
    // 32-bit entries keep the table half the size (it is the loop's
    // only randomly-indexed load besides the frame array, and at
    // paper-suite scale it overflows L1); a 2^32-line layout span
    // would be a 256 GiB text segment, so the check never fires in
    // practice.
    t_replay_arena.reset();
    std::span<std::uint32_t> addr_of =
        t_replay_arena.alloc<std::uint32_t>(stream.programLineCount());
    for (std::size_t i = 0; i < program.procCount(); ++i) {
        const ProcId proc = static_cast<ProcId>(i);
        const std::uint64_t base =
            layout.startLine(proc, stream.lineBytes());
        const std::uint32_t first = stream.lineBase(proc);
        const std::uint32_t last =
            stream.lineBase(static_cast<ProcId>(i + 1));
        require(base + (last - first) <= ~std::uint32_t{0},
                "simulateLayout: layout spans more than 2^32 cache "
                "lines");
        for (std::uint32_t id = first; id < last; ++id)
            addr_of[id] =
                static_cast<std::uint32_t>(base + (id - first));
    }

    SimResult result;
    result.accesses = stream.size();
    if (attribute)
        result.misses_by_proc.assign(program.procCount(), 0);

    (void)observers; // only read in the observed instantiation
    if constexpr (!kObserved) {
        // Plain unattributed replay — the configuration every
        // placement-evaluation call hits — goes through the cache's
        // run-batched access loop (branchless on the direct-mapped
        // model), probing each run's consecutive line addresses from a
        // single table lookup and skipping cache-resident repeats
        // outright.
        if (!attribute && !heartbeat) {
            const std::uint32_t *const table = addr_of.data();
            const FetchRun *const runs = stream.runs().data();
            result.misses += cache.accessRunBatch(
                stream.runs().size(), [table, runs](std::size_t r) {
                    return std::tuple<std::uint64_t, std::uint32_t,
                                      std::uint32_t>(
                        table[runs[r].first_line], runs[r].line_count,
                        runs[r].repeats);
                });
            return result;
        }
    }
    // Every other path expands each run inline, one reference at a
    // time in stream order, so every observer sees the full sequence.
    // A run's lines sit at consecutive placed addresses.
    std::uint64_t done = 0; // counted only with a heartbeat
    for (const FetchRun &run : stream.runs()) {
        const ProcId proc = stream.procOfLine(run.first_line);
        const std::uint64_t base = addr_of[run.first_line];
        for (std::uint32_t rep = 0; rep < run.repeats; ++rep) {
            for (std::uint32_t i = 0; i < run.line_count; ++i) {
                const std::uint64_t line_addr = base + i;
                if constexpr (kObserved) {
                    std::uint32_t set = 0;
                    std::uint64_t victim = 0;
                    bool victim_valid = false;
                    const bool hit = cache.accessTracked(
                        line_addr, set, victim, victim_valid);
                    if (observers->attribution != nullptr)
                        observers->attribution->recordAccess(proc, set);
                    if (!hit) {
                        ++result.misses;
                        if (attribute)
                            ++result.misses_by_proc[proc];
                        if (observers->attribution != nullptr) {
                            observers->attribution->recordMiss(
                                proc, set, victim, victim_valid);
                        }
                    }
                    if (observers->taxonomy != nullptr) {
                        // Classify before timeline->record(): record()
                        // may close the window this fetch belongs to.
                        const TaxonomyEvent event =
                            observers->taxonomy->record(
                                proc, run.first_line + i, hit);
                        if (observers->timeline != nullptr)
                            observers->timeline->noteTaxonomy(event);
                    }
                    if (observers->timeline != nullptr)
                        observers->timeline->record(proc, !hit);
                } else if (!cache.access(line_addr)) {
                    ++result.misses;
                    if (attribute)
                        ++result.misses_by_proc[proc];
                }
                if (heartbeat && (++done & kHeartbeatMask) == 0) {
                    logDebug("simulate", "progress",
                             {{"done", done},
                              {"total", result.accesses},
                              {"misses", result.misses}});
                }
            }
        }
    }
    return result;
}

} // namespace

SimResult
simulateLayout(const Program &program, const Layout &layout,
               const FetchStream &stream, const CacheConfig &config,
               bool attribute, const SimObservers *observers)
{
    require(stream.lineBytes() == config.line_bytes,
            "simulateLayout: stream line size does not match cache config");
    const bool observed = observers != nullptr && observers->any();
    PhaseTimer timer("simulate");
    SimResult result;
    const bool heartbeat = logEnabled(LogLevel::kDebug);
    auto run = [&](auto &cache) {
        using Cache = std::remove_reference_t<decltype(cache)>;
        result = observed
                     ? replay<Cache, true>(program, layout, stream, cache,
                                           attribute, heartbeat, observers)
                     : replay<Cache, false>(program, layout, stream, cache,
                                            attribute, heartbeat, nullptr);
        // Caches start empty and lines never invalidate, so each miss
        // either filled an empty frame or displaced a valid line.
        result.evictions = result.misses - cache.validLineCount();
    };
    if (config.associativity == 1) {
        // One way leaves no replacement choice: every policy
        // degenerates to the direct-mapped model (verified by test),
        // so the branchless fast path serves them all.
        DirectMappedCache cache(config);
        run(cache);
    } else {
        switch (config.policy) {
          case ReplacementPolicy::kLru: {
            PolicyCache<TrueLruPolicy> cache(config);
            run(cache);
            break;
          }
          case ReplacementPolicy::kPlru: {
            PolicyCache<TreePlruPolicy> cache(config);
            run(cache);
            break;
          }
          case ReplacementPolicy::kSrrip: {
            PolicyCache<SrripPolicy> cache(config);
            run(cache);
            break;
          }
          case ReplacementPolicy::kFifo: {
            PolicyCache<FifoPolicy> cache(config);
            run(cache);
            break;
          }
          case ReplacementPolicy::kRandom: {
            PolicyCache<RandomPolicy> cache(config);
            run(cache);
            break;
          }
        }
    }
    if (observed && observers->timeline != nullptr)
        observers->timeline->finish();
    timer.stop();

    MetricsRegistry &metrics = MetricsRegistry::current();
    metrics.counter("cache.simulations").add();
    metrics.counter("cache.accesses").add(result.accesses);
    metrics.counter("cache.misses").add(result.misses);
    metrics.counter("cache.evictions").add(result.evictions);
    if (observed && observers->attribution != nullptr) {
        const AttributionSink &sink = *observers->attribution;
        metrics.counter("attribution.evictions").add(sink.evictions());
        metrics.counter("attribution.dropped_pairs")
            .add(sink.droppedPairs());
        metrics.gauge("attribution.tracked_pairs")
            .set(static_cast<double>(sink.trackedPairs()));
    }
    if (observed && observers->taxonomy != nullptr) {
        const TaxonomySink &sink = *observers->taxonomy;
        metrics.counter("taxonomy.compulsory").add(sink.compulsory());
        metrics.counter("taxonomy.capacity").add(sink.capacity());
        metrics.counter("taxonomy.conflict").add(sink.conflict());
        const auto &hist = sink.reuseHistogram();
        for (std::size_t b = 0; b < hist.size(); ++b) {
            if (hist[b] == 0)
                continue;
            metrics.counter(reuseBucketMetricName(b)).add(hist[b]);
        }
    }
    if (logEnabled(LogLevel::kDebug)) {
        logDebug("simulate", "replay finished",
                 {{"cache", config.describe()},
                  {"accesses", result.accesses},
                  {"misses", result.misses},
                  {"evictions", result.evictions},
                  {"miss_rate", result.missRate()},
                  {"ms", timer.elapsedMs()}});
    }
    return result;
}

double
layoutMissRate(const Program &program, const Layout &layout,
               const FetchStream &stream, const CacheConfig &config)
{
    return simulateLayout(program, layout, stream, config).missRate();
}

} // namespace topo
