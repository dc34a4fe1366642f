/**
 * @file
 * pipeline_bench: one workload of the pipeline benchmark.
 *
 *   pipeline_bench --workload=suite-exact --seed=1 --seconds=20
 *                    --trace=0 --out=result.json
 *                    [--canonical-out=lockstep.json] [--spans-out=FILE]
 *
 * Set-up (input synthesis, plus the unperturbed profile on
 * perturb-sweep) runs several times and is timed on its own. Then
 * whole passes run back to back, one at a time (a closed loop), for at
 * least --seconds. With --trace=1 every other pass records spans
 * around each layer call, and per-layer self times come from those.
 * After the timed passes, untimed checks compare every result with the
 * naive reference cache, with ProfileBundle, and across passes (and
 * across --jobs on suite-parallel). The run's result goes to --out as
 * JSON; perfbench/run.py turns it into the benchmark's report.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pipeline.hh"
#include "reference_cache.hh"
#include "spans.hh"
#include "topo/cache/simulate.hh"
#include "topo/eval/reports.hh"
#include "topo/exec/exec.hh"
#include "topo/obs/json.hh"
#include "topo/obs/metrics.hh"
#include "topo/obs/provenance.hh"
#include "topo/profile/perturb.hh"
#include "topo/util/options.hh"

namespace
{

using namespace perfbench;
using topo::JsonValue;

/** Trace scale of the two suite workloads. */
constexpr double kSuiteScale = 0.2;
/** Trace scale of suite-sampled: at least 5, so ≤2% is replayed. */
constexpr double kSampledScale = 5.0;
/** Trace scale of perturb-sweep. */
constexpr double kPerturbScale = 0.5;
/** Perturbed repetitions per (benchmark, algorithm) on perturb-sweep. */
constexpr std::size_t kRepetitions = 10;
/** Sampled estimates further than this from the exact miss rate fail. */
constexpr double kSampleTolerance = 0.02;
/** A seed no tuning run used; later claims are re-checked on it. */
constexpr std::uint64_t kHeldOutSeed = 20261017;
/** Least share of a traced pass its layer spans must cover. */
constexpr double kMinSpanCoverage = 0.95;
/** Fewest timed passes of a run, whatever --seconds says. */
constexpr int kMinPasses = 3;
/**
 * Set-up repeats: at least kMinSetups, then more until kSetupBudgetS
 * seconds went into set-up or kMaxSetups ran; setup_s is the median.
 */
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 9;
constexpr double kSetupBudgetS = 2.0;

struct WorkloadSpec
{
    std::string name;
    std::vector<std::string> benchmarks;
    double scale = 1.0;
    int jobs = 1;
    bool fan_out = false;
    bool sampled = false;
    bool perturb = false;
};

WorkloadSpec
workloadSpec(const std::string &name)
{
    WorkloadSpec spec;
    spec.name = name;
    const int cores =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    if (name == "suite-exact" || name == "suite-parallel") {
        spec.benchmarks = topo::paperBenchmarkNames();
        spec.scale = kSuiteScale;
        if (name == "suite-parallel") {
            spec.jobs = std::min(4, cores);
            spec.fan_out = true;
        }
    } else if (name == "suite-sampled") {
        spec.benchmarks = {"m88ksim", "vortex"};
        spec.scale = kSampledScale;
        spec.sampled = true;
    } else if (name == "perturb-sweep") {
        spec.benchmarks = {"m88ksim", "vortex"};
        spec.scale = kPerturbScale;
        spec.perturb = true;
    } else {
        throw std::invalid_argument(
            "unknown workload '" + name +
            "' (suite-exact, suite-parallel, suite-sampled, "
            "perturb-sweep)");
    }
    return spec;
}

/** Linear-interpolated quantile q in [0, 1]; 0 for no values. */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Per name, the median of its values over @p maps (absent = 0). */
std::map<std::string, double>
medianByName(const std::vector<std::map<std::string, double>> &maps)
{
    std::map<std::string, std::vector<double>> values;
    for (const auto &map : maps)
        for (const auto &[name, value] : map)
            values[name];
    for (const auto &map : maps)
        for (auto &[name, list] : values) {
            const auto it = map.find(name);
            list.push_back(it == map.end() ? 0.0 : it->second);
        }
    std::map<std::string, double> out;
    for (const auto &[name, list] : values)
        out[name] = median(list);
    return out;
}

double
geomean(const std::vector<double> &values)
{
    double log_sum = 0.0;
    for (const double v : values)
        log_sum += std::log(v);
    return values.empty()
               ? 0.0
               : std::exp(log_sum / static_cast<double>(values.size()));
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
msSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) / 1e6;
}

/** One benchmark's results in one pass. */
struct BenchResult
{
    std::string name;
    std::uint64_t line_fetches = 0;
    std::uint64_t fetch_runs = 0;
    std::uint64_t proc_steps = 0;
    std::uint64_t wcg_edges = 0;
    std::uint64_t select_edges = 0;
    std::uint64_t place_edges = 0;
    std::uint64_t popular = 0;
    std::uint64_t windows = 0;
    std::uint64_t clusters = 0;
    std::uint64_t plan_replayed = 0;
    std::uint64_t plan_events = 0;
    std::vector<Cell> cells;
};

BenchResult
summarize(const Profile &profile)
{
    BenchResult r;
    r.name = profile.inputs->bench.name;
    r.line_fetches =
        profile.train_stream->size() + profile.test_stream->size();
    r.fetch_runs = profile.train_stream->runs().size() +
                   profile.test_stream->runs().size();
    r.proc_steps = profile.trg_proc_steps;
    r.wcg_edges = profile.wcg.edgeCount();
    r.select_edges = profile.trg_select.edgeCount();
    r.place_edges = profile.trg_place.edgeCount();
    r.popular = profile.popular.count;
    if (profile.sampled()) {
        for (const topo::SamplePlan *plan :
             {profile.train_plan.get(), profile.test_plan.get()}) {
            r.windows += plan->window_count;
            r.clusters += plan->cluster_count;
            r.plan_replayed += plan->replayed_events;
            r.plan_events += plan->total_events;
        }
    }
    return r;
}

/** Profile one benchmark and run its four cells. */
BenchResult
runBenchmark(const Inputs &inputs, const topo::EvalOptions &eval)
{
    BenchmarkScope tag(inputs.bench.name);
    const Profile profile = buildProfile(inputs, eval);
    BenchResult r = summarize(profile);
    for (const std::string &algo : algorithmNames())
        r.cells.push_back(runCell(profile, eval, algo));
    return r;
}

/** A pool task's result, its metrics registry and its latency. */
template <typename T>
struct PoolTask
{
    T value;
    std::unique_ptr<topo::MetricsRegistry> metrics;
    double ms = 0.0;
};

/**
 * Fan @p count tasks over the exec pool under span @p span, the way
 * topo_sim --benchmark does: each task records into its own metrics
 * registry, merged in index order afterwards.
 */
template <typename Fn>
auto
fanOut(const char *span, std::size_t count, Fn &&fn)
    -> std::vector<PoolTask<decltype(fn(std::size_t{}))>>
{
    using T = decltype(fn(std::size_t{}));
    std::vector<PoolTask<T>> tasks;
    {
        ScopedSpan fan(span);
        const int parent = currentSpan();
        tasks = topo::parallelMap(count, [&](std::size_t i) {
            ParentScope scope(parent);
            PoolTask<T> task;
            task.metrics = std::make_unique<topo::MetricsRegistry>();
            topo::MetricsScope metrics(*task.metrics);
            const std::int64_t start = nowNs();
            task.value = fn(i);
            task.ms = msSince(start);
            return task;
        });
    }
    for (const PoolTask<T> &task : tasks)
        topo::MetricsRegistry::current().mergeFrom(*task.metrics);
    return tasks;
}

/** What a check found; failures make the run incorrect. */
struct CheckLog
{
    std::vector<std::pair<std::string, std::string>> failures;
    std::vector<std::string> passed;

    void
    expect(bool ok, const std::string &what, const std::string &detail = "")
    {
        if (ok)
            passed.push_back(what);
        else
            failures.emplace_back(what, detail);
    }
};

bool
sameLayout(const topo::Layout &a, const topo::Layout &b)
{
    if (a.procCount() != b.procCount())
        return false;
    for (std::size_t i = 0; i < a.procCount(); ++i) {
        const auto id = static_cast<topo::ProcId>(i);
        if (a.address(id) != b.address(id))
            return false;
    }
    return true;
}

/** Whether two results of the same benchmark agree bit for bit. */
bool
sameResult(const BenchResult &a, const BenchResult &b)
{
    if (a.name != b.name || a.line_fetches != b.line_fetches ||
        a.fetch_runs != b.fetch_runs || a.proc_steps != b.proc_steps ||
        a.wcg_edges != b.wcg_edges || a.select_edges != b.select_edges ||
        a.place_edges != b.place_edges || a.popular != b.popular ||
        a.windows != b.windows || a.clusters != b.clusters ||
        a.cells.size() != b.cells.size())
        return false;
    for (std::size_t c = 0; c < a.cells.size(); ++c) {
        const Cell &x = a.cells[c];
        const Cell &y = b.cells[c];
        if (x.accesses != y.accesses || x.misses != y.misses ||
            x.est_misses != y.est_misses || !sameLayout(x.layout, y.layout))
            return false;
    }
    return true;
}

class WorkloadRun
{
  public:
    WorkloadRun(WorkloadSpec spec, std::uint64_t seed, double seconds,
           bool trace)
        : spec_(std::move(spec)), seed_(seed), seconds_(seconds),
          trace_(trace)
    {
        topo::Options opts;
        if (spec_.sampled)
            opts.set("sample", "simpoint");
        eval_ = topo::evalOptionsFrom(opts);
        eval_.sampling = topo::samplingFrom(opts);
        perturb_master_ = topo::Rng(mixedPerturbSeed());
    }

    void
    run()
    {
        topo::setExecJobs(spec_.jobs);
        runSetups();
        runPasses();
        peak_rss_mb_ = peakRssMb();
        spanLog().setEnabled(false);
        spanLog().setPass(-1);
        runChecks();
    }

    JsonValue result() const;
    void writeCanonical(const std::string &path) const;
    void writeSpans(std::ostream &os) const;

  private:
    std::uint64_t
    mixedPerturbSeed() const
    {
        // ComparisonOptions' default base seed, moved by the workload
        // seed so each seed draws its own noise.
        return 12345 ^ (seed_ * 0x9e3779b97f4a7c15ULL);
    }

    std::vector<Inputs> synthesizeAll() const;
    void runSetups();
    void runPasses();
    std::vector<BenchResult> suitePass(std::vector<double> &op_ms);
    void perturbPass(int pass, std::vector<double> &op_ms);
    void runChecks();
    void checkReference();
    void checkBundle();
    void checkJobsInvariance();
    std::size_t smallest() const;

    /** Median span coverage over the traced passes. */
    double
    spanCoverage() const
    {
        std::vector<double> coverage;
        for (const RootProfile &p : passes_)
            coverage.push_back(p.coverage);
        return median(coverage);
    }

    WorkloadSpec spec_;
    std::uint64_t seed_;
    double seconds_;
    bool trace_;
    topo::EvalOptions eval_;
    topo::Rng perturb_master_;

    std::vector<Inputs> inputs_;
    /** perturb-sweep: the unperturbed profiles and default cells. */
    std::vector<Profile> profiles_;
    std::vector<Cell> default_cells_;

    std::vector<double> setup_s_;
    std::vector<double> pass_wall_s_;
    std::vector<double> pass_cpu_s_;
    std::vector<bool> pass_traced_;
    std::vector<double> op_ms_;
    /** Benchmark index of each op_ms_ entry. */
    std::vector<std::size_t> op_bench_;
    double peak_rss_mb_ = 0.0;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;

    /** suite workloads: the first pass's results, per benchmark. */
    std::vector<BenchResult> first_;
    /** perturb-sweep: [bench][algo][rep] cell of the first draw. */
    std::vector<std::vector<std::vector<std::optional<Cell>>>> sweep_;
    /** What failed, for the checks' details. */
    std::vector<std::string> failed_cells_;
    double sample_abs_error_ = 0.0;
    bool has_sample_error_ = false;
    CheckLog checks_;
    /** Span summaries of the traced passes and of the set-ups. */
    std::vector<RootProfile> passes_;
    std::vector<RootProfile> setups_;
};

std::vector<Inputs>
WorkloadRun::synthesizeAll() const
{
    std::vector<Inputs> all;
    for (const std::string &name : spec_.benchmarks)
        all.push_back(synthesize(benchmarkCase(name, spec_.scale, seed_)));
    return all;
}

void
WorkloadRun::runSetups()
{
    spanLog().setEnabled(trace_);
    double spent = 0.0;
    for (int s = 0; s < kMinSetups ||
                    (s < kMaxSetups && spent < kSetupBudgetS);
         ++s) {
        profiles_.clear();
        default_cells_.clear();
        inputs_.clear();
        const std::int64_t start = nowNs();
        ScopedSpan root("setup");
        inputs_ = synthesizeAll();
        if (spec_.perturb) {
            // The unperturbed profile and the default layout do not
            // depend on the noise draw, so they are set-up work.
            for (const Inputs &in : inputs_) {
                BenchmarkScope tag(in.bench.name);
                profiles_.push_back(buildProfile(in, eval_));
                default_cells_.push_back(
                    runCell(profiles_.back(), eval_, "default"));
            }
        }
        setup_s_.push_back(msSince(start) / 1e3);
        spent += setup_s_.back();
    }
}

std::vector<BenchResult>
WorkloadRun::suitePass(std::vector<double> &op_ms)
{
    const std::size_t n = inputs_.size();
    if (!spec_.fan_out) {
        std::vector<BenchResult> results;
        for (const Inputs &in : inputs_) {
            const std::int64_t start = nowNs();
            results.push_back(runBenchmark(in, eval_));
            op_ms.push_back(msSince(start));
        }
        return results;
    }

    // topo_sim --benchmark's two phases: profiles fan out over the
    // pool (nested TRG sharding runs inline), then the cell grid does.
    auto profiled = fanOut("exec.profile_fanout", n, [&](std::size_t b) {
        BenchmarkScope tag(inputs_[b].bench.name);
        return buildProfile(inputs_[b], eval_);
    });
    const std::size_t algos = algorithmNames().size();
    auto cells = fanOut("exec.cell_fanout", n * algos, [&](std::size_t i) {
        const Profile &profile = profiled[i / algos].value;
        BenchmarkScope tag(profile.inputs->bench.name);
        return runCell(profile, eval_, algorithmNames()[i % algos]);
    });

    std::vector<BenchResult> results;
    for (std::size_t b = 0; b < n; ++b) {
        BenchResult r = summarize(profiled[b].value);
        double ms = profiled[b].ms;
        for (std::size_t a = 0; a < algos; ++a) {
            r.cells.push_back(std::move(cells[b * algos + a].value));
            ms += cells[b * algos + a].ms;
        }
        op_ms.push_back(ms);
        results.push_back(std::move(r));
    }
    return results;
}

void
WorkloadRun::perturbPass(int pass, std::vector<double> &op_ms)
{
    static const std::vector<std::string> algos = {"ph", "hkc", "gbsc"};
    const std::size_t rep = static_cast<std::size_t>(pass) % kRepetitions;
    if (sweep_.empty()) {
        sweep_.assign(profiles_.size(),
                      std::vector<std::vector<std::optional<Cell>>>(
                          algos.size(),
                          std::vector<std::optional<Cell>>(kRepetitions)));
    }
    for (std::size_t ai = 0; ai < algos.size(); ++ai) {
        for (std::size_t b = 0; b < profiles_.size(); ++b) {
            const Profile &profile = profiles_[b];
            BenchmarkScope tag(profile.inputs->bench.name);
            const std::int64_t start = nowNs();
            const PerturbedGraphs graphs = perturbProfile(
                profile, perturb_master_, ai, rep, topo::kPaperPerturbScale);
            Cell cell = runCell(profile, eval_, algos[ai], &graphs.wcg,
                                &graphs.trg_select, &graphs.trg_place);
            op_ms.push_back(msSince(start));
            ++attempted_;
            std::optional<Cell> &first = sweep_[b][ai][rep];
            if (!first) {
                first = std::move(cell);
            } else if (cell.misses != first->misses ||
                       !sameLayout(cell.layout, first->layout)) {
                ++failed_;
                failed_cells_.push_back(profile.inputs->bench.name + "/" +
                                        algos[ai] + "/rep" +
                                        std::to_string(rep) +
                                        " differs between passes");
            }
        }
    }
}

void
WorkloadRun::runPasses()
{
    const int min_passes =
        spec_.perturb ? static_cast<int>(kRepetitions) : kMinPasses;
    const std::int64_t start = nowNs();
    for (int pass = 0;
         pass < min_passes || msSince(start) < seconds_ * 1e3; ++pass) {
        // In the traced run every other pass is traced, so the
        // untraced passes give the baseline for the tracing overhead.
        const bool traced = trace_ && pass % 2 == 0;
        spanLog().setEnabled(traced);
        spanLog().setPass(pass);
        std::vector<double> op_ms;
        const double cpu0 = cpuSeconds();
        const std::int64_t t0 = nowNs();
        std::vector<BenchResult> results;
        {
            ScopedSpan root("pass");
            if (spec_.perturb)
                perturbPass(pass, op_ms);
            else
                results = suitePass(op_ms);
        }
        pass_wall_s_.push_back(msSince(t0) / 1e3);
        pass_cpu_s_.push_back(cpuSeconds() - cpu0);
        pass_traced_.push_back(traced);
        if (!traced) {
            // Ops run in benchmark order (perturb-sweep: per algorithm).
            for (std::size_t i = 0; i < op_ms.size(); ++i) {
                op_ms_.push_back(op_ms[i]);
                op_bench_.push_back(i % inputs_.size());
            }
        }
        if (spec_.perturb)
            continue;

        // Every pass must reproduce the first bit for bit.
        if (first_.empty()) {
            first_ = std::move(results);
            for (const BenchResult &r : first_)
                attempted_ += r.cells.size();
            continue;
        }
        for (std::size_t b = 0; b < results.size(); ++b) {
            attempted_ += results[b].cells.size();
            if (!sameResult(results[b], first_[b])) {
                failed_ += results[b].cells.size();
                failed_cells_.push_back(results[b].name + " pass " +
                                        std::to_string(pass) +
                                        " differs from pass 0");
            }
        }
    }
}

std::size_t
WorkloadRun::smallest() const
{
    std::size_t best = 0;
    for (std::size_t b = 1; b < inputs_.size(); ++b) {
        if (inputs_[b].train.size() < inputs_[best].train.size())
            best = b;
    }
    return best;
}

void
WorkloadRun::checkReference()
{
    // Gather every distinct cell, then replay each on the reference
    // model. The replays are independent, so they share a few threads.
    struct Item
    {
        std::size_t bench;
        const Cell *cell;
        ReferenceResult ref;
    };
    std::vector<Item> items;
    for (std::size_t b = 0; b < inputs_.size(); ++b) {
        if (spec_.perturb) {
            items.push_back({b, &default_cells_[b], {}});
            for (const auto &per_algo : sweep_[b])
                for (const auto &cell : per_algo)
                    if (cell)
                        items.push_back({b, &*cell, {}});
        } else {
            for (const Cell &cell : first_[b].cells)
                items.push_back({b, &cell, {}});
        }
    }
    const std::size_t lanes = std::min<std::size_t>(
        items.size(), std::max(1u, std::min(4u, std::thread::
                                                    hardware_concurrency())));
    std::vector<std::thread> threads;
    std::vector<std::string> errors(lanes);
    for (std::size_t t = 0; t < lanes; ++t) {
        threads.emplace_back([&, t] {
            try {
                for (std::size_t i = t; i < items.size(); i += lanes) {
                    const Inputs &in = inputs_[items[i].bench];
                    items[i].ref =
                        referenceReplay(in.bench.model.program,
                                        items[i].cell->layout, in.test,
                                        eval_.cache);
                }
            } catch (const std::exception &e) {
                errors[t] = e.what();
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (const std::string &error : errors)
        if (!error.empty())
            throw std::runtime_error(error);

    // A wrong first-pass cell is wrong in every pass it appeared in.
    const std::uint64_t copies = spec_.perturb ? 1 : pass_wall_s_.size();
    std::size_t bad = 0;
    for (const Item &item : items) {
        const Cell &cell = *item.cell;
        bool ok = item.ref.accesses == cell.accesses;
        std::string detail = "accesses " + std::to_string(cell.accesses) +
                             " vs " + std::to_string(item.ref.accesses);
        if (cell.sampled) {
            const double err =
                std::fabs(cell.missRate() - item.ref.missRate());
            sample_abs_error_ = std::max(sample_abs_error_, err);
            has_sample_error_ = true;
            ok = ok && err <= kSampleTolerance;
            detail += ", abs error " + std::to_string(err);
        } else {
            ok = ok && item.ref.misses == cell.misses;
            detail += ", misses " + std::to_string(cell.misses) + " vs " +
                      std::to_string(item.ref.misses);
        }
        if (!ok) {
            ++bad;
            failed_ += copies;
            failed_cells_.push_back(inputs_[item.bench].bench.name + "/" +
                                    cell.algorithm +
                                    " disagrees with the reference: " +
                                    detail);
        }
    }
    checks_.expect(bad == 0,
                   "reference cache (" + std::to_string(items.size()) +
                       " cells)",
                   bad == 0 ? "" : failed_cells_.back());
}

void
WorkloadRun::checkBundle()
{
    // ProfileBundle is the product path; the layer-by-layer
    // calls must land on exactly its graphs, layouts and misses.
    const std::size_t b = smallest();
    const Inputs &in = inputs_[b];
    const topo::ProfileBundle bundle(in.bench, eval_);
    const std::string who = "ProfileBundle lockstep (" + in.bench.name + ")";

    BenchResult mine;
    if (spec_.perturb) {
        mine = summarize(profiles_[b]);
        mine.cells.push_back(default_cells_[b]);
        for (const char *algo : {"ph", "hkc", "gbsc"})
            mine.cells.push_back(runCell(profiles_[b], eval_, algo));
    } else {
        mine = first_[b];
    }
    bool ok = bundle.wcg().edgeCount() == mine.wcg_edges &&
              bundle.trgSelect().edgeCount() == mine.select_edges &&
              bundle.trgPlace().edgeCount() == mine.place_edges &&
              bundle.popular().count == mine.popular &&
              bundle.trainStream().size() + bundle.testStream().size() ==
                  mine.line_fetches &&
              bundle.trainStream().runs().size() +
                      bundle.testStream().runs().size() ==
                  mine.fetch_runs;
    if (bundle.sampled()) {
        ok = ok && bundle.trainPlan().window_count +
                           bundle.testPlan().window_count ==
                       mine.windows &&
             bundle.trainPlan().cluster_count +
                     bundle.testPlan().cluster_count ==
                 mine.clusters;
    }
    std::string detail = ok ? "" : "profile counts differ";
    for (const Cell &cell : mine.cells) {
        const topo::Layout layout =
            algorithmByName(cell.algorithm).place(bundle.makeContext());
        bool same = sameLayout(layout, cell.layout);
        if (bundle.sampled()) {
            same = same &&
                   bundle.sampledTestResult(layout).est_misses ==
                       cell.est_misses;
        } else {
            same = same && topo::simulateLayout(bundle.program(), layout,
                                                bundle.testStream(),
                                                eval_.cache)
                                   .misses == cell.misses;
        }
        if (!same && detail.empty())
            detail = cell.algorithm + " layout or misses differ";
        ok = ok && same;
    }
    if (spec_.perturb) {
        // runComparison draws the same noise streams the sweep does.
        topo::ComparisonOptions cmp;
        cmp.repetitions = kRepetitions;
        cmp.scale = topo::kPaperPerturbScale;
        cmp.seed = mixedPerturbSeed();
        const std::vector<const topo::PlacementAlgorithm *> algos = {
            &algorithmByName("ph"), &algorithmByName("hkc"),
            &algorithmByName("gbsc")};
        const std::vector<topo::AlgorithmResult> results =
            topo::runComparison(bundle, algos, cmp);
        for (std::size_t ai = 0; ai < results.size(); ++ai) {
            for (std::size_t rep = 0; rep < kRepetitions; ++rep) {
                const std::optional<Cell> &cell = sweep_[b][ai][rep];
                const bool same =
                    cell && cell->missRate() == results[ai].perturbed[rep];
                if (!same && detail.empty())
                    detail = results[ai].algorithm + " rep " +
                             std::to_string(rep) + " differs from "
                             "runComparison";
                ok = ok && same;
            }
        }
    }
    checks_.expect(ok, who, detail);
}

void
WorkloadRun::checkJobsInvariance()
{
    // DESIGN.md §9: results do not depend on --jobs. Re-run the whole
    // suite serially and demand bit-identical results.
    topo::setExecJobs(1);
    bool ok = true;
    std::string detail;
    for (std::size_t b = 0; b < inputs_.size(); ++b) {
        const BenchResult serial = runBenchmark(inputs_[b], eval_);
        if (!sameResult(serial, first_[b])) {
            ok = false;
            if (detail.empty())
                detail = serial.name + " differs between jobs=1 and jobs=" +
                         std::to_string(spec_.jobs);
        }
    }
    topo::setExecJobs(spec_.jobs);
    checks_.expect(ok, "jobs invariance (jobs=1 vs jobs=" +
                           std::to_string(spec_.jobs) + ")",
                   detail);
}

void
WorkloadRun::runChecks()
{
    if (spec_.perturb) {
        bool all = true;
        for (const auto &per_bench : sweep_)
            for (const auto &per_algo : per_bench)
                for (const auto &cell : per_algo)
                    all = all && cell.has_value();
        checks_.expect(all, "every repetition ran");
    }
    checks_.expect(failed_ == 0, "passes reproduce the first pass",
                   failed_cells_.empty() ? "" : failed_cells_.front());
    checkReference();
    checkBundle();
    if (spec_.fan_out)
        checkJobsInvariance();
    if (trace_) {
        // Every millisecond of a pass must belong to a layer span.
        const std::vector<Span> spans = spanLog().spans();
        passes_ = profileRoots(spans, "pass");
        setups_ = profileRoots(spans, "setup");
        char label[64];
        std::snprintf(label, sizeof label, "span coverage >= %.2f",
                      kMinSpanCoverage);
        checks_.expect(spanCoverage() >= kMinSpanCoverage, label,
                       "median coverage " +
                           std::to_string(spanCoverage()));
    }
}

void
WorkloadRun::writeCanonical(const std::string &path) const
{
    // The smallest benchmark at topo_sim's own seeds, for the lockstep
    // comparison with `topo_sim --benchmark` that run.py makes.
    const std::string name = inputs_[smallest()].bench.name;
    const Inputs in = synthesize(benchmarkCase(name, spec_.scale, {}));
    const BenchResult r = runBenchmark(in, eval_);
    JsonValue doc = JsonValue::object();
    doc.set("benchmark", JsonValue::string(name));
    doc.set("trace_scale", JsonValue::number(spec_.scale));
    doc.set("sampled", JsonValue::boolean(spec_.sampled));
    doc.set("jobs", JsonValue::number(spec_.jobs));
    doc.set("select_edges",
            JsonValue::number(static_cast<double>(r.select_edges)));
    doc.set("place_edges",
            JsonValue::number(static_cast<double>(r.place_edges)));
    JsonValue cells = JsonValue::array();
    for (const Cell &cell : r.cells) {
        JsonValue row = JsonValue::object();
        row.set("algorithm", JsonValue::string(cell.algorithm));
        row.set("accesses",
                JsonValue::number(static_cast<double>(cell.accesses)));
        row.set("misses",
                JsonValue::number(static_cast<double>(cell.misses)));
        cells.push(std::move(row));
    }
    doc.set("cells", std::move(cells));
    std::ofstream os(path);
    os << doc.toString() << '\n';
    if (!os)
        throw std::runtime_error("cannot write " + path);
}

void
WorkloadRun::writeSpans(std::ostream &os) const
{
    JsonValue list = JsonValue::array();
    for (const Span &span : spanLog().spans()) {
        JsonValue row = JsonValue::object();
        row.set("name", JsonValue::string(span.name));
        row.set("start_ns", JsonValue::number(
                                static_cast<double>(span.start_ns)));
        row.set("end_ns",
                JsonValue::number(static_cast<double>(span.end_ns)));
        row.set("parent", JsonValue::number(span.parent));
        row.set("pass", JsonValue::number(span.pass));
        row.set("benchmark", JsonValue::string(span.benchmark));
        list.push(std::move(row));
    }
    os << list.toString() << '\n';
}

JsonValue
metric(double value, const std::string &unit)
{
    JsonValue m = JsonValue::object();
    m.set("value", JsonValue::number(value));
    m.set("unit", JsonValue::string(unit));
    return m;
}

JsonValue
WorkloadRun::result() const
{
    JsonValue metrics = JsonValue::object();
    auto put = [&](const std::string &name, double value,
                   const std::string &unit) {
        metrics.set(name, metric(value, unit));
    };

    // End-to-end, from the untraced passes.
    std::vector<double> wall, cpu, traced_wall;
    for (std::size_t p = 0; p < pass_wall_s_.size(); ++p) {
        if (pass_traced_[p]) {
            traced_wall.push_back(pass_wall_s_[p]);
        } else {
            wall.push_back(pass_wall_s_[p]);
            cpu.push_back(pass_cpu_s_[p]);
        }
    }
    const double pipeline_s = median(wall);
    const double cpu_s = median(cpu);
    put("setup_s", median(setup_s_), "s");
    put("pipeline_s", pipeline_s, "s");
    put("cpu_s", cpu_s, "s");
    put("peak_rss_mb", peak_rss_mb_, "MB");
    put("op_ms.p50", quantile(op_ms_, 0.5), "ms");
    put("op_ms.p90", quantile(op_ms_, 0.9), "ms");
    put("op_ms.count", static_cast<double>(op_ms_.size()), "count");

    // Miss rate per algorithm: geometric mean over the benchmarks; on
    // perturb-sweep each benchmark's median over the repetitions first.
    // Per-benchmark rows carry the parts, and each benchmark's ops.
    std::map<std::string, JsonValue> rows;
    for (std::size_t b = 0; b < inputs_.size(); ++b) {
        std::vector<double> ops;
        for (std::size_t i = 0; i < op_ms_.size(); ++i)
            if (op_bench_[i] == b)
                ops.push_back(op_ms_[i]);
        JsonValue row = JsonValue::object();
        row.set("op_ms.p50", metric(quantile(ops, 0.5), "ms"));
        row.set("op_ms.count",
                metric(static_cast<double>(ops.size()), "count"));
        rows[inputs_[b].bench.name] = std::move(row);
    }
    for (std::size_t a = 0; a < algorithmNames().size(); ++a) {
        const std::string &algo = algorithmNames()[a];
        std::vector<double> per_bench;
        for (std::size_t b = 0; b < inputs_.size(); ++b) {
            if (!spec_.perturb) {
                per_bench.push_back(first_[b].cells[a].missRate());
            } else if (algo == "default") {
                per_bench.push_back(default_cells_[b].missRate());
            } else {
                std::vector<double> reps;
                for (const auto &cell : sweep_[b][a - 1])
                    if (cell)
                        reps.push_back(cell->missRate());
                per_bench.push_back(median(reps));
            }
            rows[inputs_[b].bench.name].set(
                "miss_rate." + algo, metric(per_bench.back(), "ratio"));
        }
        put("miss_rate." + algo, geomean(per_bench), "ratio");
    }
    if (has_sample_error_)
        put("sample_abs_error", sample_abs_error_, "ratio");
    put("error_rate",
        attempted_ ? static_cast<double>(failed_) /
                         static_cast<double>(attempted_)
                   : 0.0,
        "ratio");

    // Per-layer counts, per pass (the same on every pass). A
    // perturb-sweep pass replays one perturbed layout per algorithm.
    std::vector<BenchResult> counted = first_;
    if (spec_.perturb) {
        for (std::size_t b = 0; b < profiles_.size(); ++b) {
            counted.push_back(summarize(profiles_[b]));
            for (const auto &per_algo : sweep_[b])
                counted.back().cells.push_back(*per_algo[0]);
        }
    }
    std::uint64_t train_runs = 0, line_fetches = 0, fetch_runs = 0;
    std::uint64_t steps = 0, sel = 0, plc = 0, wcg = 0;
    std::uint64_t windows = 0, clusters = 0, replayed_ev = 0, events = 0;
    std::uint64_t replayed = 0, misses = 0;
    for (const Inputs &in : inputs_)
        train_runs += in.train.size();
    for (const BenchResult &r : counted) {
        line_fetches += r.line_fetches;
        fetch_runs += r.fetch_runs;
        steps += r.proc_steps;
        sel += r.select_edges;
        plc += r.place_edges;
        wcg += r.wcg_edges;
        windows += r.windows;
        clusters += r.clusters;
        replayed_ev += r.plan_replayed;
        events += r.plan_events;
        for (const Cell &cell : r.cells) {
            replayed += cell.replayed;
            misses += cell.misses;
        }
    }
    auto count = [&](const std::string &name, std::uint64_t value) {
        put(name, static_cast<double>(value), "count");
    };
    count("workload.train_runs", train_runs);
    count("trace.line_fetches", line_fetches);
    count("trace.fetch_runs", fetch_runs);
    count("profile.trg_proc_steps", steps);
    count("profile.trg_select_edges", sel);
    count("profile.trg_place_edges", plc);
    count("profile.wcg_edges", wcg);
    count("cache.accesses", replayed);
    count("cache.misses", misses);
    if (spec_.sampled) {
        count("sampling.windows", windows);
        count("sampling.clusters", clusters);
        put("sampling.replayed_fraction",
            events ? static_cast<double>(replayed_ev) /
                         static_cast<double>(events)
                   : 0.0,
            "ratio");
    }
    count("exec.jobs", static_cast<std::uint64_t>(spec_.jobs));
    put("exec.cpu_per_wall", pipeline_s > 0.0 ? cpu_s / pipeline_s : 0.0,
        "ratio");

    // Per-layer self times from the traced passes (set-up spans for
    // layers that only run in set-up).
    if (trace_) {
        std::vector<std::map<std::string, double>> pass_maps, setup_maps;
        std::map<std::string, std::vector<std::map<std::string, double>>>
            bench_maps;
        for (const RootProfile &p : passes_) {
            pass_maps.push_back(p.self_ms);
            for (const auto &[bench, names] : p.bench_self_ms)
                bench_maps[bench];
        }
        for (const RootProfile &p : passes_)
            for (auto &[bench, maps] : bench_maps) {
                const auto it = p.bench_self_ms.find(bench);
                maps.push_back(it == p.bench_self_ms.end()
                                   ? std::map<std::string, double>{}
                                   : it->second);
            }
        for (const RootProfile &s : setups_)
            setup_maps.push_back(s.self_ms);
        // Layers that run in the passes report their pass medians; the
        // rest (set-up work) their set-up medians.
        std::map<std::string, double> layer_ms = medianByName(setup_maps);
        for (const auto &[name, ms] : medianByName(pass_maps))
            layer_ms[name] = ms;
        for (const auto &[name, ms] : layer_ms)
            put(name + "_ms", ms, "ms");
        for (const auto &[bench, maps] : bench_maps)
            for (const auto &[name, ms] : medianByName(maps))
                rows[bench].set(name + "_ms", metric(ms, "ms"));
        const auto trg = layer_ms.find("profile.trg");
        if (trg != layer_ms.end() && trg->second > 0.0)
            put("profile.trg_runs_per_s",
                static_cast<double>(train_runs) / (trg->second / 1e3),
                "1/s");
        const auto replay = layer_ms.find("cache.replay");
        if (replay != layer_ms.end() && replay->second > 0.0)
            put("cache.fetches_per_s",
                static_cast<double>(replayed) / (replay->second / 1e3),
                "1/s");
        put("span_coverage", spanCoverage(), "ratio");
        double lowest = 1.0;
        for (const RootProfile &p : passes_)
            lowest = std::min(lowest, p.coverage);
        put("span_coverage.min", lowest, "ratio");
        put("tracing_overhead_ms",
            (median(traced_wall) - pipeline_s) * 1e3, "ms");
        put("passes.traced", static_cast<double>(traced_wall.size()),
            "count");
    }
    JsonValue per_bench = JsonValue::object();
    for (auto &[bench, row] : rows)
        per_bench.set(bench, std::move(row));
    put("passes", static_cast<double>(wall.size()), "count");

    JsonValue checks = JsonValue::array();
    for (const std::string &name : checks_.passed) {
        JsonValue row = JsonValue::object();
        row.set("check", JsonValue::string(name));
        row.set("ok", JsonValue::boolean(true));
        checks.push(std::move(row));
    }
    for (const auto &[name, detail] : checks_.failures) {
        JsonValue row = JsonValue::object();
        row.set("check", JsonValue::string(name));
        row.set("ok", JsonValue::boolean(false));
        row.set("detail", JsonValue::string(detail));
        checks.push(std::move(row));
    }

    JsonValue provenance = topo::provenanceJson();
    provenance.set("workload", JsonValue::string(spec_.name));
    provenance.set("seed", JsonValue::number(static_cast<double>(seed_)));
    provenance.set("heldout_seed",
                   JsonValue::number(static_cast<double>(kHeldOutSeed)));
    provenance.set("trace_scale", JsonValue::number(spec_.scale));
    provenance.set("jobs", JsonValue::number(spec_.jobs));
    provenance.set("nproc", JsonValue::number(static_cast<double>(
                                std::thread::hardware_concurrency())));
    provenance.set("build_type", JsonValue::string(topo::buildTypeName()));
    provenance.set("compiler", JsonValue::string(topo::buildCompiler()));
    provenance.set("git_sha", JsonValue::string(topo::buildGitSha()));
    provenance.set("seconds", JsonValue::number(seconds_));
    provenance.set("repetitions",
                   JsonValue::number(spec_.perturb ? kRepetitions : 0));
    provenance.set("cache", JsonValue::string(eval_.cache.describe()));

    JsonValue benches = JsonValue::array();
    for (const Inputs &in : inputs_)
        benches.push(JsonValue::string(in.bench.name));
    provenance.set("benchmarks", std::move(benches));

    JsonValue walls = JsonValue::array();
    for (std::size_t p = 0; p < pass_wall_s_.size(); ++p) {
        JsonValue row = JsonValue::object();
        row.set("wall_s", JsonValue::number(pass_wall_s_[p]));
        row.set("cpu_s", JsonValue::number(pass_cpu_s_[p]));
        row.set("traced", JsonValue::boolean(pass_traced_[p]));
        walls.push(std::move(row));
    }
    JsonValue setups = JsonValue::array();
    for (const double s : setup_s_)
        setups.push(JsonValue::number(s));

    JsonValue doc = JsonValue::object();
    doc.set("correct", JsonValue::boolean(checks_.failures.empty()));
    doc.set("attempted",
            JsonValue::number(static_cast<double>(attempted_)));
    doc.set("failed", JsonValue::number(static_cast<double>(failed_)));
    doc.set("metrics", std::move(metrics));
    doc.set("per_benchmark", std::move(per_bench));
    doc.set("checks", std::move(checks));
    doc.set("passes", std::move(walls));
    doc.set("setups", std::move(setups));
    doc.set("provenance", std::move(provenance));
    return doc;
}

bool
optimisedBuild()
{
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    const std::string type = topo::buildTypeName();
    return type == "Release" || type == "RelWithDebInfo" ||
           type == "MinSizeRel";
#else
    return false;
#endif
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const topo::Options opts = topo::Options::parse(argc, argv);
        opts.rejectUnknown({"workload", "seed", "seconds", "trace", "out",
                            "spans-out", "canonical-out"});
        const std::string out = opts.getString("out", "");
        if (out.empty())
            throw std::invalid_argument("--out=FILE is required");
        if (!optimisedBuild()) {
            std::cerr << "pipeline_bench: refusing to time a "
                         "non-optimised build ("
                      << topo::buildTypeName() << ")\n";
            return 2;
        }
        const WorkloadSpec spec =
            workloadSpec(opts.getString("workload", ""));
        WorkloadRun run(spec,
                      static_cast<std::uint64_t>(opts.getInt("seed", 1)),
                      opts.getDouble("seconds", 10.0),
                      opts.getInt("trace", 0) != 0);
        run.run();
        const std::string canonical = opts.getString("canonical-out", "");
        if (!canonical.empty())
            run.writeCanonical(canonical);
        const std::string spans_out = opts.getString("spans-out", "");
        if (!spans_out.empty()) {
            std::ofstream os(spans_out);
            run.writeSpans(os);
        }
        const JsonValue result = run.result();
        std::ofstream os(out);
        result.write(os);
        os << '\n';
        if (!os)
            throw std::runtime_error("cannot write " + out);
        return result.at("correct").asBool() ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "pipeline_bench: " << e.what() << '\n';
        return 2;
    }
}
