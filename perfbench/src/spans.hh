/**
 * @file
 * In-memory span log for the traced benchmark run.
 *
 * A span is recorded around each call the benchmark makes into a libtopo
 * layer: name ("layer.step"), start, end, the span that caused it, and
 * the pass it belongs to. Spans stay in memory until the run ends.
 * When the log is disabled every operation is a branch on one flag, so
 * the untraced run measures the program, not the tracer.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Nanoseconds on the steady clock. */
std::int64_t nowNs();

struct Span
{
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /** Index of the causing span, or -1 for a root. */
    int parent = -1;
    /** Pass the span belongs to; -1 for set-up and checks. */
    int pass = -1;
    /** Benchmark the work was for ("" when not benchmark-specific). */
    std::string benchmark;
};

class SpanLog
{
  public:
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Pass id stamped on spans opened from now on (-1: no pass). */
    void setPass(int pass) { pass_ = pass; }

    /** Open a span under @p parent; returns its index, -1 when off. */
    int open(const char *name, int parent);
    void close(int index);

    std::vector<Span> spans() const;

  private:
    bool enabled_ = false;
    int pass_ = -1;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** The process-wide log the benchmark records into. */
SpanLog &spanLog();

/**
 * RAII span. Its parent is the innermost span open on this thread, or
 * the one installed with ParentScope on a pool task.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int index() const { return index_; }

  private:
    int index_;
    int saved_parent_;
};

/** Make @p parent the causing span for work run on this thread. */
class ParentScope
{
  public:
    explicit ParentScope(int parent);
    ~ParentScope();
    ParentScope(const ParentScope &) = delete;
    ParentScope &operator=(const ParentScope &) = delete;

  private:
    int saved_parent_;
};

/** Stamp spans opened on this thread with a benchmark name. */
class BenchmarkScope
{
  public:
    explicit BenchmarkScope(const std::string &name);
    ~BenchmarkScope();
    BenchmarkScope(const BenchmarkScope &) = delete;
    BenchmarkScope &operator=(const BenchmarkScope &) = delete;

  private:
    const std::string *saved_;
};

/** The innermost open span on this thread (-1 if none). */
int currentSpan();

/** Summary of the spans under one root span (a pass or a set-up). */
struct RootProfile
{
    double wall_ms = 0.0;
    /**
     * Share of the root's wall covered by the union of its top-level
     * layer spans. exec.* spans are transparent: their children count
     * as top-level, so idle pool time is not covered.
     */
    double coverage = 0.0;
    /** Self time (ms) summed per span name. */
    std::map<std::string, double> self_ms;
    /** The same, split by benchmark. */
    std::map<std::string, std::map<std::string, double>> bench_self_ms;
};

/**
 * Summaries of every root span named @p root ("pass" or "setup"), in
 * the order they were opened. A span's self time is its duration
 * minus the part of it that its children's intervals cover.
 */
std::vector<RootProfile> profileRoots(const std::vector<Span> &spans,
                                      const std::string &root);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
