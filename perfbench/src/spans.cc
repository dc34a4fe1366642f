#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <utility>

namespace perfbench
{

namespace
{

thread_local int t_current = -1;
thread_local const std::string *t_benchmark = nullptr;

using Interval = std::pair<std::int64_t, std::int64_t>;

/** Length of the union of @p parts, each clipped to [lo, hi). */
std::int64_t
unionLength(std::vector<Interval> parts, std::int64_t lo, std::int64_t hi)
{
    std::sort(parts.begin(), parts.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;
    for (const auto &[begin, end] : parts) {
        const std::int64_t b = std::max(begin, reach);
        const std::int64_t e = std::min(end, hi);
        if (e > b) {
            covered += e - b;
            reach = e;
        }
    }
    return covered;
}

bool
isExec(const Span &span)
{
    return span.name.rfind("exec.", 0) == 0;
}

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int
SpanLog::open(const char *name, int parent)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.parent = parent;
    span.pass = pass_;
    if (t_benchmark != nullptr)
        span.benchmark = *t_benchmark;
    span.start_ns = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size() - 1);
}

void
SpanLog::close(int index)
{
    if (index < 0)
        return;
    const std::int64_t end = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_ns = end;
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

SpanLog &
spanLog()
{
    static SpanLog log;
    return log;
}

ScopedSpan::ScopedSpan(const char *name)
    : index_(spanLog().open(name, t_current)), saved_parent_(t_current)
{
    if (index_ >= 0)
        t_current = index_;
}

ScopedSpan::~ScopedSpan()
{
    spanLog().close(index_);
    t_current = saved_parent_;
}

ParentScope::ParentScope(int parent) : saved_parent_(t_current)
{
    t_current = parent;
}

ParentScope::~ParentScope() { t_current = saved_parent_; }

BenchmarkScope::BenchmarkScope(const std::string &name)
    : saved_(t_benchmark)
{
    t_benchmark = &name;
}

BenchmarkScope::~BenchmarkScope() { t_benchmark = saved_; }

int
currentSpan()
{
    return t_current;
}

std::vector<RootProfile>
profileRoots(const std::vector<Span> &spans, const std::string &root)
{
    const std::size_t n = spans.size();
    std::vector<std::vector<std::size_t>> children(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (spans[i].parent >= 0)
            children[static_cast<std::size_t>(spans[i].parent)].push_back(
                i);
    }

    std::vector<RootProfile> out;
    for (std::size_t r = 0; r < n; ++r) {
        const Span &top = spans[r];
        if (top.name != root || top.parent >= 0)
            continue;
        RootProfile profile;
        profile.wall_ms = static_cast<double>(top.end_ns - top.start_ns) /
                          1e6;
        // Walk the subtree: self time per name, and the top-level layer
        // spans (exec.* wrappers are looked through) for coverage.
        std::vector<Interval> top_level;
        std::vector<std::pair<std::size_t, bool>> stack = {{r, true}};
        while (!stack.empty()) {
            const auto [i, transparent] = stack.back();
            stack.pop_back();
            const Span &span = spans[i];
            std::vector<Interval> kids;
            for (const std::size_t c : children[i]) {
                kids.emplace_back(spans[c].start_ns, spans[c].end_ns);
                const bool exec = isExec(spans[c]);
                if (transparent && !exec)
                    top_level.emplace_back(spans[c].start_ns,
                                           spans[c].end_ns);
                stack.emplace_back(c, transparent && exec);
            }
            if (i == r)
                continue;
            const std::int64_t self =
                (span.end_ns - span.start_ns) -
                unionLength(std::move(kids), span.start_ns, span.end_ns);
            const double self_ms = static_cast<double>(self) / 1e6;
            profile.self_ms[span.name] += self_ms;
            if (!span.benchmark.empty())
                profile.bench_self_ms[span.benchmark][span.name] += self_ms;
        }
        const std::int64_t wall = top.end_ns - top.start_ns;
        profile.coverage =
            wall > 0 ? static_cast<double>(unionLength(
                           std::move(top_level), top.start_ns, top.end_ns)) /
                           static_cast<double>(wall)
                     : 0.0;
        out.push_back(std::move(profile));
    }
    return out;
}

} // namespace perfbench
