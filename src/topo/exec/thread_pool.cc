#include "topo/exec/thread_pool.hh"

#include <limits>

#include "topo/util/error.hh"

namespace topo
{

namespace
{

/**
 * True while this thread executes tasks of a pool batch. Covers both
 * the pool workers and the calling thread (which participates as the
 * final lane) — a nested parallelFor from EITHER must degrade to an
 * inline loop, or it would overwrite the active batch state while
 * other lanes are still claiming tasks from it.
 */
thread_local bool t_in_batch = false;

} // namespace

int
hardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

bool
ThreadPool::onWorkerThread()
{
    return t_in_batch;
}

ThreadPool::ThreadPool(int jobs) : jobs_(jobs)
{
    require(jobs >= 1, "ThreadPool: jobs must be >= 1");
    workers_.reserve(static_cast<std::size_t>(jobs - 1));
    for (int i = 0; i < jobs - 1; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_ready_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen_generation = 0;
    for (;;) {
        std::unique_lock<std::mutex> lock(mutex_);
        work_ready_.wait(lock, [&] {
            return stopping_ || generation_ != seen_generation;
        });
        if (stopping_)
            return;
        seen_generation = generation_;
        // The batch may have finished before this lane woke. Joining
        // it now would read count_/body_ and bump next_ while the
        // caller resets them for its next batch.
        if (count_ == 0)
            continue;
        ++workers_active_;
        lock.unlock();

        drainBatch();

        lock.lock();
        if (--workers_active_ == 0)
            batch_done_.notify_all();
    }
}

void
ThreadPool::drainBatch()
{
    t_in_batch = true;
    for (;;) {
        const std::size_t index =
            next_.fetch_add(1, std::memory_order_relaxed);
        if (index >= count_)
            break;
        try {
            (*body_)(index);
        } catch (...) {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (!error_ || index < error_index_) {
                error_index_ = index;
                error_ = std::current_exception();
            }
        }
    }
    t_in_batch = false;
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &body)
{
    if (count == 0)
        return;
    // Serial pool, a nested call from a worker lane, or a batch too
    // small to split: run inline in strict index order. This is the
    // `--jobs 1` path and must stay identical to a plain loop.
    if (jobs_ == 1 || onWorkerThread() || count == 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }

    {
        const std::lock_guard<std::mutex> lock(mutex_);
        body_ = &body;
        count_ = count;
        next_.store(0, std::memory_order_relaxed);
        error_ = nullptr;
        error_index_ = std::numeric_limits<std::size_t>::max();
        ++generation_;
    }
    work_ready_.notify_all();

    // The caller participates as the final lane.
    drainBatch();

    std::unique_lock<std::mutex> lock(mutex_);
    batch_done_.wait(lock, [&] { return workers_active_ == 0; });
    body_ = nullptr;
    count_ = 0;
    if (error_)
        std::rethrow_exception(error_);
}

} // namespace topo
