/**
 * @file
 * A small fixed-size worker pool with a bounded task queue.
 *
 * Built for the parallel phase-2 simulator: one producer (the shard
 * scanner) submits closures, N workers drain them. The bounded queue
 * gives the producer backpressure, which keeps the number of
 * dispatched-but-unreplayed shards proportional to the worker count
 * rather than to the whole trace.
 */

#ifndef EDB_UTIL_THREAD_POOL_H
#define EDB_UTIL_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace edb {

/**
 * Fixed-size thread pool.
 *
 * Tasks run in submission order (a single FIFO queue) but complete in
 * any order. A task that throws does not kill the pool: the first
 * exception is captured and rethrown from wait() (or the destructor
 * swallows it after draining, so unwinding stays safe).
 */
class ThreadPool
{
  public:
    /** Upper bound on the worker count; requests are clamped to it. */
    static constexpr unsigned maxJobs = 512;

    /**
     * @param threads     Worker count; clamped to [1, maxJobs].
     * @param max_queued  Queue capacity before submit() blocks;
     *                    0 means unbounded.
     */
    explicit ThreadPool(unsigned threads, std::size_t max_queued = 0);

    /** Drains the queue, joins the workers. Pending tasks still run. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue a task. Blocks while the queue is at capacity (the
     * backpressure that bounds the shards in flight).
     */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished. Rethrows the
     * first exception any task raised since the last wait(). The pool
     * is reusable afterwards.
     */
    void wait();

    unsigned threadCount() const { return (unsigned)workers_.size(); }

    /**
     * Default degree of parallelism: the EDB_JOBS environment variable
     * when set to a positive integer, otherwise the hardware
     * concurrency (at least 1).
     */
    static unsigned defaultJobs();

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable queue_not_empty_;
    std::condition_variable queue_not_full_;
    std::condition_variable all_idle_;
    std::deque<std::function<void()>> queue_;
    std::size_t max_queued_;
    std::size_t in_flight_ = 0; ///< queued + currently executing
    bool stopping_ = false;
    std::exception_ptr first_error_;
    std::vector<std::thread> workers_;
};

} // namespace edb

#endif // EDB_UTIL_THREAD_POOL_H
