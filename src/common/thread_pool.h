// A fixed-size thread pool with task futures.
//
// The optimizer's unit of concurrency is one whole optimization run: every
// run owns a private PlanArena (DESIGN.md §6), so runs share nothing by
// construction and the pool needs no work stealing, no task priorities and
// no locks beyond the queue mutex. PlannerSession::OptimizeBatch
// (plangen/session.h) and the intra-query parallel DP
// (plangen/parallel_dp.h) run on top of this (DESIGN.md §9).
//
// Semantics:
//   * Submit(f) enqueues `f` and returns a std::future for its result.
//     Tasks *start* in submission order (FIFO queue); completion order is
//     up to the scheduler.
//   * Exceptions thrown by a task are captured into its future
//     (std::packaged_task semantics) and rethrown at .get().
//   * The destructor drains the queue: every task submitted before
//     destruction runs to completion, so futures obtained from Submit
//     never go broken. (A pool that discards queued tasks turns shutdown
//     into a race against its own callers; draining makes teardown
//     deterministic. thread_pool_test pins this.)
//   * num_threads is clamped to >= 1. A size-1 pool is a valid serial
//     executor — callers that need strict sequential semantics (e.g. the
//     batch reference loop) should simply not go through the pool.

#ifndef EADP_COMMON_THREAD_POOL_H_
#define EADP_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace eadp {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains every queued task, then joins the workers (see file comment).
  ~ThreadPool();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Number of tasks submitted over the pool's lifetime (test/stats hook).
  uint64_t tasks_submitted() const;

  /// Enqueues `f` for execution and returns the future of its result.
  /// Thread-safe; tasks may themselves submit further tasks, but must not
  /// block on futures of tasks queued *behind* them (classic pool
  /// deadlock — the optimizer's fan-out/fan-in callers never need to).
  template <typename F>
  auto Submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    // packaged_task is move-only; std::function requires copyable targets,
    // so the task lives behind a shared_ptr.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    Enqueue([task]() { (*task)(); });
    return future;
  }

  /// Fan-out/fan-in helper: invokes `fn(w)` for every worker index w in
  /// [0, workers), waits for all of them, and returns the barrier wait —
  /// the milliseconds the *calling thread* spent blocked on peers after
  /// finishing its own share (the parallel DP surfaces this per-run, see
  /// OptimizeStats::dp_barrier_wait_ms). Worker 0 runs inline on the
  /// calling thread; workers 1.. are pool tasks, so a fan-out of W needs
  /// only W-1 pool slots and the caller never idles. With a null pool or
  /// workers <= 1, every index runs inline in ascending order — the
  /// degenerate sequential schedule. Exceptions from any worker are
  /// rethrown (first one wins) only after every worker has finished:
  /// unwinding while peers still run would destroy state they read.
  static double FanOut(ThreadPool* pool, int workers,
                       const std::function<void(int)>& fn);

 private:
  void Enqueue(std::function<void()> job);
  void WorkerLoop();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  uint64_t submitted_ = 0;
  bool shutdown_ = false;
};

}  // namespace eadp

#endif  // EADP_COMMON_THREAD_POOL_H_
