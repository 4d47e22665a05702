// Fixed-size worker pool behind the repo's three fan-outs: the conditioning
// shards (dataset build and streaming ingest), the finalize filter, and the
// per-AS analysis.
//
// Deliberately simple — no work stealing, no task priorities: a mutex-
// protected queue, `submit` returning a std::future, a blocking
// `parallel_for` that splits an index range into contiguous chunks, and a
// `parallel_map_reduce` that additionally gives each chunk a private state
// and folds the states back in chunk order (the shard-then-merge shape the
// dataset build uses).  This class alone decides how a range is chunked,
// what a requested concurrency of 0 means (one chunk per worker) and when
// work runs inline; callers that index per-chunk state ask chunk_count().
// Each chunk writes disjoint output and the chunk boundaries depend only on
// the range and the requested concurrency, so parallel results are
// bit-identical to the serial ones as long as each index's computation is
// independent.
//
// Nesting: a fan-out issued from inside a worker thread runs inline on that
// worker as one chunk (no re-submission), which both avoids deadlocking a
// pool that is already saturated with the outer loop's chunks and keeps the
// outer fan-out the only level of parallelism.
#pragma once

#include <condition_variable>
#include <cstddef>

#include "util/annotations.hpp"
#include "util/mutex.hpp"
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace eyeball::util {

class ThreadPool {
 public:
  /// `worker_count` == 0 means one worker per hardware thread.
  explicit ThreadPool(std::size_t worker_count = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const noexcept { return workers_.size(); }

  /// Enqueues `task` and returns a future for its result.  Exceptions thrown
  /// by the task surface from future::get().
  template <typename F>
  [[nodiscard]] auto submit(F&& task) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using Result = std::invoke_result_t<std::decay_t<F>>;
    auto packaged =
        std::make_shared<std::packaged_task<Result()>>(std::forward<F>(task));
    std::future<Result> future = packaged->get_future();
    enqueue([packaged] { (*packaged)(); });
    return future;
  }

  /// How many contiguous chunks parallel_for / parallel_map_reduce split a
  /// `count`-long range into at `max_concurrency` (0 = one per worker) when
  /// called from this thread: 0 for an empty range, 1 when the work runs
  /// inline (concurrency 1, or the caller is a pool worker), otherwise
  /// min(max_concurrency, count) or fewer.  The count depends only on the
  /// range and the requested concurrency, never on the pool size, so
  /// anything indexed by chunk (per-chunk state, the streaming builder's
  /// memo slots) is machine-independent.
  [[nodiscard]] std::size_t chunk_count(std::size_t count,
                                        std::size_t max_concurrency) const noexcept;

  /// Runs `body(chunk_begin, chunk_end)` over [begin, end) split into the
  /// chunk_count() contiguous chunks, blocking until every chunk finished.
  /// The first exception thrown by any chunk is rethrown.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& body,
                    std::size_t max_concurrency = 0);

  /// Map/reduce over [begin, end): the range is split into the same chunks
  /// as `parallel_for`, each chunk runs `map(chunk, chunk_lo, chunk_hi)` on
  /// the pool into a private `State` (no shared mutable data), and the
  /// caller folds the states with `reduce(state)` strictly in chunk order,
  /// each as soon as it and every earlier chunk finished.  `chunk` is the
  /// chunk's index in [0, chunk_count()).  Because chunks are contiguous and
  /// reduction is ordered, any reduce that concatenates or accumulates
  /// per-index results reproduces the serial left-to-right fold exactly, at
  /// any concurrency.  The first exception thrown by a map or reduce is
  /// rethrown after all chunks finished; no reduce runs after it, and reduce
  /// runs on the calling thread only.
  template <typename Map, typename Reduce>
  void parallel_map_reduce(std::size_t begin, std::size_t end, const Map& map,
                           const Reduce& reduce, std::size_t max_concurrency = 0) {
    using State =
        std::invoke_result_t<const Map&, std::size_t, std::size_t, std::size_t>;
    std::vector<std::optional<State>> states(
        begin < end ? chunk_count(end - begin, max_concurrency) : 0);
    dispatch(
        begin, end, max_concurrency,
        [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
          states[chunk].emplace(map(chunk, lo, hi));
        },
        [&](std::size_t chunk) {
          reduce(std::move(*states[chunk]));
          states[chunk].reset();
        });
  }

  /// True when called from one of any ThreadPool's worker threads.
  [[nodiscard]] static bool on_worker_thread() noexcept;

  /// Process-wide pool with one worker per hardware thread, created on first
  /// use.  Callers cap their share with parallel_for's `max_concurrency`.
  [[nodiscard]] static ThreadPool& shared();

 private:
  /// The one fan-out behind parallel_for and parallel_map_reduce: runs
  /// `run(chunk, lo, hi)` for every chunk (on the pool, or inline when
  /// chunk_count() is 1), then calls `collect(chunk)` on this thread in
  /// chunk order once that chunk finished.  Every submitted chunk is
  /// drained before any exception leaves, including one thrown by submit
  /// itself, so no worker can still touch the caller's captures.
  void dispatch(std::size_t begin, std::size_t end, std::size_t max_concurrency,
                const std::function<void(std::size_t, std::size_t, std::size_t)>& run,
                const std::function<void(std::size_t)>& collect);
  /// Chunk length for a `count`-long range (the last chunk may be shorter);
  /// `count` itself when the work runs as one inline chunk.
  [[nodiscard]] std::size_t chunk_length(std::size_t count,
                                         std::size_t max_concurrency) const noexcept;
  void enqueue(std::function<void()> task) EYEBALL_EXCLUDES(mutex_);
  void worker_loop() EYEBALL_EXCLUDES(mutex_);

  /// Guards the task queue and the shutdown flag; workers and submitters
  /// meet only here.  Never held while a task runs.
  Mutex mutex_;
  // condition_variable_any, not condition_variable: the wait takes our
  // annotated MutexLock directly, so the queue accesses around it stay
  // visible to the thread-safety analysis.
  std::condition_variable_any wake_;
  std::deque<std::function<void()>> queue_ EYEBALL_GUARDED_BY(mutex_);
  // Written by the constructor only (before any concurrency exists), then
  // read-only until the destructor joins — no capability needed.
  std::vector<std::thread> workers_;
  bool stopping_ EYEBALL_GUARDED_BY(mutex_) = false;
};

}  // namespace eyeball::util
