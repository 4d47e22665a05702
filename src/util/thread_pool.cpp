#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <utility>

namespace eyeball::util {
namespace {

// Worker-nesting guard.  thread_local, so each thread reads and writes only
// its own copy — inherently race-free, no capability needed.
thread_local bool t_on_worker = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t worker_count) {
  if (worker_count == 0) {
    worker_count = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock{mutex_};
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    const MutexLock lock{mutex_};
    queue_.push_back(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::worker_loop() {
  t_on_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock{mutex_};
      // Explicit predicate re-check loop instead of the predicate-lambda
      // overload: the lambda would be analyzed as a separate function with
      // no lock held, tripping -Wthread-safety on the guarded reads.  This
      // spelling keeps every queue_/stopping_ access visibly under `lock`.
      while (!stopping_ && queue_.empty()) wake_.wait(lock);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

bool ThreadPool::on_worker_thread() noexcept { return t_on_worker; }

std::size_t ThreadPool::chunk_length(std::size_t count,
                                     std::size_t max_concurrency) const noexcept {
  // The chunk count honors the *requested* concurrency, clamped only by the
  // range — not by the pool size — so chunk boundaries (and anything that
  // merges per-chunk state in order) are machine-independent.  Requesting
  // more chunks than workers just queues them.
  const std::size_t ways =
      std::min(max_concurrency == 0 ? worker_count() : max_concurrency, count);
  if (ways <= 1 || on_worker_thread()) return count;
  return (count + ways - 1) / ways;
}

std::size_t ThreadPool::chunk_count(std::size_t count,
                                    std::size_t max_concurrency) const noexcept {
  const std::size_t length = chunk_length(count, max_concurrency);
  return length == 0 ? 0 : (count + length - 1) / length;
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t, std::size_t)>& body,
                              std::size_t max_concurrency) {
  dispatch(
      begin, end, max_concurrency,
      [&body](std::size_t, std::size_t lo, std::size_t hi) { body(lo, hi); }, nullptr);
}

void ThreadPool::dispatch(
    std::size_t begin, std::size_t end, std::size_t max_concurrency,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& run,
    const std::function<void(std::size_t)>& collect) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  const std::size_t length = chunk_length(count, max_concurrency);
  if (length == count) {
    run(0, begin, end);
    if (collect) collect(0);
    return;
  }

  std::vector<std::future<void>> futures;
  futures.reserve(chunk_count(count, max_concurrency));
  std::exception_ptr first_error;
  try {
    for (std::size_t lo = begin; lo < end; lo += length) {
      const std::size_t chunk = futures.size();
      const std::size_t hi = std::min(end, lo + length);
      futures.push_back(submit([&run, chunk, lo, hi] { run(chunk, lo, hi); }));
    }
  } catch (...) {
    // submit failed partway (bad_alloc): fall through and drain the chunks
    // already queued — they still reference `run` and its captures.
    first_error = std::current_exception();
  }

  for (std::size_t chunk = 0; chunk < futures.size(); ++chunk) {
    try {
      futures[chunk].get();
      if (collect && !first_error) collect(chunk);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace eyeball::util
