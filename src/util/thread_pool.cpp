#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "util/expect.hpp"

namespace seo {

namespace {
/// Set while a thread runs a task for some pool; used to detect nested
/// parallel_for_capped calls (which must run inline to avoid deadlock).
thread_local const ThreadPool* t_worker_pool = nullptr;
/// Set once the global pool exists, so global_stats() need not create it.
std::atomic<bool> g_global_created{false};
}  // namespace

double ThreadPoolStats::busy_fraction(double window_s,
                                      std::size_t workers) const {
  if (window_s <= 0.0 || workers == 0) return 0.0;
  const double capacity = window_s * static_cast<double>(workers);
  return std::clamp(busy_s / capacity, 0.0, 1.0);
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = std::max<std::size_t>(threads, 1);
  queues_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    queues_.push_back(std::make_unique<WorkerQueue>());
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_relaxed);
  // Empty critical section: any worker mid-way between evaluating the wait
  // predicate and blocking holds sleep_mutex_, so passing through it
  // guarantees the store above is seen before the broadcast is consumed.
  { std::lock_guard<std::mutex> lock(sleep_mutex_); }
  sleep_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::note_submitted(std::size_t count) {
  stat_submitted_.fetch_add(count, std::memory_order_relaxed);
  const std::size_t depth =
      pending_.fetch_add(count, std::memory_order_relaxed) + count;
  std::uint64_t seen = stat_max_depth_.load(std::memory_order_relaxed);
  while (seen < depth && !stat_max_depth_.compare_exchange_weak(
                             seen, depth, std::memory_order_relaxed)) {
  }
}

void ThreadPool::enqueue(std::function<void()> task) {
  // The pending_ bump must precede the push: a worker that pops the task
  // decrements pending_, so the opposite order could underflow the counter.
  note_submitted(1);
  const std::size_t target =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    std::lock_guard<std::mutex> qlock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  { std::lock_guard<std::mutex> lock(sleep_mutex_); }  // wakeup fence
  sleep_cv_.notify_one();
}

void ThreadPool::enqueue_bulk(
    std::size_t count,
    const std::function<std::function<void()>(std::size_t)>& make) {
  if (count == 0) return;
  note_submitted(count);
  const std::size_t nq = queues_.size();
  const std::size_t start =
      next_queue_.fetch_add(count, std::memory_order_relaxed) % nq;
  // One lock per queue, not per task: queue q receives the tasks c with
  // (start + c) % nq == q, preserving the round-robin spread.
  for (std::size_t q = 0; q < nq; ++q) {
    const std::size_t first = (q + nq - start) % nq;
    if (first >= count) continue;
    std::lock_guard<std::mutex> qlock(queues_[q]->mutex);
    for (std::size_t c = first; c < count; c += nq)
      queues_[q]->tasks.push_back(make(c));
  }
  { std::lock_guard<std::mutex> lock(sleep_mutex_); }  // wakeup fence
  sleep_cv_.notify_all();
}

bool ThreadPool::try_pop(std::size_t worker_index,
                         std::function<void()>& task) {
  // Own queue first, newest task (LIFO keeps the cache warm) ...
  {
    auto& q = *queues_[worker_index];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (!q.tasks.empty()) {
      task = std::move(q.tasks.back());
      q.tasks.pop_back();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  // ... then steal the oldest task from a sibling (FIFO: first queued,
  // first helped).
  for (std::size_t k = 1; k < queues_.size(); ++k) {
    auto& q = *queues_[(worker_index + k) % queues_.size()];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (!q.tasks.empty()) {
      task = std::move(q.tasks.front());
      q.tasks.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      stat_steals_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ThreadPool::run_task(std::function<void()>& task, bool inline_help) {
  const auto t0 = std::chrono::steady_clock::now();
  task();  // packaged_task captures exceptions; plain tasks must not throw
  const auto t1 = std::chrono::steady_clock::now();
  stat_busy_ns_.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()),
      std::memory_order_relaxed);
  stat_executed_.fetch_add(1, std::memory_order_relaxed);
  if (inline_help)
    stat_inline_runs_.fetch_add(1, std::memory_order_relaxed);
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  t_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    if (try_pop(worker_index, task)) {
      run_task(task, /*inline_help=*/false);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    // O(1) predicate: a single atomic load, no queue scans and no queue
    // mutexes while the whole pool decides whether to sleep.
    sleep_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_relaxed) ||
             pending_.load(std::memory_order_relaxed) > 0;
    });
    if (stop_.load(std::memory_order_relaxed)) return;
  }
}

void ThreadPool::parallel_for_capped(
    std::size_t begin, std::size_t end, std::size_t max_concurrency,
    const std::function<void(IndexCursor&)>& fn) {
  if (begin >= end) return;
  IndexCursor cursor(begin, end);
  const std::size_t tasks = std::min(max_concurrency, end - begin);
  // Inline when one task would do, the pool is trivial, or we are already
  // inside a worker (nested parallelism would deadlock on join).
  if (tasks <= 1 || size() <= 1 || t_worker_pool != nullptr) {
    fn(cursor);
    return;
  }

  // Join state shared with the tasks; heap-allocated so stray tasks can
  // never outlive the stack frame they reference.  A task touches `fn` and
  // `cursor` only before its final decrement, so those stay on the stack.
  struct Join {
    std::mutex mutex;
    std::condition_variable done;
    std::size_t remaining;
    std::exception_ptr error;
  };
  auto join = std::make_shared<Join>();
  join->remaining = tasks;

  enqueue_bulk(tasks, [&](std::size_t) -> std::function<void()> {
    return [join, &fn, &cursor] {
      try {
        fn(cursor);
      } catch (...) {
        std::lock_guard<std::mutex> lock(join->mutex);
        if (!join->error) join->error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(join->mutex);
      if (--join->remaining == 0) join->done.notify_all();
    };
  });

  // Help drain the pool while waiting: the caller works instead of idling,
  // which also guarantees progress when the caller holds the only free core.
  std::function<void()> task;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(join->mutex);
      if (join->remaining == 0) break;
    }
    if (try_pop(0, task)) {
      t_worker_pool = this;
      run_task(task, /*inline_help=*/true);
      t_worker_pool = nullptr;
      task = nullptr;
    } else {
      std::unique_lock<std::mutex> lock(join->mutex);
      join->done.wait(lock, [&join] { return join->remaining == 0; });
      break;
    }
  }
  if (join->error) std::rethrow_exception(join->error);
}

void ThreadPool::run_capped(std::size_t begin, std::size_t end,
                            std::size_t max_concurrency,
                            const std::function<void(IndexCursor&)>& fn) {
  if (begin >= end) return;
  if (max_concurrency <= 1) {
    IndexCursor cursor(begin, end);
    fn(cursor);
    return;
  }
  global().parallel_for_capped(begin, end, max_concurrency, fn);
}

ThreadPoolStats ThreadPool::stats() const {
  ThreadPoolStats s;
  s.submitted = stat_submitted_.load(std::memory_order_relaxed);
  s.executed = stat_executed_.load(std::memory_order_relaxed);
  s.steals = stat_steals_.load(std::memory_order_relaxed);
  s.inline_runs = stat_inline_runs_.load(std::memory_order_relaxed);
  s.max_queue_depth = stat_max_depth_.load(std::memory_order_relaxed);
  s.busy_s = static_cast<double>(
                 stat_busy_ns_.load(std::memory_order_relaxed)) *
             1e-9;
  return s;
}

void ThreadPool::reset_stats() {
  stat_submitted_.store(0, std::memory_order_relaxed);
  stat_executed_.store(0, std::memory_order_relaxed);
  stat_steals_.store(0, std::memory_order_relaxed);
  stat_inline_runs_.store(0, std::memory_order_relaxed);
  stat_max_depth_.store(0, std::memory_order_relaxed);
  stat_busy_ns_.store(0, std::memory_order_relaxed);
}

bool ThreadPool::on_worker_thread() { return t_worker_pool != nullptr; }

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(hardware_threads());
  g_global_created.store(true, std::memory_order_release);
  return pool;
}

ThreadPoolStats ThreadPool::global_stats() {
  return g_global_created.load(std::memory_order_acquire) ? global().stats()
                                                          : ThreadPoolStats{};
}

std::size_t ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

std::size_t ThreadPool::resolve_threads(int requested) {
  if (requested <= 0) return hardware_threads();
  return static_cast<std::size_t>(requested);
}

}  // namespace seo
