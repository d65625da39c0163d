#include "common/thread_pool.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <limits>

namespace psmgen::common {

namespace {
// Set for the lifetime of a worker thread; parallelFor degrades to an
// inline loop when invoked from a worker so nested calls cannot deadlock.
thread_local bool tls_inside_worker = false;
// Stable worker id (>= 1) inside a pool worker, -1 everywhere else.
thread_local int tls_worker_id = -1;
}  // namespace

struct ThreadPool::Job {
  std::size_t n = 0;
  const std::function<void(std::size_t)>* body = nullptr;
  ThreadPool* pool = nullptr;

  std::atomic<std::size_t> cursor{0};  ///< next index to hand out
  std::atomic<std::size_t> done{0};    ///< iterations finished

  // Progress bookkeeping (active participants, first failing index) lives
  // on the pool itself, guarded by pool->mutex_: only one job runs at a
  // time (the generation protocol enforces it), and pool members let the
  // thread-safety analysis match the guard expression at every access.
};

unsigned ThreadPool::resolveThreads(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

int ThreadPool::currentWorkerId() { return tls_worker_id; }

ThreadPool::ThreadPool(unsigned num_threads)
    : thread_count_(resolveThreads(num_threads)), stats_(thread_count_) {
  workers_.reserve(thread_count_ > 0 ? thread_count_ - 1 : 0);
  for (unsigned i = 1; i < thread_count_; ++i) {
    workers_.emplace_back([this, i] { workerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::runIterations(Job& job, unsigned participant) {
  const auto t0 = std::chrono::steady_clock::now();
  StatsSlot& slot = job.pool->stats_[participant];
  while (true) {
    const std::size_t i = job.cursor.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) break;
    slot.iterations.fetch_add(1, std::memory_order_relaxed);
    try {
      (*job.body)(i);
    } catch (...) {
      MutexLock lock(job.pool->mutex_);
      if (i < job.pool->error_index_) {
        job.pool->error_index_ = i;
        job.pool->error_ = std::current_exception();
      }
    }
    if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 == job.n) {
      // Completion may be observed by a worker, not the caller: wake it.
      MutexLock lock(job.pool->mutex_);
      job.pool->done_cv_.notify_all();
      break;
    }
  }
  slot.busy_nanos.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()),
      std::memory_order_relaxed);
}

void ThreadPool::workerLoop(unsigned worker_id) {
  tls_inside_worker = true;
  tls_worker_id = static_cast<int>(worker_id);
  std::uint64_t seen_generation = 0;
  mutex_.lock();
  while (true) {
    while (!(stop_ || (job_ != nullptr && generation_ != seen_generation))) {
      work_cv_.wait(mutex_);
    }
    if (stop_) {
      mutex_.unlock();
      return;
    }
    seen_generation = generation_;
    Job& job = *job_;
    ++active_;
    mutex_.unlock();
    runIterations(job, worker_id);
    mutex_.lock();
    --active_;
    done_cv_.notify_all();
  }
}

std::vector<ThreadPool::WorkerStats> ThreadPool::workerStats() const {
  std::vector<WorkerStats> out(stats_.size());
  for (std::size_t i = 0; i < stats_.size(); ++i) {
    out[i].iterations = stats_[i].iterations.load(std::memory_order_relaxed);
    out[i].busy_seconds =
        static_cast<double>(
            stats_[i].busy_nanos.load(std::memory_order_relaxed)) *
        1e-9;
  }
  return out;
}

void ThreadPool::parallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (workers_.empty() || n == 1 || tls_inside_worker) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  Job job;
  job.n = n;
  job.body = &body;
  job.pool = this;
  {
    MutexLock lock(mutex_);
    job_ = &job;
    ++generation_;
    error_index_ = std::numeric_limits<std::size_t>::max();
    error_ = nullptr;
  }
  jobs_executed_.fetch_add(1, std::memory_order_relaxed);
  work_cv_.notify_all();
  runIterations(job, /*participant=*/0);

  mutex_.lock();
  // Wait for the last iteration *and* for every worker to step out of the
  // job before it goes out of scope (a worker that lost the race for the
  // final index may still be touching the cursor).
  while (!(job.done.load(std::memory_order_acquire) == job.n &&
           active_ == 0)) {
    done_cv_.wait(mutex_);
  }
  job_ = nullptr;
  std::exception_ptr error = std::move(error_);
  error_ = nullptr;
  mutex_.unlock();
  if (error) std::rethrow_exception(error);
}

void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  pool->parallelFor(n, body);
}

}  // namespace psmgen::common
