#pragma once
// Fixed-size, work-stealing-free thread pool with a blocking parallel-for.
//
// The pool exists to parallelize the embarrassingly parallel stages of the
// characterization flow (the mining walk over row chunks, per-chunk
// signature numbering, per-trace PSM generation / chain simplification,
// per-state regression fits). Those stages share one shape: N independent
// iterations whose results land in pre-sized output slots, so the combined
// result is independent of task completion order. parallelFor() is the
// only scheduling primitive: iterations are handed out one index at a
// time from a shared atomic cursor — no per-thread deques, no stealing.
//
// Determinism contract: a pool constructed with one thread runs every
// parallelFor inline on the caller, in index order — byte-for-byte the
// sequential loop it replaces. With more threads only the execution
// schedule changes; callers keep results deterministic by writing to
// per-index slots and reducing in index order afterwards.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace psmgen::common {

class ThreadPool {
 public:
  /// Resolves a `num_threads` config knob: 0 means "all hardware threads"
  /// (at least 1 when hardware_concurrency is unknown).
  static unsigned resolveThreads(unsigned requested);

  /// Stable id of the calling thread within its owning pool: workers are
  /// numbered 1 .. threadCount()-1 for the life of the pool; any thread
  /// that is not a pool worker (including the parallelFor caller, which
  /// participates as slot 0) returns -1. Observability uses this to give
  /// every worker its own trace lane.
  static int currentWorkerId();

  /// Per-participant counters, indexed 0 (the parallelFor caller) to
  /// threadCount()-1 (workers). busy_seconds is wall time spent running
  /// iterations; utilization of a build is sum(busy) / (elapsed * threads).
  struct WorkerStats {
    std::uint64_t iterations = 0;  ///< body invocations
    double busy_seconds = 0.0;     ///< wall time inside runIterations
  };

  /// Spawns resolveThreads(num_threads) - 1 worker threads (the caller of
  /// parallelFor is always the remaining participant). A pool of one
  /// thread spawns no workers at all.
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned threadCount() const { return thread_count_; }

  /// Snapshot of every participant's counters (index 0 = caller slot).
  /// Only the inline fast path of parallelFor (single thread / n == 1 /
  /// nested call) bypasses these counters.
  std::vector<WorkerStats> workerStats() const;

  /// parallelFor invocations that actually fanned out to the workers.
  std::uint64_t jobsExecuted() const {
    return jobs_executed_.load(std::memory_order_relaxed);
  }

  /// Runs body(i) for every i in [0, n) and blocks until all iterations
  /// completed. Runs inline (sequential, in index order) when the pool has
  /// one thread, when n == 1, or when called from inside a pool worker
  /// (nested parallelism would deadlock a fixed pool, so it degrades to a
  /// plain loop).
  ///
  /// Exceptions: every iteration runs to completion even if another one
  /// throws; afterwards the exception of the lowest failing index is
  /// rethrown on the caller, whatever the thread count.
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& body)
      EXCLUDES(mutex_);

 private:
  struct Job;

  /// Per-participant stats slot; written only by the owning participant,
  /// read by workerStats().
  struct StatsSlot {
    std::atomic<std::uint64_t> iterations{0};
    std::atomic<std::uint64_t> busy_nanos{0};
  };

  void workerLoop(unsigned worker_id);
  static void runIterations(Job& job, unsigned participant);

  unsigned thread_count_ = 1;
  std::vector<std::thread> workers_;
  std::vector<StatsSlot> stats_;  ///< one slot per participant
  std::atomic<std::uint64_t> jobs_executed_{0};

  // Lock table — mutex_ protects the job hand-off protocol:
  //   job_         current job pointer (null when idle)
  //   generation_  bumped once per published job; workers compare it to
  //                their last-seen value to detect fresh work
  //   stop_        destructor shutdown flag
  //   active_      participants currently inside runIterations;
  //                parallelFor may not retire the job until this drops to 0
  //   error_index_ / error_   lowest failing index of the current job and
  //                its exception (rethrown on the caller)
  // Iteration hand-out (Job::cursor/done) is deliberately lock-free.
  Mutex mutex_;
  CondVar work_cv_;  ///< workers wait here for a new job
  CondVar done_cv_;  ///< parallelFor waits here for completion
  Job* job_ GUARDED_BY(mutex_) = nullptr;
  std::uint64_t generation_ GUARDED_BY(mutex_) = 0;
  bool stop_ GUARDED_BY(mutex_) = false;
  std::size_t active_ GUARDED_BY(mutex_) = 0;
  std::size_t error_index_ GUARDED_BY(mutex_) = 0;
  std::exception_ptr error_ GUARDED_BY(mutex_);
};

/// Convenience wrapper used by the flow: runs body(i) for i in [0, n),
/// inline when `pool` is nullptr (the sequential / num_threads == 1 path).
void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace psmgen::common
