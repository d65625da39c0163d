// Unit tests for the work-stealing-free thread pool backing the parallel
// characterization pipeline: task completion, exception propagation out of
// parallelFor, inline execution at one thread, nesting, and reuse.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace psmgen {
namespace {

TEST(ThreadPool, ResolveThreadsZeroMeansHardware) {
  EXPECT_GE(common::ThreadPool::resolveThreads(0), 1u);
  EXPECT_EQ(common::ThreadPool::resolveThreads(1), 1u);
  EXPECT_EQ(common::ThreadPool::resolveThreads(7), 7u);
}

TEST(ThreadPool, RunsEveryIterationExactlyOnce) {
  common::ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.parallelFor(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, RunsOddSizesExactlyOnce) {
  common::ThreadPool pool(3);
  for (const std::size_t n : {1u, 2u, 7u, 63u, 64u, 65u, 1001u}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.parallelFor(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
  }
}

TEST(ThreadPool, SingleThreadRunsInlineInOrder) {
  common::ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;  // unsynchronized: inline => no race
  pool.parallelFor(100, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> expected(100);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, NullPoolHelperRunsInlineInOrder) {
  std::vector<std::size_t> order;
  common::parallel_for(nullptr, 10, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(ThreadPool, ZeroIterationsIsANoop) {
  common::ThreadPool pool(4);
  bool ran = false;
  pool.parallelFor(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesExceptionOfLowestFailingChunk) {
  common::ThreadPool pool(4);
  // Two failing indices; every iteration runs to completion and the
  // error of the lowest failing index (11) is rethrown.
  auto run = [&] {
    pool.parallelFor(500, [&](std::size_t i) {
      if (i == 11 || i == 377) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
  };
  try {
    run();
    FAIL() << "parallelFor did not propagate the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 11");
  }
}

TEST(ThreadPool, ExceptionDoesNotCancelOtherIterations) {
  common::ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  EXPECT_THROW(pool.parallelFor(kN,
                                [&](std::size_t i) {
                                  hits[i].fetch_add(1);
                                  if (i % 97 == 0) {
                                    throw std::logic_error("fail");
                                  }
                                }),
               std::logic_error);
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ExceptionAtOneThreadPropagatesToo) {
  common::ThreadPool pool(1);
  EXPECT_THROW(pool.parallelFor(10,
                                [&](std::size_t i) {
                                  if (i == 3) throw std::runtime_error("x");
                                }),
               std::runtime_error);
}

TEST(ThreadPool, ReusableAcrossManyLoops) {
  common::ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallelFor(64, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 200u * 64u);
}

TEST(ThreadPool, ShutdownVsSubmitInterleavings) {
  // Stress the destructor-vs-parallelFor window that the annotated
  // rewrite reshaped (job bookkeeping moved from the Job object onto
  // the pool, guarded by mutex_): construct a pool, race a burst of
  // parallelFor calls against its destruction, and require that every
  // iteration that parallelFor *returned for* actually ran. Under TSan
  // (PSMGEN_SANITIZE=tsan in CI) this also proves the handoff has no
  // data race; the explicit wait loops must publish every write made by
  // the workers before parallelFor returns.
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> ran{0};
    std::size_t submitted = 0;
    {
      common::ThreadPool pool(4);
      for (int burst = 0; burst < 8; ++burst) {
        pool.parallelFor(97, [&](std::size_t) {
          ran.fetch_add(1, std::memory_order_relaxed);
        });
        submitted += 97;
      }
      // Destructor runs here, concurrently with workers that may still
      // be parked between generations.
    }
    ASSERT_EQ(ran.load(), submitted) << "round " << round;
  }
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  common::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(32 * 32);
  for (auto& h : hits) h.store(0);
  pool.parallelFor(32, [&](std::size_t i) {
    // Nested call from (potentially) a worker thread: must degrade to an
    // inline loop instead of deadlocking on the fixed-size pool.
    pool.parallelFor(32, [&](std::size_t j) { hits[i * 32 + j].fetch_add(1); });
  });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace psmgen
