// Tests for the work-stealing ThreadPool and the fork-join ThreadTeam
// (including the team-backed parallel_for / reduction dispatch).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/parallel.hpp"
#include "util/thread_pool.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace saer {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ForEachIndexCoversRangeExactlyOnce) {
  ThreadPool pool(8);
  std::vector<int> hits(10000, 0);
  pool.for_each_index(hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ThreadPool, ForEachIndexHandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.for_each_index(0, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::vector<int> hits(3, 0);
  pool.for_each_index(3, [&hits](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(ThreadPool, TasksMaySubmitMoreTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&pool, &counter] {
      counter.fetch_add(1);
      for (int j = 0; j < 4; ++j) {
        pool.submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 16 * 5);
}

TEST(ThreadPool, SingleWorkerPreservesSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::mutex mutex;
  for (int i = 0; i < 64; ++i) {
    pool.submit([&order, &mutex, i] {
      std::lock_guard lock(mutex);
      order.push_back(i);
    });
  }
  pool.wait_idle();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, WaitIdleRethrowsFirstTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The error is consumed: the pool is reusable afterwards.
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, WaitIdleIsIdempotentWhenEmpty) {
  ThreadPool pool(2);
  pool.wait_idle();
  pool.wait_idle();
  SUCCEED();
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadTeam, EveryWorkerRunsOncePerDispatch) {
  ThreadTeam team(4);
  ASSERT_EQ(team.size(), 4u);
  std::vector<std::atomic<int>> hits(4);
  team.run([&](unsigned w) { hits[w].fetch_add(1); });
  for (unsigned w = 0; w < 4; ++w) EXPECT_EQ(hits[w].load(), 1) << w;
}

TEST(ThreadTeam, CallerParticipatesAsWorkerZero) {
  ThreadTeam team(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  team.run([&](unsigned w) {
    if (w == 0) seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadTeam, SerialTeamJustInvokesBody) {
  ThreadTeam team(1);
  EXPECT_EQ(team.size(), 1u);
  int calls = 0;
  team.run([&](unsigned w) {
    EXPECT_EQ(w, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadTeam, ReusableAcrossManyDispatches) {
  // The whole point of the persistent team: thousands of run() calls (one
  // engine round costs three) reuse the same helpers.
  ThreadTeam team(4);
  std::atomic<std::uint64_t> total{0};
  for (int i = 0; i < 2000; ++i) {
    team.run([&](unsigned) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 2000u * 4u);
}

TEST(ThreadTeam, RethrowsFirstBodyException) {
  ThreadTeam team(4);
  EXPECT_THROW(team.run([](unsigned w) {
                 if (w == 1) throw std::runtime_error("helper boom");
               }),
               std::runtime_error);
  EXPECT_THROW(team.run([](unsigned w) {
                 if (w == 0) throw std::runtime_error("caller boom");
               }),
               std::runtime_error);
  // The error is consumed: the team is reusable afterwards.
  std::atomic<int> counter{0};
  team.run([&](unsigned) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 4);
}

TEST(ThreadTeam, TeamRegionRoutesParallelForThroughTeam) {
  ThreadTeam team(4);
  const TeamRegion region(&team);
  EXPECT_EQ(parallel_width(), 4);
  std::vector<int> hits(10000, 0);
  parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ThreadTeam, TeamReductionsMatchSerial) {
  std::vector<std::uint64_t> values(4321);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = (i * 2654435761u) % 100003;
  }
  std::uint64_t want_sum = 0, want_max = 0;
  for (const std::uint64_t v : values) {
    want_sum += v;
    want_max = std::max(want_max, v);
  }
  ThreadTeam team(4);
  const TeamRegion region(&team);
  EXPECT_EQ(parallel_reduce_sum(0, values.size(),
                                [&](std::size_t i) { return values[i]; }),
            want_sum);
  EXPECT_EQ(parallel_reduce_max_u64(0, values.size(),
                                    [&](std::size_t i) { return values[i]; }),
            want_max);
  EXPECT_EQ(parallel_reduce_max(
                0, values.size(),
                [&](std::size_t i) { return static_cast<double>(values[i]); }),
            static_cast<double>(want_max));
}

TEST(ThreadTeam, NestedParallelForSerializesInsideBody) {
  // Loop bodies must not re-enter the team: a parallel_for inside a
  // team-dispatched body sees no active team and runs its indices inline.
  ThreadTeam team(4);
  const TeamRegion region(&team);
  std::atomic<int> inner_total{0};
  parallel_for(0, 4, [&](std::size_t) {
    EXPECT_EQ(active_team(), nullptr);
    parallel_for(0, 8, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(ThreadTeam, TeamRegionRestoresPreviousTeam) {
  ThreadTeam outer(2);
  const TeamRegion region(&outer);
  EXPECT_EQ(active_team(), &outer);
  {
    ThreadTeam inner(3);
    const TeamRegion nested(&inner);
    EXPECT_EQ(active_team(), &inner);
  }
  EXPECT_EQ(active_team(), &outer);
}

#if defined(__linux__)
// Workers start spread over the allowed CPUs but are not pinned: each one
// runs with exactly the mask of the thread that created its pool or team.
void expect_workers_keep_mask(const cpu_set_t& want) {
  const auto mask_of_this_thread = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    EXPECT_EQ(sched_getaffinity(0, sizeof set, &set), 0);
    return set;
  };
  ThreadTeam team(4);
  std::vector<cpu_set_t> team_masks(team.size());
  team.run([&](unsigned w) { team_masks[w] = mask_of_this_thread(); });
  for (unsigned w = 0; w < team.size(); ++w) {
    EXPECT_TRUE(CPU_EQUAL(&team_masks[w], &want)) << "team worker " << w;
  }
  ThreadPool pool(4);
  std::mutex mutex;
  std::vector<cpu_set_t> pool_masks;
  for (int i = 0; i < 16; ++i) {
    pool.submit([&] {
      const cpu_set_t set = mask_of_this_thread();
      const std::lock_guard lock(mutex);
      pool_masks.push_back(set);
    });
  }
  pool.wait_idle();
  ASSERT_EQ(pool_masks.size(), 16u);
  for (const cpu_set_t& set : pool_masks) EXPECT_TRUE(CPU_EQUAL(&set, &want));
}

TEST(ThreadPlacement, WorkersKeepTheSpawningThreadsMask) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  ASSERT_EQ(sched_getaffinity(0, sizeof mask, &mask), 0);
  expect_workers_keep_mask(mask);
}

TEST(ThreadPlacement, SingleCpuMaskStillRunsEveryWorker) {
  // With one allowed CPU there is nothing to spread over; the workers share
  // it and every dispatch still completes.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
  const int cpu = sched_getcpu();
  ASSERT_GE(cpu, 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  expect_workers_keep_mask(one);
  ASSERT_EQ(sched_setaffinity(0, sizeof saved, &saved), 0);
}
#endif

}  // namespace
}  // namespace saer
