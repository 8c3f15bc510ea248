#pragma once
// Work-stealing thread pool for coarse-grained task parallelism (whole
// protocol runs, graph builds) plus a persistent fork-join ThreadTeam for
// fine-grained intra-run loops.  The pool fans independent replications out
// across workers; each replication may additionally drive a ThreadTeam
// through util/parallel.hpp's parallel_for (see TeamRegion there), with the
// sweep scheduler arbitrating the core budget between the two levels.
//
// Design: one deque per worker.  A worker pops the oldest task from its own
// deque (FIFO, so a single worker preserves submission order) and steals
// the newest task from a victim's deque (opposite end, minimizing
// contention with the owner).  External submissions are distributed
// round-robin.  Deques are mutex-guarded -- tasks here are milliseconds
// long, so lock traffic is negligible and the code stays trivially
// TSan-clean.
//
// Correctness does not depend on the schedule: callers give every task its
// own output slot and all engine randomness is counter-based (util/rng.hpp),
// so results are bit-identical for any worker count.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace saer {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 picks the hardware concurrency.
  explicit ThreadPool(unsigned threads = 0);

  /// Drains remaining tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task.  Tasks must not throw; a throwing task is captured
  /// and rethrown from the next wait_idle() call.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task (including tasks submitted by other
  /// tasks) has finished.  Rethrows the first captured task exception.
  /// Must be called from outside the pool: a worker calling wait_idle()
  /// would wait on its own unfinished task.
  void wait_idle();

  /// Number of worker threads.
  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Runs body(i) for i in [0, count) as `size()`-grained tasks and waits.
  /// Tasks own disjoint index ranges, so no output synchronization is
  /// needed when body(i) writes only to slot i.
  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t)>& body);

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(unsigned id);
  bool try_pop(unsigned id, std::function<void()>& task);
  void run_task(std::function<void()>& task);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex state_mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  std::size_t pending_ = 0;  ///< submitted but not yet finished
  std::size_t next_queue_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;
};

/// Persistent fork-join team for the engine's intra-run round loops.
///
/// Where ThreadPool schedules coarse independent tasks, a ThreadTeam runs
/// ONE callable on every worker at once and barriers: run(body) invokes
/// body(w) for each worker w in [0, size()), with the calling thread
/// participating as worker 0 and size() - 1 resident helper threads as the
/// rest.  The helpers persist across run() calls (and across protocol
/// runs, when the team lives in an EngineWorkspace), so a round's three
/// dispatches cost condvar wakeups, not thread spawns -- and worker w is
/// the same OS thread every round, which is what keeps a scatter block's
/// counters hot in one core's cache across rounds (util/parallel.hpp's
/// team-backed parallel_for always hands worker w the same contiguous
/// index range for a given loop shape).
///
/// Placement: unless pinned, every new worker of a ThreadPool or a
/// ThreadTeam starts on its own allowed CPU, round-robin from the one
/// after the spawning thread's, and then gets the full allowed mask back,
/// so the kernel still moves it freely.  Without this a team spawned on a
/// virtual machine after an idle spell stayed stacked on the spawning CPU
/// for about a second.
///
/// Affinity: when `pin_threads` is set and the process's allowed-CPU mask
/// has at least `threads` entries, helper w is pinned to the (w mod
/// n_allowed)-th allowed CPU -- round-robin over the kernel's enumeration
/// order, which interleaves NUMA nodes on multi-socket boxes.  When the
/// mask is too small (shared containers, cpusets) or the platform has no
/// pthread affinity, pinning degrades to the unpinned layout; results
/// never depend on it.
///
/// Exceptions thrown by body are captured; the first one is rethrown from
/// run() after the barrier.  run() must not be re-entered from inside a
/// body (the team-aware parallel_for guards this by clearing the active
/// team around the caller's slice).
class ThreadTeam {
 public:
  /// SAER_PIN_THREADS=1 in the environment?  Engines pass this as
  /// `pin_threads` so operators opt whole processes into pinning.
  [[nodiscard]] static bool pin_requested() noexcept;

  /// Spawns `threads - 1` helpers (so size() == max(threads, 1)).
  explicit ThreadTeam(unsigned threads, bool pin_threads = false);

  /// Finishes the in-flight run, if any, then joins the helpers.
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  /// Total workers, caller included.
  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(helpers_.size()) + 1;
  }

  /// Runs body(w) on every worker w in [0, size()) and waits for all of
  /// them.  The caller executes slot 0.  Serial (size() == 1) teams just
  /// invoke body(0).
  void run(const std::function<void(unsigned)>& body);

 private:
  void helper_loop(unsigned worker);

  std::vector<std::thread> helpers_;
  std::mutex mutex_;
  std::condition_variable start_;
  std::condition_variable done_;
  const std::function<void(unsigned)>* body_ = nullptr;
  std::uint64_t generation_ = 0;  ///< bumped per run(); helpers latch it
  unsigned running_ = 0;          ///< helpers still inside the current run
  bool stopping_ = false;
  std::exception_ptr first_error_;
};

}  // namespace saer
