#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace saer {

namespace {

#if defined(__linux__)
/// CPUs this process may run on, in kernel enumeration order (which
/// interleaves NUMA nodes on multi-socket machines).  Empty on failure.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

/// Where new workers start: the allowed CPUs rotated so that the calling
/// thread's own CPU comes last.  Empty when fewer than two CPUs are allowed
/// (nothing to spread over) or the mask cannot be read.
std::vector<int> start_cpus() {
  std::vector<int> cpus = allowed_cpus();
  if (cpus.size() < 2) return {};
  const auto here = std::find(cpus.begin(), cpus.end(), sched_getcpu());
  if (here != cpus.end()) std::rotate(cpus.begin(), here + 1, cpus.end());
  return cpus;
}

/// Moves the calling thread onto `cpu`, then gives it back its full
/// allowed mask: a placement, not a pin (see "Placement" on ThreadTeam).
/// Best effort: on any failure the thread stays where it started.
void start_on(int cpu) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) == 0) {
    sched_setaffinity(0, sizeof allowed, &allowed);
  }
}

void pin_to_cpu(std::thread& thread, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  // Best effort: a failure (cpuset shrank, permissions) leaves the thread
  // unpinned, which is the documented fallback.
  pthread_setaffinity_np(thread.native_handle(), sizeof set, &set);
}
#else
std::vector<int> start_cpus() { return {}; }
void start_on(int) {}
#endif

/// The start CPU of the i-th new worker (see start_on), or -1 for none.
int start_cpu(const std::vector<int>& cpus, std::size_t i) {
  return cpus.empty() ? -1 : cpus[i % cpus.size()];
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  queues_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(threads);
  const std::vector<int> cpus = start_cpus();
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i, cpu = start_cpu(cpus, i)] {
      if (cpu >= 0) start_on(cpu);
      worker_loop(i);
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(state_mutex_);
    all_idle_.wait(lock, [this] { return pending_ == 0; });
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    // The push must be ordered by state_mutex_: workers evaluate their
    // "any queue non-empty?" wait predicate under state_mutex_, so a push
    // outside it could land in an already-scanned queue while the worker is
    // mid-predicate, and the notify below would fire before the worker
    // blocks -- a lost wakeup that strands the task.
    std::lock_guard lock(state_mutex_);
    ++pending_;
    const std::size_t target = next_queue_++ % queues_.size();
    std::lock_guard qlock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  work_available_.notify_one();
}

bool ThreadPool::try_pop(unsigned id, std::function<void()>& task) {
  // Own queue first, oldest task (FIFO keeps single-worker execution in
  // submission order, which lets ordered sinks downstream flush early) ...
  {
    WorkerQueue& own = *queues_[id];
    std::lock_guard lock(own.mutex);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.front());
      own.tasks.pop_front();
      return true;
    }
  }
  // ... then steal the newest task from the first non-empty victim, so the
  // thief and the owner contend on opposite ends.
  const auto n = queues_.size();
  for (std::size_t step = 1; step < n; ++step) {
    WorkerQueue& victim = *queues_[(id + step) % n];
    std::lock_guard lock(victim.mutex);
    if (!victim.tasks.empty()) {
      task = std::move(victim.tasks.back());
      victim.tasks.pop_back();
      return true;
    }
  }
  return false;
}

void ThreadPool::run_task(std::function<void()>& task) {
  std::exception_ptr error;
  try {
    task();
  } catch (...) {
    error = std::current_exception();
  }
  task = nullptr;  // release captures before signalling completion
  {
    std::lock_guard lock(state_mutex_);
    if (error && !first_error_) first_error_ = error;
    --pending_;
  }
  all_idle_.notify_all();
}

void ThreadPool::worker_loop(unsigned id) {
  std::function<void()> task;
  for (;;) {
    if (try_pop(id, task)) {
      run_task(task);
      continue;
    }
    std::unique_lock lock(state_mutex_);
    if (stopping_) return;
    // Re-check under the lock: a submit may have raced with the failed pop.
    work_available_.wait(lock, [this, id] {
      if (stopping_) return true;
      for (const auto& q : queues_) {
        std::lock_guard qlock(q->mutex);
        if (!q->tasks.empty()) return true;
      }
      return false;
    });
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(state_mutex_);
  all_idle_.wait(lock, [this] { return pending_ == 0; });
  if (first_error_) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

bool ThreadTeam::pin_requested() noexcept {
  static const bool pin = [] {
    const char* env = std::getenv("SAER_PIN_THREADS");
    return env && env[0] == '1' && env[1] == '\0';
  }();
  return pin;
}

ThreadTeam::ThreadTeam(unsigned threads, bool pin_threads) {
  const unsigned helpers = threads > 1 ? threads - 1 : 0;
  helpers_.reserve(helpers);
  // Pinned helpers are placed by pin_to_cpu below instead.
  const std::vector<int> cpus =
      pin_threads ? std::vector<int>{} : start_cpus();
  for (unsigned w = 1; w <= helpers; ++w) {
    helpers_.emplace_back([this, w, cpu = start_cpu(cpus, w - 1)] {
      if (cpu >= 0) start_on(cpu);
      helper_loop(w);
    });
  }
#if defined(__linux__)
  if (pin_threads && helpers > 0) {
    const std::vector<int> cpus = allowed_cpus();
    // Only pin when every worker (caller included) can get its own CPU;
    // an undersized mask means a shared/overcommitted box where pinning
    // would serialize the team.
    if (cpus.size() >= static_cast<std::size_t>(helpers) + 1) {
      for (unsigned w = 0; w < helpers; ++w) {
        pin_to_cpu(helpers_[w], cpus[(w + 1) % cpus.size()]);
      }
    }
  }
#else
  (void)pin_threads;
#endif
}

ThreadTeam::~ThreadTeam() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  start_.notify_all();
  for (std::thread& helper : helpers_) helper.join();
}

void ThreadTeam::run(const std::function<void(unsigned)>& body) {
  if (helpers_.empty()) {
    body(0);
    return;
  }
  {
    std::lock_guard lock(mutex_);
    body_ = &body;
    running_ = static_cast<unsigned>(helpers_.size());
    ++generation_;
  }
  start_.notify_all();
  // The caller is worker 0; its exception loses to an earlier helper's
  // only in the sense that exactly one -- the first captured -- escapes.
  std::exception_ptr caller_error;
  try {
    body(0);
  } catch (...) {
    caller_error = std::current_exception();
  }
  std::exception_ptr error;
  {
    std::unique_lock lock(mutex_);
    done_.wait(lock, [this] { return running_ == 0; });
    body_ = nullptr;
    error = first_error_ ? first_error_ : caller_error;
    first_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadTeam::helper_loop(unsigned worker) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(unsigned)>* body = nullptr;
    {
      std::unique_lock lock(mutex_);
      start_.wait(lock, [this, seen] {
        return stopping_ || generation_ != seen;
      });
      if (stopping_) return;
      seen = generation_;
      body = body_;
    }
    std::exception_ptr error;
    try {
      (*body)(worker);
    } catch (...) {
      error = std::current_exception();
    }
    bool last = false;
    {
      std::lock_guard lock(mutex_);
      if (error && !first_error_) first_error_ = error;
      last = --running_ == 0;
    }
    if (last) done_.notify_one();
  }
}

void ThreadPool::for_each_index(std::size_t count,
                                const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  const std::size_t chunks = std::min<std::size_t>(count, size() * 4u);
  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    const std::size_t begin = count * chunk / chunks;
    const std::size_t end = count * (chunk + 1) / chunks;
    submit([&body, begin, end] {
      for (std::size_t i = begin; i < end; ++i) body(i);
    });
  }
  wait_idle();
}

}  // namespace saer
