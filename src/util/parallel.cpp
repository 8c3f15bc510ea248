#include "util/parallel.hpp"

#include <atomic>
#include <cstdlib>
#include <thread>

namespace saer {

namespace {
std::atomic<int> g_threads{0};
std::atomic<int> g_intra_run_cap{0};

#if !defined(SAER_HAVE_OPENMP)
/// OMP_NUM_THREADS parsed by hand for non-OpenMP builds, so benchmark
/// recipes pin the engine identically in every build flavor.
int env_thread_override() noexcept {
  const char* env = std::getenv("OMP_NUM_THREADS");
  if (!env) return 0;
  int value = 0;
  for (const char* p = env; *p; ++p) {
    if (*p < '0' || *p > '9') return 0;
    value = value * 10 + (*p - '0');
    if (value > 4096) return 4096;
  }
  return value;
}
#endif

thread_local ThreadTeam* t_active_team = nullptr;
}  // namespace

int hardware_threads() noexcept {
#if defined(SAER_HAVE_OPENMP)
  return omp_get_max_threads();  // honors OMP_NUM_THREADS
#else
  const int env = env_thread_override();
  if (env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
#endif
}

void set_thread_count(int threads) noexcept {
  g_threads.store(threads < 0 ? 0 : threads, std::memory_order_relaxed);
}

int configured_threads() noexcept {
  const int t = g_threads.load(std::memory_order_relaxed);
  return t > 0 ? t : hardware_threads();
}

void set_intra_run_thread_cap(int cap) noexcept {
  g_intra_run_cap.store(cap < 0 ? 0 : cap, std::memory_order_relaxed);
}

int intra_run_thread_cap() noexcept {
  return g_intra_run_cap.load(std::memory_order_relaxed);
}

int intra_run_threads() noexcept {
  const int budget = configured_threads();
  const int cap = intra_run_thread_cap();
  const int threads = cap > 0 && cap < budget ? cap : budget;
  return threads > 0 ? threads : 1;
}

ThreadTeam* active_team() noexcept { return t_active_team; }

ThreadTeam* exchange_active_team(ThreadTeam* team) noexcept {
  ThreadTeam* prev = t_active_team;
  t_active_team = team;
  return prev;
}

int parallel_width() noexcept {
  if (const ThreadTeam* team = t_active_team) {
    return static_cast<int>(team->size());
  }
#if defined(SAER_HAVE_OPENMP)
  return intra_run_threads();
#else
  return 1;
#endif
}

}  // namespace saer
