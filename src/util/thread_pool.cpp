#include "util/thread_pool.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <latch>

#include "util/log.hpp"

namespace rsm {
namespace {

/// Which pool (if any) owns the calling thread, and its worker index.
/// Plain thread_locals: a worker belongs to exactly one pool for its whole
/// life, so no synchronization is needed.
thread_local const ThreadPool* t_pool = nullptr;
thread_local int t_worker = -1;

/// Workers re-check their predicates on this cadence even without a
/// notification — a belt-and-braces bound on any missed-wakeup bug turning
/// into a hang rather than a stall.
constexpr std::chrono::milliseconds kWakePollInterval{50};

/// How long a worker that has just finished a task polls for the next one
/// before it sleeps: longer than the solver work between two scans of one
/// fit.
constexpr std::chrono::microseconds kSpinBeforeSleep{1000};

/// Single-writer accumulate: only the owning worker stores, so a plain
/// load-add-store is race-free (readers may see a slightly stale total).
void add_seconds(std::atomic<double>& acc,
                 std::chrono::steady_clock::duration d) {
  acc.store(acc.load(std::memory_order_relaxed) +
                std::chrono::duration<double>(d).count(),
            std::memory_order_relaxed);
}

/// CAS-max for the queue-depth high-water mark.
void raise_highwater(std::atomic<std::uint64_t>& highwater,
                     std::uint64_t depth) {
  std::uint64_t seen = highwater.load(std::memory_order_relaxed);
  while (depth > seen &&
         !highwater.compare_exchange_weak(seen, depth,
                                          std::memory_order_relaxed)) {
  }
}

}  // namespace

int resolve_num_workers(int requested, int fallback) {
  RSM_CHECK_MSG(requested >= 0, "worker count must be >= 0");
  RSM_CHECK_MSG(fallback >= 1, "worker-count fallback must be >= 1");
  if (requested >= 1) return requested;
  if (const char* env = std::getenv("RSM_THREADS")) {
    int value = 0;
    const char* end = env + std::strlen(env);
    const auto [ptr, ec] = std::from_chars(env, end, value);
    if (ec == std::errc{} && ptr == end && value >= 1) return value;
    RSM_WARN("RSM_THREADS='" << env
                             << "' is not a positive integer; ignoring");
  }
  return fallback;
}

int parallel_width() {
  static const int width = resolve_num_workers(
      0, std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
  return width;
}

namespace {

/// State of one parallel_for call, on the caller's stack. Threads claim
/// parts through `next`. `done` counts finished parts and exited helper
/// tasks, so the caller returns only once no helper can touch this again.
/// Helper tasks capture one reference, so each fits std::function's small
/// buffer.
struct ParallelCall {
  ParallelCall(int num_parts, int helpers,
               const std::function<void(int)>& part_body)
      : parts(num_parts), body(part_body), done(num_parts + helpers) {}

  void run_parts() {
    for (int part = next.fetch_add(1, std::memory_order_relaxed);
         part < parts; part = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        body(part);
      } catch (...) {
        MutexLock lock(error_mutex);
        if (error_part < 0 || part < error_part) {
          error_part = part;
          error = std::current_exception();
        }
      }
      done.count_down();
    }
  }

  const int parts;
  const std::function<void(int)>& body;
  std::atomic<int> next{0};
  std::latch done;
  Mutex error_mutex{"parallel_for.error"};
  int error_part RSM_GUARDED_BY(error_mutex) = -1;  // lowest failing part
  std::exception_ptr error RSM_GUARDED_BY(error_mutex);
};

/// The process-wide helper pool: started on the first parallel call, with
/// one worker fewer than parallel_width() because the caller runs parts too.
ThreadPool& parallel_pool() {
  static ThreadPool pool(ThreadPool::Options{parallel_width() - 1});
  return pool;
}

}  // namespace

void parallel_for(int parts, const std::function<void(int)>& body) {
  RSM_CHECK_MSG(parts >= 0, "parallel_for needs parts >= 0");
  const int threads = std::min(parts, parallel_width());
  const int helpers = threads > 1 && t_pool == nullptr ? threads - 1 : 0;
  ParallelCall call(parts, helpers, body);
  if (helpers > 0) {
    ThreadPool& pool = parallel_pool();
    for (int i = 0; i < helpers; ++i) {
      try {
        pool.submit([&call] {
          call.run_parts();
          call.done.count_down();  // last touch of `call` by this helper
        });
      } catch (...) {
        // Helpers only add speed: if one cannot be queued, release the
        // latch for it and the rest, and let the caller run their parts,
        // rather than unwind while queued helpers still point at `call`.
        RSM_WARN("parallel_for: could not queue a helper; the caller runs "
                 "its parts");
        call.done.count_down(helpers - i);
        break;
      }
    }
  }
  call.run_parts();
  call.done.wait();
  std::exception_ptr error;
  {
    MutexLock lock(call.error_mutex);
    error = call.error;
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool::ThreadPool() : ThreadPool(Options{}) {}

ThreadPool::ThreadPool(const Options& options) : options_(options) {
  const int fallback =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int n = resolve_num_workers(options_.num_threads, fallback);
  RSM_CHECK_MSG(options_.queue_capacity >= 1, "queue_capacity must be >= 1");
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) workers_.push_back(std::make_unique<Worker>());
  active_.store(n, std::memory_order_relaxed);
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(coord_);
    stop_.store(true, std::memory_order_relaxed);
    work_cv_.notify_all();
    space_cv_.notify_all();
  }
  for (std::thread& thread : threads_) thread.join();
}

int ThreadPool::num_workers() const {
  return static_cast<int>(workers_.size());
}

int ThreadPool::active_workers() const {
  return active_.load(std::memory_order_relaxed);
}

int ThreadPool::current_worker_index() const {
  return t_pool == this ? t_worker : -1;
}

std::size_t ThreadPool::queue_depth() const {
  const std::int64_t depth = queued_.load(std::memory_order_relaxed);
  return depth > 0 ? static_cast<std::size_t>(depth) : 0;
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.executed = executed_.load(std::memory_order_relaxed);
  stats.stolen = stolen_.load(std::memory_order_relaxed);
  stats.task_exceptions = task_exceptions_.load(std::memory_order_relaxed);
  stats.backpressure_stalls =
      backpressure_stalls_.load(std::memory_order_relaxed);
  stats.queue_highwater = queue_highwater_.load(std::memory_order_relaxed);
  return stats;
}

std::vector<ThreadPool::WorkerStats> ThreadPool::worker_stats() const {
  std::vector<WorkerStats> out;
  out.reserve(workers_.size());
  for (const auto& worker : workers_) {
    WorkerStats ws;
    ws.executed = worker->executed.load(std::memory_order_relaxed);
    ws.stolen = worker->stolen.load(std::memory_order_relaxed);
    ws.retired = worker->retired.load(std::memory_order_relaxed);
    ws.busy_seconds = worker->busy_seconds.load(std::memory_order_relaxed);
    ws.idle_seconds = worker->idle_seconds.load(std::memory_order_relaxed);
    out.push_back(ws);
  }
  return out;
}

bool ThreadPool::try_push(int worker, Task& task) {
  Worker& target = *workers_[static_cast<std::size_t>(worker)];
  if (target.retired.load(std::memory_order_relaxed)) return false;
  MutexLock lock(target.mutex);
  if (target.queue.size() >= options_.queue_capacity) return false;
  target.queue.push_back(std::move(task));
  return true;
}

void ThreadPool::submit(Task task) {
  RSM_CHECK_MSG(static_cast<bool>(task), "submit() needs a callable task");
  RSM_CHECK_MSG(!stop_.load(std::memory_order_relaxed),
                "submit() after shutdown began");
  // Count the task as pending *before* it becomes visible to workers, so
  // wait_idle() can never observe a spurious zero between push and count.
  pending_.fetch_add(1, std::memory_order_acq_rel);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const int n = num_workers();
  for (;;) {
    const std::uint64_t start =
        next_queue_.fetch_add(1, std::memory_order_relaxed);
    for (int i = 0; i < n; ++i) {
      const int target = static_cast<int>((start + static_cast<std::uint64_t>(
                                                       i)) %
                                          static_cast<std::uint64_t>(n));
      if (!try_push(target, task)) continue;
      const std::int64_t depth =
          queued_.fetch_add(1, std::memory_order_acq_rel) + 1;
      raise_highwater(queue_highwater_, static_cast<std::uint64_t>(depth));
      MutexLock lock(coord_);
      work_cv_.notify_one();
      return;
    }
    // Every live queue is full: backpressure. Timed wait so a burst of
    // completions that raced the notify cannot strand this producer.
    backpressure_stalls_.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(coord_);
    space_cv_.wait_for(lock, kWakePollInterval);
  }
}

void ThreadPool::wait_idle() {
  MutexLock lock(coord_);
  idle_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

bool ThreadPool::retire_current_worker() {
  const int index = current_worker_index();
  if (index < 0) return false;
  int active = active_.load(std::memory_order_relaxed);
  do {
    if (active <= 1) return false;  // someone must drain the queues
  } while (!active_.compare_exchange_weak(active, active - 1,
                                          std::memory_order_acq_rel));
  workers_[static_cast<std::size_t>(index)]->retired.store(
      true, std::memory_order_relaxed);
  // Siblings must wake to steal whatever this worker still has queued.
  MutexLock lock(coord_);
  work_cv_.notify_all();
  return true;
}

ThreadPool::Task ThreadPool::try_pop_own(Worker& self) {
  MutexLock lock(self.mutex);
  if (self.queue.empty()) return nullptr;
  Task task = std::move(self.queue.front());
  self.queue.pop_front();
  return task;
}

ThreadPool::Task ThreadPool::try_steal(int thief) {
  const int n = num_workers();
  for (int i = 1; i < n; ++i) {
    // Victims include retired workers: their queues must still drain.
    const int victim = (thief + i) % n;
    Worker& target = *workers_[static_cast<std::size_t>(victim)];
    MutexLock lock(target.mutex);
    if (target.queue.empty()) continue;
    Task task = std::move(target.queue.back());
    target.queue.pop_back();
    return task;
  }
  return nullptr;
}

bool ThreadPool::spin_for_work(const Worker& self) const {
  const auto until = std::chrono::steady_clock::now() + kSpinBeforeSleep;
  do {
    if (queued_.load(std::memory_order_acquire) > 0) return true;
    if (stop_.load(std::memory_order_relaxed) ||
        self.retired.load(std::memory_order_relaxed))
      return false;
    std::this_thread::yield();
  } while (std::chrono::steady_clock::now() < until);
  return false;
}

void ThreadPool::worker_loop(int index) {
  t_pool = this;
  t_worker = index;
  Worker& self = *workers_[static_cast<std::size_t>(index)];
  // Busy/idle accounting: `mark` is the end of the previous task (or thread
  // start); time up to the next task() call is idle, the call itself busy.
  auto mark = std::chrono::steady_clock::now();
  // Only a worker that has just run a task spins before sleeping; one that
  // wakes from kWakePollInterval to an empty queue goes straight back.
  bool ran_task = false;
  for (;;) {
    Task task;
    bool stole = false;
    if (!self.retired.load(std::memory_order_relaxed)) {
      task = try_pop_own(self);
      if (task == nullptr) {
        task = try_steal(index);
        stole = task != nullptr;
      }
    }
    if (task != nullptr) {
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      {
        MutexLock lock(coord_);
        space_cv_.notify_one();
      }
      if (stole) {
        stolen_.fetch_add(1, std::memory_order_relaxed);
        self.stolen.fetch_add(1, std::memory_order_relaxed);
      }
      const auto start = std::chrono::steady_clock::now();
      add_seconds(self.idle_seconds, start - mark);
      try {
        task();
      } catch (...) {
        // Infrastructure backstop only: campaign tasks classify and record
        // their own failures; anything escaping to here is a task bug, not
        // a reason to take the pool down.
        task_exceptions_.fetch_add(1, std::memory_order_relaxed);
        RSM_WARN("thread_pool: task on worker " << index
                                                << " threw; swallowed");
      }
      mark = std::chrono::steady_clock::now();
      add_seconds(self.busy_seconds, mark - start);
      executed_.fetch_add(1, std::memory_order_relaxed);
      self.executed.fetch_add(1, std::memory_order_relaxed);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        MutexLock lock(coord_);
        idle_cv_.notify_all();
      }
      ran_task = true;
      continue;
    }
    if (self.retired.load(std::memory_order_relaxed)) {
      add_seconds(self.idle_seconds, std::chrono::steady_clock::now() - mark);
      return;
    }
    if (ran_task && spin_for_work(self)) continue;
    ran_task = false;
    MutexLock lock(coord_);
    if (stop_.load(std::memory_order_relaxed) &&
        queued_.load(std::memory_order_acquire) == 0) {
      // Cooperative shutdown: every queued task has been drained.
      add_seconds(self.idle_seconds, std::chrono::steady_clock::now() - mark);
      return;
    }
    work_cv_.wait_for(lock, kWakePollInterval, [this, &self] {
      return stop_.load(std::memory_order_relaxed) ||
             queued_.load(std::memory_order_acquire) > 0 ||
             self.retired.load(std::memory_order_relaxed);
    });
  }
}

}  // namespace rsm
