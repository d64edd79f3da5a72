#include "src/common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "src/common/env.h"

namespace flb::common {

namespace {

// True while this thread is executing inside a ParallelFor body; nested
// calls must run inline (the single job slot is occupied).
thread_local bool tls_inside_parallel_for = false;

// Timestamp source for ThreadPoolObserver events. Wall-clock by design:
// the observer plane profiles real host execution (the simulated clock has
// no opinion about worker scheduling), and nothing derived from these
// stamps ever feeds charged accounting.
uint64_t MonotonicNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          // flb-lint: allow-next-line(FLB001) host profiler timestamps, observability-only
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

int ThreadPool::ThreadsFromEnv(const char* value, int fallback) {
  if (value == nullptr || *value == '\0') return fallback;
  int parsed = 0;
  if (!Env::ParseInt(value, &parsed) || parsed <= 0) return fallback;
  return std::min(parsed, 512);
}

int ThreadPool::DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool(0);
  return pool;
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads > 0
                       ? num_threads
                       : ThreadsFromEnv(Env::Raw("FLB_HOST_THREADS"),
                                        DefaultThreads())),
      shards_(static_cast<size_t>(num_threads_)) {}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

ThreadPool::StatsSnapshot ThreadPool::stats() const {
  StatsSnapshot s;
  s.parallel_fors = stat_fors_.load(std::memory_order_relaxed);
  s.tasks = stat_tasks_.load(std::memory_order_relaxed);
  s.steals = stat_steals_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::EnsureStartedLocked() {
  if (started_) return;
  started_ = true;
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int p = 1; p < num_threads_; ++p) {
    workers_.emplace_back([this, p] { WorkerLoop(p); });
  }
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) return;
  stat_fors_.fetch_add(1, std::memory_order_relaxed);
  if (num_threads_ == 1 || n == 1 || tls_inside_parallel_for) {
    stat_tasks_.fetch_add(1, std::memory_order_relaxed);
    ThreadPoolObserver* const obs = observer();
    if (obs == nullptr) {
      fn(0, n);
      return;
    }
    ThreadPoolObserver::TaskEvent event;
    event.worker = 0;
    event.chunk_end = n;
    event.start_ns = MonotonicNs();
    fn(0, n);
    event.end_ns = MonotonicNs();
    obs->OnTask(event);
    return;
  }

  MutexLock call_lock(call_mu_);
  // Fixed chunking: ~4 chunks per participant bounds steal traffic while
  // leaving enough pieces to smooth uneven per-element cost. Chunk contents
  // depend only on n and the pool width; results depend on neither (every
  // element writes its own slot).
  const int64_t target_chunks =
      std::min<int64_t>(n, static_cast<int64_t>(num_threads_) * 4);
  const int64_t grain = (n + target_chunks - 1) / target_chunks;
  const int64_t num_chunks = (n + grain - 1) / grain;

  {
    MutexLock lock(mu_);
    EnsureStartedLocked();
    job_fn_ = &fn;
    job_n_ = n;
    job_grain_ = grain;
    for (int p = 0; p < num_threads_; ++p) {
      const int64_t begin = num_chunks * p / num_threads_;
      const int64_t end = num_chunks * (p + 1) / num_threads_;
      shards_[static_cast<size_t>(p)].next.store(begin,
                                                 std::memory_order_relaxed);
      shards_[static_cast<size_t>(p)].end = end;
    }
    ++epoch_;
    workers_active_ = static_cast<int>(workers_.size());
  }
  work_cv_.notify_all();

  tls_inside_parallel_for = true;
  RunParticipant(0);
  tls_inside_parallel_for = false;

  MutexLock lock(mu_);
  while (workers_active_ != 0) done_cv_.wait(lock);
  job_fn_ = nullptr;
}

void ThreadPool::ParallelForEach(int64_t n,
                                 const std::function<void(int64_t)>& fn) {
  ParallelFor(n, [&fn](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) fn(i);
  });
}

void ThreadPool::WorkerLoop(int participant) {
  uint64_t seen = 0;
  for (;;) {
    ThreadPoolObserver* obs = observer();
    const uint64_t idle_start = obs != nullptr ? MonotonicNs() : 0;
    {
      MutexLock lock(mu_);
      while (!stop_ && epoch_ == seen) work_cv_.wait(lock);
      if (stop_) return;
      seen = epoch_;
    }
    // Re-read: an observer installed while this worker slept still sees
    // subsequent windows; one installed mid-wait misses only this gap.
    obs = observer();
    if (obs != nullptr && idle_start != 0) {
      obs->OnIdle(participant, idle_start, MonotonicNs());
    }
    tls_inside_parallel_for = true;
    RunParticipant(participant);
    tls_inside_parallel_for = false;
    bool last = false;
    {
      MutexLock lock(mu_);
      last = --workers_active_ == 0;
    }
    if (last) done_cv_.notify_one();
  }
}

void ThreadPool::RunParticipant(int participant) {
  const auto& fn = *job_fn_;
  const int64_t n = job_n_;
  const int64_t grain = job_grain_;
  ThreadPoolObserver* const obs = observer();
  // Unclaimed chunks across all shards — only sampled while an observer is
  // installed (num_threads relaxed loads per task). Approximate by nature:
  // other workers keep claiming while we sum.
  const auto queue_depth = [&]() {
    int64_t depth = 0;
    for (const Shard& shard : shards_) {
      const int64_t next = shard.next.load(std::memory_order_relaxed);
      if (next < shard.end) depth += shard.end - next;
    }
    return depth;
  };
  const auto run_chunk = [&](int64_t c, bool stolen) {
    const int64_t begin = c * grain;
    const int64_t end = std::min(n, begin + grain);
    if (obs == nullptr) {
      fn(begin, end);
    } else {
      ThreadPoolObserver::TaskEvent event;
      event.worker = participant;
      event.chunk_begin = begin;
      event.chunk_end = end;
      event.stolen = stolen;
      event.queue_depth = queue_depth();
      event.start_ns = MonotonicNs();
      fn(begin, end);
      event.end_ns = MonotonicNs();
      obs->OnTask(event);
    }
    stat_tasks_.fetch_add(1, std::memory_order_relaxed);
  };
  Shard& own = shards_[static_cast<size_t>(participant)];
  for (;;) {
    const int64_t c = own.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= own.end) break;
    run_chunk(c, /*stolen=*/false);
  }
  // Own shard drained: steal from the others, round-robin from the right.
  for (int off = 1; off < num_threads_; ++off) {
    Shard& victim =
        shards_[static_cast<size_t>((participant + off) % num_threads_)];
    for (;;) {
      const int64_t c = victim.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= victim.end) break;
      run_chunk(c, /*stolen=*/true);
      stat_steals_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

Status ParallelForEachStatus(ThreadPool& pool, size_t n,
                             const std::function<Status(size_t)>& fn) {
  if (n == 0) return Status::OK();
  Mutex err_mu;
  size_t err_index = std::numeric_limits<size_t>::max();
  Status err;
  pool.ParallelFor(static_cast<int64_t>(n), [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      Status s = fn(static_cast<size_t>(i));
      if (!s.ok()) {
        // A chunk stops at its own first error; the smallest erroring index
        // is always the first error of *its* chunk, so the min over chunk
        // errors is thread-count independent.
        MutexLock lock(err_mu);
        if (static_cast<size_t>(i) < err_index) {
          err_index = static_cast<size_t>(i);
          err = std::move(s);
        }
        return;
      }
    }
  });
  if (err_index != std::numeric_limits<size_t>::max()) return err;
  return Status::OK();
}

}  // namespace flb::common
