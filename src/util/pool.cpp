#include "util/pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <utility>

namespace ent::util {
namespace {

// True while this thread runs a chunk or holds an InlineScope; a for_each
// then runs inline.
thread_local bool t_inline = false;

std::atomic<HostPool*> g_scoped_pool{nullptr};

}  // namespace

struct HostPool::Job {
  Job(std::size_t n, FunctionRef<void(std::size_t)> f) : chunks(n), body(f) {}

  std::size_t chunks;
  FunctionRef<void(std::size_t)> body;
  std::atomic<std::size_t> next{0};
  unsigned active = 0;  // workers inside run(); guarded by HostPool::mutex_
  std::mutex error_mutex;
  std::size_t failed_chunk = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;

  // Claims and runs chunks until none is left.
  void run() {
    const bool outer = std::exchange(t_inline, true);
    for (std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
         c < chunks; c = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        body(c);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (c < failed_chunk) {
          failed_chunk = c;
          error = std::current_exception();
        }
      }
    }
    t_inline = outer;
  }
};

HostPool::HostPool(unsigned threads) {
  const unsigned extra = threads > 1 ? threads - 1 : 0;
  workers_.reserve(extra);
  try {
    for (unsigned i = 0; i < extra; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    stop_and_join();  // the threads that did start
    throw;
  }
}

HostPool::~HostPool() { stop_and_join(); }

void HostPool::stop_and_join() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void HostPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
      if (job == nullptr) continue;  // that job already finished
      ++job->active;
    }
    job->run();
    bool last = false;
    {
      std::lock_guard lock(mutex_);
      last = --job->active == 0;
    }
    if (last) done_.notify_all();
  }
}

void HostPool::for_each(std::size_t chunks,
                        FunctionRef<void(std::size_t)> body) {
  Job job(chunks, body);
  // A caller that finds another caller's job on the pool runs its own chunks
  // rather than wait for that job to finish.
  std::unique_lock submit(submit_mutex_, std::defer_lock);
  if (workers_.empty() || chunks <= 1 || t_inline || !submit.try_lock()) {
    job.run();
  } else {
    {
      std::lock_guard lock(mutex_);
      job_ = &job;
      ++generation_;
    }
    wake_.notify_all();
    job.run();
    // Every chunk is claimed; wait out the workers still running one, and
    // unpublish the job before it leaves scope.
    std::unique_lock lock(mutex_);
    done_.wait(lock, [&] { return job.active == 0; });
    job_ = nullptr;
  }
  if (job.error) std::rethrow_exception(job.error);
}

HostPool& host_pool() {
  if (HostPool* scoped = g_scoped_pool.load(std::memory_order_acquire)) {
    return *scoped;
  }
  static HostPool pool(std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

InlineScope::InlineScope() : previous_(std::exchange(t_inline, true)) {}

InlineScope::~InlineScope() { t_inline = previous_; }

ScopedHostPool::ScopedHostPool(unsigned threads)
    : pool_(threads),
      previous_(g_scoped_pool.exchange(&pool_, std::memory_order_acq_rel)) {}

ScopedHostPool::~ScopedHostPool() {
  g_scoped_pool.store(previous_, std::memory_order_release);
}

}  // namespace ent::util
