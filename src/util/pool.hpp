// One persistent host thread pool for data-parallel host loops.
//
// The pool has a single primitive, for_each(chunks, body): it runs body(c)
// exactly once for every c in [0, chunks) on the pool's threads and the
// calling thread, and returns when every chunk has finished. Which thread
// runs which chunk is unspecified, so loops built on it stay deterministic by
// construction: they split work at fixed boundaries that do not depend on the
// pool size, keep per-chunk results apart, and merge them in chunk order.
// A pool of one thread is the serial path.
//
// Idle threads block on a condition variable and never spin, so code that
// does not call the pool pays nothing for it. Bodies should not allocate:
// callers size their scratch before the call, which keeps pool threads from
// creating allocator arenas of their own.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ent::util {

class HostPool {
 public:
  // `threads` counts the calling thread, so a pool of one starts no thread.
  explicit HostPool(unsigned threads);
  ~HostPool();
  HostPool(const HostPool&) = delete;
  HostPool& operator=(const HostPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()) + 1; }

  // Runs body(c) once for each c in [0, chunks). Safe to call from several
  // threads at once; a call made from inside a chunk runs inline on its
  // thread. If chunks throw, every chunk still runs, and the exception of the
  // lowest-numbered failing chunk is rethrown.
  void for_each(std::size_t chunks,
                const std::function<void(std::size_t)>& body);

  // for_each over [0, count) cut into fixed blocks of `block` items, the
  // last possibly shorter: body(begin, end) runs once per block.
  template <class Body>
  void for_each_block(std::size_t count, std::size_t block, Body&& body) {
    for_each((count + block - 1) / block, [&](std::size_t c) {
      body(c * block, std::min(count, (c + 1) * block));
    });
  }

 private:
  struct Job;

  void worker_loop();
  void stop_and_join();

  std::mutex submit_mutex_;  // one job at a time; later callers queue here
  std::mutex mutex_;         // guards job_, generation_, stop_, Job::active
  std::condition_variable wake_;
  std::condition_variable done_;
  Job* job_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;  // last: threads start after the state
};

// The process-wide pool, created on first use with
// std::thread::hardware_concurrency() threads.
HostPool& host_pool();

// Seam for tests and benchmarks: host_pool() returns a pool of `threads`
// threads while this object lives.
class ScopedHostPool {
 public:
  explicit ScopedHostPool(unsigned threads);
  ~ScopedHostPool();
  ScopedHostPool(const ScopedHostPool&) = delete;
  ScopedHostPool& operator=(const ScopedHostPool&) = delete;

 private:
  HostPool pool_;
  HostPool* previous_;
};

}  // namespace ent::util
