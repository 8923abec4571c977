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
// does not call the pool pays nothing for it. Neither a call nor its bodies
// allocate: callers size their scratch before the call, which keeps pool
// threads from creating allocator arenas of their own.
//
// A call never waits for another caller. The pool runs one job at a time;
// a caller that finds another caller's job on it runs its own chunks inline,
// all in chunk order, so concurrent callers (serve workers) share the pool
// without queueing behind one another. A thread that holds an InlineScope, or
// that is running a chunk, also runs every for_each inline. Loops whose
// result would depend on the order chunks run in (a queue holding a vertex
// twice) take that path.
#pragma once

#include <algorithm>
#include <concepts>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ent::util {

template <class Signature>
class FunctionRef;

// A non-owning reference to a callable: two pointers, never an allocation.
// The callable must outlive every call made through the reference.
template <class R, class... Args>
class FunctionRef<R(Args...)> {
 public:
  template <class F>
    requires(!std::same_as<std::remove_cvref_t<F>, FunctionRef> &&
             std::invocable<F&, Args...>)
  FunctionRef(F&& f)  // NOLINT: implicit, like std::function
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

class HostPool {
 public:
  // `threads` counts the calling thread, so a pool of one starts no thread.
  explicit HostPool(unsigned threads);
  ~HostPool();
  HostPool(const HostPool&) = delete;
  HostPool& operator=(const HostPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()) + 1; }

  // Runs body(c) once for each c in [0, chunks) and returns when all have
  // run. Safe to call from several threads at once, and never waits for
  // another call: while another call's job holds the pool, and for a call
  // made from inside a chunk or under an InlineScope, every chunk runs
  // inline on the calling thread, in chunk order. If chunks throw, every
  // chunk still runs, and the exception of the lowest-numbered failing chunk
  // is rethrown.
  void for_each(std::size_t chunks, FunctionRef<void(std::size_t)> body);

  // for_each over [0, count) cut into fixed blocks of `block` items, the
  // last possibly shorter: body(begin, end) runs once per block. An input of
  // one block runs on the calling thread without entering the pool.
  template <class Body>
  void for_each_block(std::size_t count, std::size_t block, Body&& body) {
    if (count <= block) {
      if (count != 0) body(std::size_t{0}, count);
      return;
    }
    for_each((count + block - 1) / block, [&](std::size_t c) {
      body(c * block, std::min(count, (c + 1) * block));
    });
  }

  // for_each_block with one partial result per block: block 0 works on
  // `first` and block b >= 1 on rest[b - 1], which is sized here, before the
  // call; body(begin, end, part). Merging `first` then `rest` in order gives
  // the same result at any pool size. An input of one block leaves `rest`
  // empty and allocates nothing.
  template <class Part, class Body>
  void for_each_part(std::size_t count, std::size_t block, Part& first,
                     std::vector<Part>& rest, Body&& body) {
    rest.resize(count > block ? (count - 1) / block : 0);
    for_each_block(count, block, [&](std::size_t begin, std::size_t end) {
      body(begin, end, begin == 0 ? first : rest[begin / block - 1]);
    });
  }

 private:
  struct Job;

  void worker_loop();
  void stop_and_join();

  std::mutex submit_mutex_;  // held by the job on the pool; never waited on
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

// While one lives, every for_each on its thread runs inline, all chunks in
// chunk order on the calling thread. Scopes nest; each restores the state it
// found.
class InlineScope {
 public:
  InlineScope();
  ~InlineScope();
  InlineScope(const InlineScope&) = delete;
  InlineScope& operator=(const InlineScope&) = delete;

 private:
  bool previous_;
};

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
