// Direction-optimizing host BFS after Beamer, Asanović and Patterson [10] on
// the shared host pool: the CPU comparison point of Table 2, a second
// correctness reference, and the host floor of the resilient cascade and the
// guarded ladder. Levels, parents and the trace do not depend on the pool
// size: a top-down level gives each vertex its first discoverer in frontier
// order, and a bottom-up vertex adopts its first in-neighbour on the
// frontier, as a serial search does.
#pragma once

#include "bfs/result.hpp"
#include "graph/csr.hpp"

namespace ent::baselines {

struct CpuParallelOptions {
  // 1 runs the whole search on the calling thread; any other value runs its
  // wide levels on util::host_pool().
  unsigned num_threads = 0;
};

// time_ms is host wall time; level_trace carries each level's direction,
// frontier count, edges inspected and alpha.
bfs::BfsResult cpu_parallel_bfs(const graph::Csr& g, graph::vertex_t source,
                                const CpuParallelOptions& options = {});

}  // namespace ent::baselines
