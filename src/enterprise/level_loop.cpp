#include "enterprise/level_loop.hpp"

#include <utility>

#include "bfs/checkpoint.hpp"
#include "bfs/guard.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"

namespace ent::enterprise {

using graph::vertex_t;

LevelLoop::LevelLoop(const graph::Csr& g, const graph::SegmentDigests& digests,
                     const EnterpriseOptions& options, vertex_t source,
                     DriverTraits traits)
    : g_(g),
      digests_(digests),
      options_(options),
      source_(source),
      traits_(traits),
      flips_armed_(options.fault_injector != nullptr &&
                   options.fault_injector->plan().has_flip_rules()),
      audits_on_(options.integrity.audits_active()),
      scrubs_on_(options.integrity.scrubs_active()),
      audit_rng_(options.integrity.audit_seed ^
                 static_cast<std::uint64_t>(source) ^ traits.audit_salt) {
  if (flips_armed_) in_order_.emplace();
}

const bfs::LevelCheckpoint* LevelLoop::resume() {
  const bfs::LevelCheckpoint* cp = nullptr;
  if (options_.checkpointer != nullptr) cp = options_.checkpointer->restore();
  if (cp != nullptr && cp->source != source_) cp = nullptr;
  if (audits_on_ && cp == nullptr) {
    tally_.assign(1, 1);  // the source alone, at level 0
  } else if (audits_on_) {
    tally_.assign(static_cast<std::size_t>(cp->next_level) + 1, 0);
    for (const std::int32_t s : cp->levels) {
      if (s >= 0 && s <= cp->next_level) ++tally_[static_cast<std::size_t>(s)];
    }
  }
  return cp;
}

bool LevelLoop::open_level(std::int32_t level, std::uint64_t frontier,
                           double now_ms, std::span<const Shard> shards) {
  sim::FaultInjector* const injector = options_.fault_injector;
  if (injector != nullptr) injector->set_level(level);
  // Cooperative guard check (bfs/guard.hpp): host-side comparisons only, no
  // simulated kernels, so a guard that never trips changes nothing.
  if (options_.guard != nullptr) {
    options_.guard->check_level(traits_.shape.bounded_depth ? level : 0,
                                traits_.shape.bounded_frontier ? frontier : 0,
                                now_ms);
  }
  // Flips strike before the scrub and audit, so corruption is caught at the
  // level top it lands on, ahead of the kernels that would consume it.
  if (flips_armed_) {
    for (const Shard& s : shards) {
      injector->register_flip_target(sim::FlipTarget::kStatus, s.device,
                                     s.state);
      injector->register_flip_target(
          sim::FlipTarget::kFrontier, s.device,
          std::as_writable_bytes(std::span<vertex_t>(*s.queue)));
    }
    injector->flip_pass(level, now_ms);
  }
  const auto interval =
      static_cast<std::int32_t>(options_.integrity.scrub_interval);
  return check(level, now_ms, shards, scrubs_on_ && level % interval == 0);
}

bool LevelLoop::check(std::int32_t level, double now_ms,
                      std::span<const Shard> shards, bool scrub_due) {
  level_ = level;
  now_ms_ = now_ms;
  device_ = shards.front().device;
  if (scrub_due) scrub();
  if (audits_on_ && options_.metrics != nullptr) {
    counter(audit_checks_, "integrity.audit.checks").increment();
  }
  return audits_on_;
}

obs::Counter& LevelLoop::counter(obs::Counter*& slot, const char* name) {
  if (slot == nullptr) slot = &options_.metrics->counter(name);
  return *slot;
}

void LevelLoop::count_queue(Granularity gran, std::uint64_t frontiers) {
  if (options_.metrics == nullptr) return;
  obs::Counter*& slot = queue_counters_[static_cast<std::size_t>(gran)];
  if (slot == nullptr) {
    slot = &options_.metrics->counter(std::string("enterprise.queue.") +
                                      to_string(gran));
  }
  slot->add(frontiers);
}

void LevelLoop::count_hub_cache(std::uint64_t probes, std::uint64_t hits) {
  if (options_.metrics == nullptr) return;
  counter(hub_probes_, "enterprise.hub_cache.probes").add(probes);
  counter(hub_hits_, "enterprise.hub_cache.hits").add(hits);
}

void LevelLoop::level_end(std::int32_t next_level, vertex_t newly_visited,
                          std::span<const Shard> shards,
                          const std::vector<vertex_t>& parents,
                          const std::vector<bfs::LevelTrace>& trace,
                          bfs::LevelCheckpoint&& cp) {
  if (audits_on_) tally_.push_back(newly_visited);
  if (options_.checkpointer == nullptr) return;
  // The shards' status arrays agree after a level, and their queues
  // partition the global frontier.
  cp.source = source_;
  cp.next_level = next_level;
  const std::span<const std::int32_t> levels = shards.front().status->data();
  cp.levels.assign(levels.begin(), levels.end());
  cp.parents = parents;
  for (const Shard& s : shards) {
    cp.frontier.insert(cp.frontier.end(), s.queue->begin(), s.queue->end());
  }
  cp.level_trace = trace;
  options_.checkpointer->save(std::move(cp));
}

void LevelLoop::detect(sim::IntegrityKind kind, const char* counter,
                       const std::string& component, unsigned device,
                       std::string detail) const {
  if (options_.metrics != nullptr) {
    options_.metrics->counter(counter).increment();
    options_.metrics->counter("integrity.detections").increment();
  }
  if (options_.sink != nullptr) {
    obs::IntegrityEvent e;
    e.kind = kind == sim::IntegrityKind::kDigest ? "scrub" : "audit";
    e.verdict = kind == sim::IntegrityKind::kDigest ? "mismatch" : "failed";
    e.component = component;
    e.detail = detail;
    e.level = level_;
    e.device = device;
    e.at_ms = now_ms_;
    options_.sink->integrity(e);
  }
  throw sim::IntegrityFault(kind, component, level_, now_ms_,
                            std::move(detail));
}

void LevelLoop::audit_failed(const std::string& component,
                             std::string detail) const {
  detect(sim::IntegrityKind::kAudit, "integrity.audit.failures", component,
         device_, std::move(detail));
}

// Re-verifies the load-time CSR digests: host-side hashing, no simulated
// kernels, like a DMA'd scrubber that does not occupy SMXs.
void LevelLoop::scrub() {
  if (options_.metrics != nullptr) {
    counter(scrub_passes_, "integrity.scrub.passes").increment();
  }
  if (const auto mm = digests_.verify(g_)) {
    detect(sim::IntegrityKind::kDigest, "integrity.scrub.mismatches",
           mm->segment, device_,
           "block " + std::to_string(mm->block) + " expected " +
               std::to_string(mm->expected) + " got " +
               std::to_string(mm->actual));
  }
}

// Status monotonicity, frontier-count conservation and status/queue
// agreement. kFull proves them exhaustively; kSampled spot-checks
// `sample_size` random entries.
void LevelLoop::audit_status(std::span<const Shard> shards,
                             bool bottom_up) {
  const vertex_t n = g_.num_vertices();
  const std::int32_t lvl = level_;
  const bool partitioned = traits_.partitioned;
  const auto on = [&](std::size_t p) {
    return partitioned ? "gpu" + std::to_string(p) + " " : std::string();
  };
  const auto fail = [&](std::size_t p, const char* component,
                        std::string detail) {
    detect(sim::IntegrityKind::kAudit, "integrity.audit.failures", component,
           shards[p].device, std::move(detail));
  };
  // Vertex v's status on device p, which must be kUnvisited or in [0, lvl].
  const auto status_at = [&](std::size_t p, vertex_t v) {
    const std::int32_t s = shards[p].status->level(v);
    if (s != kUnvisited && (s < 0 || s > lvl)) {
      fail(p, "status", on(p) + "vertex " + std::to_string(v) +
                            " has level " + std::to_string(s) +
                            " outside [-1, " + std::to_string(lvl) + "]");
    }
    return s;
  };
  // A top-down queue holds exactly the level-lvl vertex set, a bottom-up
  // queue exactly the unvisited set. `seen` (full audits) catches in-range
  // flips that collide with another frontier vertex: on power-of-two vertex
  // counts a high-bit flip can stay in range.
  const auto check_entry = [&](std::size_t p, vertex_t q,
                               std::vector<std::uint8_t>* seen) {
    const StatusArray& status = *shards[p].status;
    if (q >= n) {
      fail(p, "frontier",
           on(p) + "queue entry " + std::to_string(q) + " out of range");
    }
    if (seen != nullptr && (*seen)[q] != 0) {
      fail(p, "frontier",
           "duplicate queue entry " + std::to_string(q) +
               (partitioned ? " on gpu" + std::to_string(p) : ""));
    }
    if (seen != nullptr) (*seen)[q] = 1;
    if (!bottom_up && status.level(q) != lvl) {
      fail(p, "frontier",
           on(p) + "queue entry " + std::to_string(q) + " has status level " +
               std::to_string(status.level(q)) + ", expected " +
               std::to_string(lvl));
    }
    if (bottom_up && status.visited(q)) {
      fail(p, "frontier",
           on(p) + "bottom-up queue entry " + std::to_string(q) +
               " is already visited" +
               (seen != nullptr && !partitioned
                    ? " at level " + std::to_string(status.level(q))
                    : ""));
    }
  };

  const bfs::IntegrityOptions& integ = options_.integrity;
  if (integ.audit == bfs::AuditMode::kFull) {
    std::vector<std::uint8_t> seen(n, 0);
    for (std::size_t p = 0; p < shards.size(); ++p) {
      std::vector<vertex_t> hist(static_cast<std::size_t>(lvl) + 1, 0);
      vertex_t unvisited = 0;
      for (vertex_t v = 0; v < n; ++v) {
        const std::int32_t s = status_at(p, v);
        if (s == kUnvisited) {
          ++unvisited;
        } else {
          ++hist[static_cast<std::size_t>(s)];
        }
      }
      for (std::size_t l = 0; l < hist.size(); ++l) {
        if (hist[l] != tally_[l]) {
          fail(p, "status",
               on(p) + "level " + std::to_string(l) + " holds " +
                   std::to_string(hist[l]) + " vertices, tally recorded " +
                   std::to_string(tally_[l]));
        }
      }
      // Frontier-count conservation against the shared status view.
      std::size_t total = 0;
      for (const Shard& s : shards) total += s.queue->size();
      const std::size_t expect = bottom_up ? unvisited : hist.back();
      if (p == 0 && total != expect) {
        fail(0, "frontier",
             std::string(partitioned ? "global frontier" : "queue") +
                 " holds " + std::to_string(total) +
                 " entries, status array implies " + std::to_string(expect));
      }
      for (const vertex_t q : *shards[p].queue) check_entry(p, q, &seen);
    }
    return;
  }
  // Sampled. A partitioned system picks the device of every draw; one device
  // draws all its status entries first, then its queue entries.
  const auto draw_entry = [&](std::size_t p) {
    const std::vector<vertex_t>& queue = *shards[p].queue;
    if (queue.empty()) return;
    check_entry(p, queue[audit_rng_.next_below(queue.size())], nullptr);
  };
  for (std::uint32_t i = 0; i < integ.sample_size; ++i) {
    const std::size_t p =
        partitioned ? audit_rng_.next_below(shards.size()) : 0;
    status_at(p, static_cast<vertex_t>(audit_rng_.next_below(n)));
    if (partitioned) draw_entry(p);
  }
  for (std::uint32_t i = 0; !partitioned && i < integ.sample_size; ++i) {
    draw_entry(0);
  }
}

graph::SegmentDigests scrub_digests(const graph::Csr& g,
                                    const bfs::IntegrityOptions& integrity) {
  if (integrity.scrub_interval == 0) return {};
  return graph::SegmentDigests::compute(g);
}

}  // namespace ent::enterprise
