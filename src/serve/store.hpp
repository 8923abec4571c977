// Versioned graph snapshots with verified promotion: the mutation half of
// the live-serving story. A SnapshotStore owns a chain of immutable
// generations; `ingest` applies one validated UpdateBatch onto the CURRENT
// generation off to the side, then walks the candidate through a verification
// gauntlet before any request can see it:
//
//   build    apply_updates onto a new immutable Csr (the base is never
//            touched, so rollback is free: just don't promote)
//   verify   full validate_csr + fresh per-segment SegmentDigests + canary
//            traversals cross-checked against the OLD snapshot on sources
//            provably unaffected by the delta (see below)
//   promote  atomic generation swap; in-flight requests finish on the
//            generation they started on (shared_ptr refcounts reclaim)
//   drain    per-generation ledger: once superseded, a generation is drained
//            when started_on(gen) == finished_on(gen); drain latency feeds
//            the service report
//
// Any failure throws a typed SnapshotRejected naming the stage, records a
// quarantine entry, and leaves the old snapshot serving — a corrupted or
// invariant-violating candidate must never be promoted.
//
// The canary soundness condition: a source s is PROVABLY UNAFFECTED by a
// batch when no delta-touched vertex (endpoint of any applied op) is
// reachable from s in the old snapshot. Then every path from s in either
// graph uses only unchanged edges (induction on the first changed edge of
// any new path: its tail would be old-reachable and touched), so BFS levels
// from s must be EXACTLY equal old vs new — any difference is corruption.
// Affected sources get their truth recomputed on the candidate instead; both
// kinds become the promoted snapshot's serve-time canary answers.
//
// Fault injection reaches this path too: an optional FaultInjector is
// consulted at the build/verify/promote hooks (SimFault => rejection, not
// retry) and its silent-flip rules may corrupt the candidate's adjacency
// between digest compute and the digest verify that must catch it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/digest.hpp"
#include "graph/snapshot.hpp"
#include "gpusim/fault.hpp"
#include "util/timer.hpp"

namespace ent::serve {

// One immutable serving generation. Everything derived from the graph that
// the serving layer needs (canary truths, integrity digests) lives HERE,
// not on the service — so a snapshot swap can never pair a new graph with
// stale derived state. The in-edge view that workers' engines and digraph
// tree validation read lives on the graph itself (Csr::in_edges()): its
// first consumer builds it, and every worker rebound to this generation
// shares it.
struct Snapshot {
  std::uint64_t generation = 0;
  std::shared_ptr<const graph::Csr> graph;
  graph::SegmentDigests digests;
  // Precomputed canary answers on THIS generation's graph:
  // (source, host-reference levels).
  std::vector<std::pair<graph::vertex_t, std::vector<std::int32_t>>> canaries;
  // Delta evidence vs the parent generation (zero for generation 0).
  graph::edge_t edges_added = 0;
  graph::edge_t edges_removed = 0;
  std::size_t ops_applied = 0;
};

// Verification stage at which a candidate was refused.
enum class RejectStage {
  kBuild,     // apply_updates refused the batch (typed GraphError)
  kValidate,  // validate_csr found a structural violation
  kDigest,    // fresh digests no longer verify (flip landed post-compute)
  kCanary,    // provably-unaffected canary answer changed
  kFault,     // injected SimFault at a build/verify/promote hook
};
const char* to_string(RejectStage stage);

class SnapshotRejected : public std::runtime_error {
 public:
  SnapshotRejected(RejectStage stage, std::uint64_t candidate_generation,
                   const std::string& detail);

  RejectStage stage() const { return stage_; }
  std::uint64_t candidate_generation() const { return candidate_generation_; }

 private:
  RejectStage stage_;
  std::uint64_t candidate_generation_;
};

// Per-generation admission ledger: the drain invariant made checkable.
// `started`/`finished` count requests that began/reached a terminal outcome
// on this generation; once superseded, the generation is drained exactly
// when they agree — and from then on they may never move again.
struct GenerationLedger {
  std::uint64_t generation = 0;
  std::uint64_t started = 0;
  std::uint64_t finished = 0;
  double promoted_at_ms = 0.0;
  double superseded_at_ms = -1.0;  // -1 = still current
  double drained_at_ms = -1.0;     // -1 = not yet drained

  bool superseded() const { return superseded_at_ms >= 0.0; }
  bool drained() const { return drained_at_ms >= 0.0; }
  // Supersede -> last in-flight request finished. 0 for an idle swap.
  double drain_ms() const {
    return drained() ? drained_at_ms - superseded_at_ms : -1.0;
  }
};

// Why a candidate generation was refused; kept for post-mortems and tests.
struct QuarantineRecord {
  std::uint64_t candidate_generation = 0;
  RejectStage stage = RejectStage::kBuild;
  std::string detail;
  double at_ms = 0.0;
};

struct StoreStats {
  std::uint64_t built = 0;     // candidates that reached verification
  std::uint64_t promoted = 0;  // generations beyond 0 now or once serving
  std::uint64_t rejected = 0;  // quarantined candidates
  std::vector<GenerationLedger> generations;
  std::vector<QuarantineRecord> quarantine;

  // Drain invariant over the whole run: every superseded generation either
  // drained with exact accounting or still has in-flight requests (legal
  // only mid-run; after shutdown everything superseded must be drained).
  bool ledgers_exact(bool require_all_drained) const;
};

struct StoreOptions {
  // Digest block size for per-generation SegmentDigests.
  std::size_t digest_block_bytes = graph::SegmentDigests::kDefaultBlockBytes;
  // Canary sources drawn once (seeded) and kept stable across generations so
  // the old snapshot already holds the cross-check answer. 0 disables
  // canary verification AND serve-time canary truths.
  unsigned canary_count = 0;
  std::uint64_t canary_seed = 0x60a7ull;
  // Fault-injection tap for the snapshot path; may be null. SimFaults at
  // the build/verify/promote hooks reject the candidate; silent-flip rules
  // corrupt the candidate's adjacency after digest compute (the digest
  // verify must catch them).
  sim::FaultInjector* injector = nullptr;
  // Test seam: mutate the candidate graph after build, before verification.
  // The rejection-matrix tests use it to prove corrupted candidates are
  // refused at the right stage.
  std::function<void(graph::Csr&)> corrupt_candidate;
  // Ledger timestamps come from this clock (the service's, for coherent
  // reports); null = the store's own epoch.
  const Timer* clock = nullptr;
};

class SnapshotStore {
 public:
  // Generation 0 wraps `base` WITHOUT copying or owning it (the caller's
  // graph must outlive the store, matching BfsService's contract); later
  // generations own their graphs. Canary truths for generation 0 are
  // precomputed here when canary_count > 0.
  SnapshotStore(const graph::Csr& base, StoreOptions options);

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  // The serving snapshot. Holders keep their generation alive through the
  // shared_ptr; the store never blocks on readers.
  std::shared_ptr<const Snapshot> current() const;
  // Lock-free generation probe for worker wakeup predicates.
  std::uint64_t current_generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  // Applies one batch to the current generation, verifies the candidate,
  // and promotes it. Returns the new snapshot on success. Throws
  // SnapshotRejected (and records a quarantine entry) on any failure — the
  // previous snapshot keeps serving, by construction unmodified.
  std::shared_ptr<const Snapshot> ingest(const graph::UpdateBatch& batch);

  // Admission-ledger hooks. begin_request pins the CURRENT snapshot and
  // counts the request as started on it in one critical section — promotion
  // holds the same lock, so a generation whose started == finished at
  // supersede time provably has no request about to start on it (the drain
  // invariant would race if pin and count were separate steps). Every
  // begin_request must be paired with exactly one note_finished.
  std::shared_ptr<const Snapshot> begin_request();
  void note_finished(std::uint64_t generation);

  StoreStats stats() const;

 private:
  [[noreturn]] void reject(RejectStage stage, std::uint64_t candidate,
                           const std::string& detail);
  double now_ms() const;

  StoreOptions options_;
  Timer own_clock_;  // used when options_.clock is null

  mutable std::mutex mutex_;  // current_, ledger_, quarantine_, counters
  std::shared_ptr<const Snapshot> current_;
  std::atomic<std::uint64_t> generation_{0};
  std::vector<GenerationLedger> ledger_;
  std::vector<QuarantineRecord> quarantine_;
  std::uint64_t built_ = 0;
  std::uint64_t promoted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t candidate_counter_ = 0;  // next candidate generation number
};

}  // namespace ent::serve
