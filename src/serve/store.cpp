#include "serve/store.hpp"

#include <algorithm>
#include <sstream>

#include "baselines/cpu_bfs.hpp"
#include "bfs/validate.hpp"
#include "graph/digest.hpp"
#include "graph/errors.hpp"
#include "graph/validate.hpp"
#include "util/random.hpp"

namespace ent::serve {

const char* to_string(RejectStage stage) {
  switch (stage) {
    case RejectStage::kBuild: return "build";
    case RejectStage::kValidate: return "validate";
    case RejectStage::kDigest: return "digest";
    case RejectStage::kCanary: return "canary";
    case RejectStage::kFault: return "fault";
  }
  return "unknown";
}

SnapshotRejected::SnapshotRejected(RejectStage stage,
                                   std::uint64_t candidate_generation,
                                   const std::string& detail)
    : std::runtime_error("snapshot candidate gen " +
                         std::to_string(candidate_generation) +
                         " rejected at " + to_string(stage) + ": " + detail),
      stage_(stage),
      candidate_generation_(candidate_generation) {}

bool StoreStats::ledgers_exact(bool require_all_drained) const {
  for (const GenerationLedger& gen : generations) {
    if (gen.finished > gen.started) return false;
    if (gen.drained() && gen.started != gen.finished) return false;
    if (gen.superseded() && gen.started == gen.finished && !gen.drained()) {
      return false;
    }
    if (require_all_drained) {
      if (gen.started != gen.finished) return false;
      if (gen.superseded() && !gen.drained()) return false;
    }
  }
  return true;
}

SnapshotStore::SnapshotStore(const graph::Csr& base, StoreOptions options)
    : options_(std::move(options)) {
  auto snap = std::make_shared<Snapshot>();
  snap->generation = 0;
  // Generation 0 is the caller's graph, which outlives the store (the
  // BfsService construction contract) — a no-op deleter wraps it without
  // copying; every later generation owns its Csr outright.
  snap->graph = std::shared_ptr<const graph::Csr>(&base,
                                                  [](const graph::Csr*) {});
  if (options_.canary_count > 0 && base.num_vertices() > 0) {
    // Canary sources are drawn ONCE and reused by every generation, so the
    // serving snapshot always carries the cross-check answers the next
    // candidate's verification needs.
    SplitMix64 rng(mix64(options_.canary_seed));
    snap->canaries.reserve(options_.canary_count);
    for (unsigned i = 0; i < options_.canary_count; ++i) {
      const auto src =
          static_cast<graph::vertex_t>(rng.next_below(base.num_vertices()));
      snap->canaries.emplace_back(src, baselines::cpu_bfs(base, src).levels);
    }
  }
  GenerationLedger ledger;
  ledger.generation = 0;
  ledger.promoted_at_ms = now_ms();
  std::lock_guard<std::mutex> lock(mutex_);
  ledger_.push_back(ledger);
  current_ = std::move(snap);
}

double SnapshotStore::now_ms() const {
  return options_.clock != nullptr ? options_.clock->millis()
                                   : own_clock_.millis();
}

std::shared_ptr<const Snapshot> SnapshotStore::current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

void SnapshotStore::reject(RejectStage stage, std::uint64_t candidate,
                           const std::string& detail) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++rejected_;
    QuarantineRecord record;
    record.candidate_generation = candidate;
    record.stage = stage;
    record.detail = detail;
    record.at_ms = now_ms();
    quarantine_.push_back(std::move(record));
  }
  throw SnapshotRejected(stage, candidate, detail);
}

std::shared_ptr<const Snapshot> SnapshotStore::ingest(
    const graph::UpdateBatch& batch) {
  std::shared_ptr<const Snapshot> base;
  std::uint64_t candidate_gen = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    base = current_;
    candidate_gen = ++candidate_counter_;
  }
  sim::FaultInjector* injector = options_.injector;
  const auto hook = [&](const char* name) {
    if (injector == nullptr) return;
    try {
      injector->on_kernel(0, name, now_ms());
    } catch (const sim::SimFault& e) {
      reject(RejectStage::kFault, candidate_gen,
             std::string(name) + ": " + e.what());
    }
  };

  // --- build: apply the batch onto a NEW immutable Csr -------------------
  hook("snapshot.build");
  graph::ApplyResult applied;
  try {
    applied = graph::apply_updates(*base->graph, batch);
  } catch (const graph::GraphError& e) {
    reject(RejectStage::kBuild, candidate_gen, e.what());
  }
  graph::Csr candidate = std::move(applied.graph);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++built_;
  }
  // Test seam: the rejection-matrix tests corrupt the candidate here to
  // prove no corrupted generation survives verification.
  if (options_.corrupt_candidate) options_.corrupt_candidate(candidate);

  // --- verify ------------------------------------------------------------
  hook("snapshot.verify");
  const std::string source_name =
      "snapshot-gen-" + std::to_string(candidate_gen);
  try {
    graph::validate_csr(candidate, source_name);
  } catch (const graph::GraphError& e) {
    reject(RejectStage::kValidate, candidate_gen, e.what());
  }
  const graph::SegmentDigests digests =
      graph::SegmentDigests::compute(candidate);
  if (injector != nullptr && injector->plan().has_flip_rules()) {
    // Flip seam: silent-corruption rules may strike the candidate AFTER its
    // digests were taken — exactly the window the digest verify must cover.
    injector->register_flip_target(sim::FlipTarget::kAdjacency, 0,
                                   candidate.raw_adjacency_bytes());
    injector->flip_pass(-1, now_ms());
    injector->clear_flip_targets();  // span dies with this scope
  }
  if (const auto mismatch = digests.verify(candidate)) {
    std::ostringstream os;
    os << "segment " << mismatch->segment << " block " << mismatch->block
       << ": expected " << mismatch->expected << " got " << mismatch->actual;
    reject(RejectStage::kDigest, candidate_gen, os.str());
  }

  // --- canary cross-check against the OLD snapshot -----------------------
  // Sources whose old reachable set avoids every delta-touched vertex must
  // answer EXACTLY as before (see header proof); the rest get fresh truth.
  std::vector<std::pair<graph::vertex_t, std::vector<std::int32_t>>> canaries;
  canaries.reserve(base->canaries.size());
  for (const auto& [src, old_levels] : base->canaries) {
    bool affected = false;
    for (const graph::vertex_t v : applied.touched) {
      if (v < old_levels.size() && old_levels[v] >= 0) {
        affected = true;
        break;
      }
    }
    std::vector<std::int32_t> fresh =
        baselines::cpu_bfs(candidate, src).levels;
    if (!affected) {
      const bfs::ValidationReport v = bfs::validate_levels(fresh, old_levels);
      if (!v.ok) {
        reject(RejectStage::kCanary, candidate_gen,
               "source " + std::to_string(src) +
                   " is provably unaffected by the delta but answers "
                   "differently: " + v.error);
      }
    }
    canaries.emplace_back(src, std::move(fresh));
  }

  // --- promote ------------------------------------------------------------
  auto snap = std::make_shared<Snapshot>();
  snap->generation = candidate_gen;
  snap->graph = std::make_shared<const graph::Csr>(std::move(candidate));
  snap->canaries = std::move(canaries);
  snap->edges_added = applied.edges_added;
  snap->edges_removed = applied.edges_removed;
  snap->ops_applied = batch.ops.size();
  hook("snapshot.promote");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const double now = now_ms();
    for (GenerationLedger& gen : ledger_) {
      if (gen.generation == base->generation && !gen.superseded()) {
        gen.superseded_at_ms = now;
        // Idle swap: nothing in flight, the old generation drains the
        // instant it is superseded.
        if (gen.started == gen.finished) gen.drained_at_ms = now;
      }
    }
    GenerationLedger ledger;
    ledger.generation = candidate_gen;
    ledger.promoted_at_ms = now;
    ledger_.push_back(ledger);
    current_ = snap;
    generation_.store(candidate_gen, std::memory_order_release);
    ++promoted_;
  }
  return snap;
}

std::shared_ptr<const Snapshot> SnapshotStore::begin_request() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (GenerationLedger& gen : ledger_) {
    if (gen.generation == current_->generation) {
      ++gen.started;
      break;
    }
  }
  return current_;
}

void SnapshotStore::note_finished(std::uint64_t generation) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (GenerationLedger& gen : ledger_) {
    if (gen.generation != generation) continue;
    ++gen.finished;
    if (gen.superseded() && !gen.drained() && gen.started == gen.finished) {
      gen.drained_at_ms = now_ms();
    }
    break;
  }
}

StoreStats SnapshotStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  StoreStats s;
  s.built = built_;
  s.promoted = promoted_;
  s.rejected = rejected_;
  s.generations = ledger_;
  s.quarantine = quarantine_;
  return s;
}

}  // namespace ent::serve
