// Live-graph snapshot pipeline: validated update-trace ingestion
// (graph/snapshot.hpp), immutable candidate builds, the verification
// gauntlet and rejection matrix (serve/store.hpp), zero-downtime epoch
// swaps under traffic, per-generation drain ledgers, Engine::clone rebind
// fidelity across generations, and the ServiceSection snapshot schema.
//
// The rejection matrix is the heart: every way a candidate generation can
// be corrupted — malformed batch, structural violation, post-digest flip,
// connectivity change on a provably-unaffected canary, injected fault at a
// lifecycle hook — must be refused BEFORE promotion, with the old snapshot
// still serving.
#include <gtest/gtest.h>

#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/cpu_bfs.hpp"
#include "bfs/engine.hpp"
#include "bfs/runner.hpp"
#include "graph/corrupt.hpp"
#include "graph/errors.hpp"
#include "graph/generators.hpp"
#include "graph/snapshot.hpp"
#include "graph/validate.hpp"
#include "gpusim/fault.hpp"
#include "obs/run_report.hpp"
#include "serve/service.hpp"
#include "serve/store.hpp"

namespace ent {
namespace {

using graph::Csr;
using graph::EdgeUpdate;
using graph::GraphError;
using graph::GraphFormatError;
using graph::GraphIoError;
using graph::UpdateBatch;
using graph::UpdateOp;
using graph::UpdateTrace;
using graph::vertex_t;

Csr test_graph(std::uint64_t seed) {
  graph::KroneckerParams p;
  p.scale = 9;
  p.edge_factor = 8;
  p.seed = seed;
  return graph::generate_kronecker(p);
}

// Undirected path 0-1 plus isolated vertex 2: the smallest graph where an
// edge update changes reachability in a way BFS can observe.
Csr tiny_path() {
  return Csr(3, {0, 1, 2, 2}, {1, 0}, /*directed=*/false);
}

UpdateTrace parse(const std::string& text) {
  std::istringstream is(text);
  return UpdateTrace::from_stream(is, "<test>");
}

// --- update-trace parsing: every malformed input is a typed error ----------

TEST(UpdateTraceParse, ParsesBatchesOpsAndComments) {
  const auto trace = parse(
      "# header comment\n"
      "batch 5\n"
      "add 1 2   # trailing comment\n"
      "remove 3 4\n"
      "\n"
      "batch 2.5\n"
      "add 0 0\n");
  ASSERT_EQ(trace.batches.size(), 2u);
  // Batches are sorted by at_ms regardless of file order.
  EXPECT_DOUBLE_EQ(trace.batches[0].at_ms, 2.5);
  ASSERT_EQ(trace.batches[0].ops.size(), 1u);
  EXPECT_EQ(trace.batches[0].ops[0], (EdgeUpdate{UpdateOp::kAdd, 0, 0, 7}));
  ASSERT_EQ(trace.batches[1].ops.size(), 2u);
  EXPECT_EQ(trace.batches[1].ops[0], (EdgeUpdate{UpdateOp::kAdd, 1, 2, 3}));
  EXPECT_EQ(trace.batches[1].ops[1],
            (EdgeUpdate{UpdateOp::kRemove, 3, 4, 4}));
}

TEST(UpdateTraceParse, RoundTripsThroughWrite) {
  graph::RandomUpdateParams params;
  params.batches = 3;
  params.ops_per_batch = 9;
  params.seed = 41;
  const Csr g = test_graph(41);
  const UpdateTrace trace = UpdateTrace::random(params, g);
  std::ostringstream os;
  trace.write(os);
  std::istringstream is(os.str());
  const UpdateTrace back = UpdateTrace::from_stream(is);
  ASSERT_EQ(back.batches.size(), trace.batches.size());
  for (std::size_t i = 0; i < trace.batches.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.batches[i].at_ms, trace.batches[i].at_ms);
    ASSERT_EQ(back.batches[i].ops.size(), trace.batches[i].ops.size());
    for (std::size_t j = 0; j < trace.batches[i].ops.size(); ++j) {
      EXPECT_EQ(back.batches[i].ops[j].op, trace.batches[i].ops[j].op);
      EXPECT_EQ(back.batches[i].ops[j].src, trace.batches[i].ops[j].src);
      EXPECT_EQ(back.batches[i].ops[j].dst, trace.batches[i].ops[j].dst);
    }
  }
}

// Each malformed shape throws GraphFormatError carrying the 1-based line.
struct BadTrace {
  const char* name;
  const char* text;
  std::uint64_t line;
};

TEST(UpdateTraceParse, MalformedTracesThrowTypedWithLocation) {
  const BadTrace cases[] = {
      {"missing-timestamp", "batch\n", 1},
      {"bad-timestamp", "batch zap\n", 1},
      {"negative-timestamp", "batch -5\n", 1},
      {"batch-trailing-garbage", "batch 5 extra\n", 1},
      {"op-before-header", "add 1 2\n", 1},
      {"unknown-op", "batch 0\nfrobnicate 1 2\n", 2},
      {"truncated-op", "batch 0\nadd 1\n", 2},
      {"non-numeric-endpoint", "batch 0\nadd x 2\n", 2},
      {"negative-endpoint", "batch 0\nadd 1 -3\n", 2},
      {"op-trailing-garbage", "batch 0\nadd 1 2 3\n", 2},
  };
  for (const BadTrace& c : cases) {
    try {
      parse(c.text);
      FAIL() << c.name << ": expected GraphFormatError";
    } catch (const GraphFormatError& e) {
      EXPECT_EQ(e.location().line, c.line) << c.name << ": " << e.what();
      EXPECT_EQ(e.path(), "<test>") << c.name;
    }
  }
}

TEST(UpdateTraceParse, UnreadableFileThrowsIoError) {
  EXPECT_THROW(UpdateTrace::from_file("/no/such/update-trace.txt"),
               GraphIoError);
}

TEST(UpdateTraceParse, FuzzedTracesNeverCrash) {
  const std::string base =
      "batch 0\nadd 1 2\nremove 2 3\nbatch 10\nadd 4 5\n";
  for (const std::string& mutated : graph::fuzz_mutations(base, 64, 17)) {
    try {
      parse(mutated);  // either parses or throws typed — never aborts
    } catch (const GraphError&) {
    }
  }
}

// --- apply_updates: immutable candidate builds -----------------------------

TEST(ApplyUpdates, AddsBothDirectionsOnUndirectedBase) {
  const Csr base = tiny_path();
  UpdateBatch batch;
  batch.ops.push_back({UpdateOp::kAdd, 1, 2, 0});
  const auto result = graph::apply_updates(base, batch);
  EXPECT_EQ(result.edges_added, 2u);  // undirected ops count both arcs
  EXPECT_EQ(result.edges_removed, 0u);
  EXPECT_EQ(result.graph.num_edges(), base.num_edges() + 2);
  ASSERT_EQ(result.touched, (std::vector<vertex_t>{1, 2}));
  EXPECT_NO_THROW(graph::validate_csr(result.graph, "apply-add"));
  // The base is untouched: rollback is free by construction.
  EXPECT_EQ(base.num_edges(), 2u);
  const auto levels = baselines::cpu_bfs(result.graph, 0).levels;
  EXPECT_EQ(levels[2], 2);
}

TEST(ApplyUpdates, RemoveDeletesBothDirections) {
  const Csr base = tiny_path();
  UpdateBatch batch;
  batch.ops.push_back({UpdateOp::kRemove, 0, 1, 0});
  const auto result = graph::apply_updates(base, batch);
  EXPECT_EQ(result.edges_removed, 2u);
  EXPECT_EQ(result.graph.num_edges(), 0u);
  EXPECT_NO_THROW(graph::validate_csr(result.graph, "apply-remove"));
}

TEST(ApplyUpdates, RejectsRemovalOfMissingEdge) {
  const Csr base = tiny_path();
  UpdateBatch batch;
  batch.ops.push_back({UpdateOp::kRemove, 0, 2, 41});
  try {
    graph::apply_updates(base, batch);
    FAIL() << "expected GraphFormatError";
  } catch (const GraphFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("does not contain"),
              std::string::npos);
    EXPECT_EQ(e.location().line, 41u);  // names the offending op
  }
}

TEST(ApplyUpdates, RejectsOutOfRangeEndpoint) {
  const Csr base = tiny_path();
  UpdateBatch batch;
  batch.ops.push_back({UpdateOp::kAdd, 0, 99, 0});
  EXPECT_THROW(graph::apply_updates(base, batch), GraphFormatError);
}

TEST(ApplyUpdates, RandomTracesAlwaysBuildValidGenerations) {
  const Csr base = test_graph(51);
  graph::RandomUpdateParams params;
  params.batches = 6;
  params.ops_per_batch = 24;
  params.seed = 51;
  const UpdateTrace trace = UpdateTrace::random(params, base);
  ASSERT_EQ(trace.batches.size(), 6u);
  Csr current = test_graph(51);
  for (std::size_t i = 0; i < trace.batches.size(); ++i) {
    auto result = graph::apply_updates(current, trace.batches[i]);
    EXPECT_NO_THROW(
        graph::validate_csr(result.graph, "random-gen"));
    current = std::move(result.graph);
  }
}

// --- SnapshotStore: epochs, ledgers, and the rejection matrix --------------

serve::StoreOptions store_options_with_canaries() {
  serve::StoreOptions o;
  o.canary_count = 4;
  return o;
}

TEST(SnapshotStore, PromotesVerifiedGenerationWhileOldStaysAlive) {
  const Csr base = test_graph(60);
  serve::SnapshotStore store(base, store_options_with_canaries());
  const auto gen0 = store.current();
  EXPECT_EQ(gen0->generation, 0u);
  EXPECT_EQ(gen0->graph.get(), &base);  // generation 0 wraps, never copies

  graph::RandomUpdateParams params;
  params.batches = 1;
  params.seed = 60;
  const UpdateTrace trace = UpdateTrace::random(params, base);
  const auto gen1 = store.ingest(trace.batches[0]);
  EXPECT_EQ(gen1->generation, 1u);
  EXPECT_EQ(store.current_generation(), 1u);
  EXPECT_EQ(store.current().get(), gen1.get());
  // The superseded snapshot is still fully usable through its shared_ptr.
  EXPECT_EQ(gen0->graph->num_vertices(), base.num_vertices());
  EXPECT_EQ(gen1->canaries.size(), gen0->canaries.size());

  const auto stats = store.stats();
  EXPECT_EQ(stats.built, 1u);
  EXPECT_EQ(stats.promoted, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  ASSERT_EQ(stats.generations.size(), 2u);
  EXPECT_TRUE(stats.generations[0].superseded());
  EXPECT_TRUE(stats.generations[0].drained());  // idle swap drains instantly
  EXPECT_FALSE(stats.generations[1].superseded());
}

TEST(SnapshotStore, BeginRequestPinsGenerationAndLedgerBalances) {
  const Csr base = test_graph(61);
  serve::SnapshotStore store(base, {});

  const auto pinned = store.begin_request();
  EXPECT_EQ(pinned->generation, 0u);

  UpdateBatch empty;  // promotion happens while a request is in flight
  const auto gen1 = store.ingest(empty);
  EXPECT_EQ(gen1->generation, 1u);

  {
    const auto stats = store.stats();
    ASSERT_EQ(stats.generations.size(), 2u);
    EXPECT_TRUE(stats.generations[0].superseded());
    EXPECT_FALSE(stats.generations[0].drained());  // request still running
    EXPECT_TRUE(stats.ledgers_exact(/*require_all_drained=*/false));
    EXPECT_FALSE(stats.ledgers_exact(/*require_all_drained=*/true));
  }

  store.note_finished(pinned->generation);
  const auto stats = store.stats();
  EXPECT_TRUE(stats.generations[0].drained());
  EXPECT_GE(stats.generations[0].drain_ms(), 0.0);
  EXPECT_TRUE(stats.ledgers_exact(/*require_all_drained=*/true));
  // New requests start on the new generation.
  EXPECT_EQ(store.begin_request()->generation, 1u);
  store.note_finished(1);
}

TEST(SnapshotStore, RejectsBatchThatDoesNotApply) {
  const Csr base = tiny_path();
  serve::SnapshotStore store(base, {});
  UpdateBatch batch;
  batch.ops.push_back({UpdateOp::kRemove, 0, 2, 0});  // edge absent
  try {
    store.ingest(batch);
    FAIL() << "expected SnapshotRejected";
  } catch (const serve::SnapshotRejected& e) {
    EXPECT_EQ(e.stage(), serve::RejectStage::kBuild);
  }
  EXPECT_EQ(store.current_generation(), 0u);  // rollback: old keeps serving
  const auto stats = store.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.promoted, 0u);
  ASSERT_EQ(stats.quarantine.size(), 1u);
  EXPECT_EQ(stats.quarantine[0].stage, serve::RejectStage::kBuild);
}

TEST(SnapshotStore, RejectsStructurallyCorruptCandidate) {
  const Csr base = test_graph(62);
  serve::StoreOptions options;
  // Corrupt the candidate's adjacency bytes between build and verification:
  // validate_csr must refuse it (out-of-range column).
  options.corrupt_candidate = [](Csr& g) {
    auto bytes = g.raw_adjacency_bytes();
    for (std::size_t i = 0; i < sizeof(vertex_t); ++i) {
      bytes[i] = std::byte{0xff};
    }
  };
  serve::SnapshotStore store(base, options);
  UpdateBatch empty;
  try {
    store.ingest(empty);
    FAIL() << "expected SnapshotRejected";
  } catch (const serve::SnapshotRejected& e) {
    EXPECT_EQ(e.stage(), serve::RejectStage::kValidate);
  }
  EXPECT_EQ(store.current_generation(), 0u);
}

TEST(SnapshotStore, DigestVerifyCatchesPostComputeFlip) {
  const Csr base = test_graph(63);
  const auto plan = sim::FaultPlan::parse(
      "flip@target=adjacency,offset=128,bit=5", nullptr);
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);
  serve::StoreOptions options;
  options.injector = &injector;
  serve::SnapshotStore store(base, options);
  UpdateBatch empty;
  try {
    store.ingest(empty);
    FAIL() << "expected SnapshotRejected";
  } catch (const serve::SnapshotRejected& e) {
    EXPECT_EQ(e.stage(), serve::RejectStage::kDigest);
    EXPECT_NE(std::string(e.what()).find("adjacency"), std::string::npos);
  }
  EXPECT_EQ(store.current_generation(), 0u);
  EXPECT_EQ(store.stats().rejected, 1u);
}

TEST(SnapshotStore, CanaryCatchesConnectivityCorruption) {
  const Csr base = test_graph(64);
  serve::StoreOptions options = store_options_with_canaries();
  // Swap in a structurally valid but edgeless graph. validate_csr and the
  // (freshly computed) digests both pass — only the canary cross-check
  // against the OLD snapshot can notice, because the empty batch touched
  // nothing and therefore every canary answer must be EXACTLY preserved.
  options.corrupt_candidate = [](Csr& g) {
    const auto n = g.num_vertices();
    g = Csr(n, std::vector<graph::edge_t>(n + 1, 0), {}, g.directed());
  };
  serve::SnapshotStore store(base, options);
  UpdateBatch empty;
  try {
    store.ingest(empty);
    FAIL() << "expected SnapshotRejected";
  } catch (const serve::SnapshotRejected& e) {
    EXPECT_EQ(e.stage(), serve::RejectStage::kCanary);
  }
  EXPECT_EQ(store.current_generation(), 0u);
}

TEST(SnapshotStore, FaultAtLifecycleHookRejects) {
  const Csr base = test_graph(65);
  for (const char* hook :
       {"snapshot.build", "snapshot.verify", "snapshot.promote"}) {
    const auto plan = sim::FaultPlan::parse(
        std::string("transient@name=") + hook, nullptr);
    ASSERT_TRUE(plan.has_value()) << hook;
    sim::FaultInjector injector(*plan);
    serve::StoreOptions options;
    options.injector = &injector;
    serve::SnapshotStore store(base, options);
    UpdateBatch empty;
    try {
      store.ingest(empty);
      FAIL() << hook << ": expected SnapshotRejected";
    } catch (const serve::SnapshotRejected& e) {
      EXPECT_EQ(e.stage(), serve::RejectStage::kFault) << hook;
    }
    EXPECT_EQ(store.current_generation(), 0u) << hook;
  }
}

// --- zero-downtime swaps through the service -------------------------------

// Serves `g` on `engine` with tree validation while four update batches
// promote new generations mid-traffic.
void swap_under_traffic(const Csr& g, const char* engine) {
  SCOPED_TRACE(engine);
  serve::ServiceOptions options;
  options.engine = engine;
  options.workers = 3;
  options.validate_trees = true;
  options.canary_rate = 0.25;
  serve::BfsService service(g, options);

  graph::RandomUpdateParams params;
  params.batches = 4;
  params.ops_per_batch = 12;
  params.seed = 70;
  const UpdateTrace trace = UpdateTrace::random(params, g);
  const auto sources = bfs::sample_sources(g, 48, 70);

  std::vector<std::future<serve::ServeOutcome>> futures;
  std::size_t next_batch = 0;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (i % 12 == 6 && next_batch < trace.batches.size()) {
      const std::uint64_t gen =
          service.apply_updates(trace.batches[next_batch++]);
      EXPECT_EQ(gen, next_batch);
    }
    serve::ServeRequest r;
    r.source = sources[i];
    futures.push_back(service.submit(r));
  }
  service.shutdown(serve::DrainMode::kGraceful);
  for (auto& f : futures) {
    const auto outcome = f.get();
    EXPECT_NE(outcome.kind, serve::OutcomeKind::kFailed) << outcome.detail;
  }

  const auto stats = service.stats();
  EXPECT_TRUE(stats.accounting_ok());
  EXPECT_EQ(stats.validation_failures, 0u);

  const auto snap_stats = service.snapshot_stats();
  EXPECT_EQ(snap_stats.promoted, 4u);
  EXPECT_EQ(snap_stats.rejected, 0u);
  EXPECT_TRUE(snap_stats.ledgers_exact(/*require_all_drained=*/true));
  ASSERT_EQ(snap_stats.generations.size(), 5u);
  std::uint64_t ledger_started = 0;
  for (const auto& gen : snap_stats.generations) {
    ledger_started += gen.started;
  }
  // Every admitted request ran on exactly one generation.
  EXPECT_EQ(ledger_started, stats.admitted);
}

// Two inputs: an undirected Kronecker graph on the host reference, and a
// directed R-MAT graph on enterprise, whose workers and tree validation
// share each generation's in-edge view across the promotions.
TEST(ServeSnapshot, SwapUnderTrafficKeepsAccountingAndDrainLedgers) {
  swap_under_traffic(test_graph(70), "cpu");
  graph::RmatParams rmat;
  rmat.scale = 10;
  rmat.seed = 70;
  swap_under_traffic(graph::generate_rmat(rmat), "enterprise");
}

TEST(ServeSnapshot, RejectedCandidateRollsBackAndServiceKeepsServing) {
  const Csr g = test_graph(71);
  serve::ServiceOptions options;
  options.engine = "cpu";
  options.workers = 2;
  options.corrupt_candidate = [](Csr& candidate) {
    auto bytes = candidate.raw_adjacency_bytes();
    for (std::size_t i = 0; i < sizeof(vertex_t); ++i) {
      bytes[i] = std::byte{0xff};
    }
  };
  serve::BfsService service(g, options);

  UpdateBatch empty;
  EXPECT_THROW(service.apply_updates(empty), serve::SnapshotRejected);
  EXPECT_EQ(service.snapshot()->generation, 0u);

  // The pool still answers correctly on the rolled-back generation.
  serve::ServeRequest r;
  r.source = 0;
  auto outcome = service.submit(r).get();
  EXPECT_EQ(outcome.kind, serve::OutcomeKind::kCompleted) << outcome.detail;
  service.shutdown(serve::DrainMode::kGraceful);

  const auto snap_stats = service.snapshot_stats();
  EXPECT_EQ(snap_stats.rejected, 1u);
  EXPECT_EQ(snap_stats.promoted, 0u);
  EXPECT_TRUE(service.stats().accounting_ok());
  EXPECT_TRUE(snap_stats.ledgers_exact(/*require_all_drained=*/true));
}

TEST(ServeSnapshot, NewRequestsSeeThePromotedGraph) {
  const Csr g = tiny_path();
  serve::ServiceOptions options;
  options.engine = "cpu";
  options.workers = 2;
  serve::BfsService service(g, options);

  // On generation 0, vertex 2 is unreachable from 0.
  serve::ServeRequest r;
  r.source = 0;
  auto before = service.submit(r).get();
  ASSERT_EQ(before.kind, serve::OutcomeKind::kCompleted);
  EXPECT_EQ(before.result->levels[2], -1);

  UpdateBatch batch;
  batch.ops.push_back({UpdateOp::kAdd, 1, 2, 0});
  EXPECT_EQ(service.apply_updates(batch), 1u);

  // apply_updates returns only after promotion, so this request is pinned
  // to generation 1 and must see the new edge.
  auto after = service.submit(r).get();
  ASSERT_EQ(after.kind, serve::OutcomeKind::kCompleted) << after.detail;
  EXPECT_EQ(after.result->levels[2], 2);
  service.shutdown(serve::DrainMode::kGraceful);
}

// --- Engine::clone rebind fidelity across generations (non-BFS too) --------

TEST(ServeSnapshot, CloneRebindsProgramEnginesToTheNewGraph) {
  const Csr old_gen = test_graph(72);
  graph::RandomUpdateParams params;
  params.batches = 1;
  params.ops_per_batch = 32;
  params.seed = 72;
  const UpdateTrace trace = UpdateTrace::random(params, old_gen);
  const Csr new_gen =
      graph::apply_updates(old_gen, trace.batches[0]).graph;
  const vertex_t source = 1;

  for (const std::string program : {"sssp", "cc", "pagerank"}) {
    const auto original =
        bfs::make_engine("enterprise/" + program, old_gen);
    ASSERT_NE(original, nullptr) << program;
    // Rebinding must reproduce the FULL recipe (program + params) over the
    // new generation's graph — not silently fall back to plain BFS.
    const auto rebound = original->clone(new_gen, bfs::EngineConfig{});
    ASSERT_NE(rebound, nullptr) << program;
    auto got = rebound->run(source);
    EXPECT_EQ(got.program, program);
    const auto fresh =
        bfs::make_engine("enterprise/" + program, new_gen);
    auto want = fresh->run(source);
    EXPECT_EQ(got.values, want.values) << program;
  }
}

TEST(ServeSnapshot, ProgramWorkloadsValidateAcrossASwap) {
  const Csr g = test_graph(73);
  serve::ServiceOptions options;
  options.engine = "enterprise/sssp";
  options.workers = 2;
  options.validate_trees = true;  // program validate() against the snapshot
  serve::BfsService service(g, options);

  graph::RandomUpdateParams params;
  params.batches = 2;
  params.ops_per_batch = 16;
  params.seed = 73;
  const UpdateTrace trace = UpdateTrace::random(params, g);
  const auto sources = bfs::sample_sources(g, 12, 73);

  std::vector<std::future<serve::ServeOutcome>> futures;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (i == 4) service.apply_updates(trace.batches[0]);
    if (i == 8) service.apply_updates(trace.batches[1]);
    serve::ServeRequest r;
    r.source = sources[i];
    futures.push_back(service.submit(r));
  }
  service.shutdown(serve::DrainMode::kGraceful);
  for (auto& f : futures) {
    const auto outcome = f.get();
    EXPECT_EQ(outcome.kind, serve::OutcomeKind::kCompleted)
        << outcome.detail;
  }
  // A stale-graph clone would fail its program validation (distances
  // computed against generation 0 checked against generation 2).
  EXPECT_EQ(service.stats().validation_failures, 0u);
  EXPECT_EQ(service.snapshot_stats().promoted, 2u);
}

// --- ServiceSection snapshot schema ----------------------------------------

obs::RunReport snapshot_report() {
  obs::RunReport report;
  report.system = "guarded:resilient:cpu";
  report.graph.name = "test";
  report.graph.vertices = 8;
  report.graph.edges = 16;
  obs::ServiceSection s;
  s.engine = "guarded:resilient:cpu";
  s.arrivals = "test";
  s.workers = 2;
  s.submitted = 10;
  s.admitted = 10;
  s.completed = 10;
  s.snapshots_built = 3;
  s.snapshots_promoted = 2;
  s.snapshots_rejected = 1;
  s.snapshot_drain_p95_ms = 1.5;
  obs::ServiceGenerationEntry gen;
  gen.generation = 0;
  gen.started = 4;
  gen.finished = 4;
  gen.drain_ms = 0.25;
  gen.retired = true;
  s.per_generation.push_back(gen);
  gen.generation = 1;
  gen.started = 6;
  gen.finished = 6;
  gen.drain_ms = -1.0;
  gen.retired = false;
  s.per_generation.push_back(gen);
  report.service = s;
  return report;
}

TEST(SnapshotReport, SnapshotFieldsRoundTripThroughJson) {
  const obs::RunReport report = snapshot_report();
  const obs::Json j = report.to_json();
  EXPECT_TRUE(obs::validate_report(j).empty());

  const auto back = obs::RunReport::from_json(j);
  ASSERT_TRUE(back.has_value());
  ASSERT_TRUE(back->service.has_value());
  EXPECT_EQ(back->service->snapshots_built, 3u);
  EXPECT_EQ(back->service->snapshots_promoted, 2u);
  EXPECT_EQ(back->service->snapshots_rejected, 1u);
  EXPECT_DOUBLE_EQ(back->service->snapshot_drain_p95_ms, 1.5);
  ASSERT_EQ(back->service->per_generation.size(), 2u);
  EXPECT_EQ(back->service->per_generation[0].started, 4u);
  EXPECT_TRUE(back->service->per_generation[0].retired);
  EXPECT_FALSE(back->service->per_generation[1].retired);
}

TEST(SnapshotReport, SnapshotKeysOmittedWhenNoBuilds) {
  obs::RunReport report = snapshot_report();
  report.service->snapshots_built = 0;
  report.service->per_generation.clear();
  const obs::Json j = report.to_json();
  EXPECT_TRUE(obs::validate_report(j).empty());
  std::ostringstream os;
  j.dump(os, 2);
  // Gated emission: a run with no update trace serializes with no snapshot
  // keys at all — byte-identical to the pre-snapshot schema.
  EXPECT_EQ(os.str().find("snapshots_built"), std::string::npos);
  EXPECT_EQ(os.str().find("per_generation"), std::string::npos);
}

TEST(SnapshotReport, DiffHandlesSnapshotMetrics) {
  const obs::RunReport baseline = snapshot_report();
  obs::RunReport candidate = snapshot_report();
  candidate.service->snapshots_rejected = 4;  // worse: more quarantines
  const auto deltas = obs::diff_reports(baseline, candidate);
  bool saw_rejected = false;
  for (const auto& d : deltas) {
    if (d.metric == "service.snapshots_rejected") {
      saw_rejected = true;
      EXPECT_TRUE(d.regression) << d.candidate;
    }
  }
  EXPECT_TRUE(saw_rejected);
}

}  // namespace
}  // namespace ent
