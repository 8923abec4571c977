// Tests for the concurrent BFS serving layer (serve/service.hpp): typed
// admission control (queue-full backpressure, batch shedding, drain
// refusal), lane priority, graceful vs cancelling drains, watchdog-driven
// worker recycling, the exact accounting invariant
// `admitted == completed + timed_out + failed + cancelled`, a chaos soak
// over a faulty worker pool, and the ServiceSection RunReport schema.
//
// Everything here also runs under the ENT_SANITIZE=thread CI job — the
// service's no-shared-mutable-state design is enforced by TSan, not just
// by review.
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "baselines/cpu_bfs.hpp"
#include "bfs/engine.hpp"
#include "bfs/runner.hpp"
#include "bfs/validate.hpp"
#include "graph/generators.hpp"
#include "gpusim/fault.hpp"
#include "obs/run_report.hpp"
#include "serve/arrival.hpp"
#include "serve/service.hpp"
#include "util/pool.hpp"

namespace ent {
namespace {

using graph::Csr;
using graph::vertex_t;

Csr test_graph(std::uint64_t seed) {
  graph::KroneckerParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = seed;
  return graph::generate_kronecker(p);
}

vertex_t connected_source(const Csr& g) {
  vertex_t v = 0;
  while (g.out_degree(v) < 4) ++v;
  return v;
}

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Spin until `pred` holds or ~5 s pass; returns whether it held.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    sleep_ms(1);
  }
  return pred();
}

TEST(Serve, ConstructorRejectsUnknownEngine) {
  const Csr g = test_graph(20);
  serve::ServiceOptions options;
  options.engine = "no-such-engine";
  options.workers = 1;
  EXPECT_THROW(serve::BfsService(g, options), std::invalid_argument);
}

TEST(Serve, NormalisesEngineNameToCanonicalStack) {
  const Csr g = test_graph(20);
  serve::ServiceOptions options;
  options.workers = 1;

  options.engine = "enterprise";
  serve::BfsService bare(g, options);
  EXPECT_EQ(bare.engine_stack(), "guarded:resilient:enterprise");

  options.engine = "resilient:bl";
  serve::BfsService partial(g, options);
  EXPECT_EQ(partial.engine_stack(), "guarded:resilient:bl");

  options.engine = "guarded:resilient:cpu";
  serve::BfsService full(g, options);
  EXPECT_EQ(full.engine_stack(), "guarded:resilient:cpu");
}

TEST(Serve, CompletesRequestsWithExactAccounting) {
  const Csr g = test_graph(21);
  const auto sources = bfs::sample_sources(g, 24, 99);

  serve::ServiceOptions options;
  options.workers = 4;
  options.validate_trees = true;
  serve::BfsService service(g, options);

  std::vector<std::future<serve::ServeOutcome>> futures;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    serve::ServeRequest r;
    r.source = sources[i];
    r.lane = (i % 3 == 0) ? serve::Lane::kBatch : serve::Lane::kInteractive;
    futures.push_back(service.submit(r));
  }
  service.shutdown(serve::DrainMode::kGraceful);

  const auto ref = baselines::cpu_bfs(g, sources[0]);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto outcome = futures[i].get();
    ASSERT_EQ(outcome.kind, serve::OutcomeKind::kCompleted) << outcome.detail;
    ASSERT_TRUE(outcome.result.has_value());
    if (i == 0) {
      EXPECT_TRUE(
          bfs::validate_levels(outcome.result->levels, ref.levels).ok);
    }
    EXPECT_GE(outcome.total_ms, outcome.queue_wait_ms);
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, sources.size());
  EXPECT_EQ(stats.admitted, sources.size());
  EXPECT_EQ(stats.completed, sources.size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.validation_failures, 0u);
  EXPECT_TRUE(stats.accounting_ok());
  EXPECT_EQ(stats.queue_wait_ms.size(), sources.size());
  EXPECT_EQ(stats.e2e_ms.size(), sources.size());

  std::uint64_t per_worker_total = 0;
  ASSERT_EQ(stats.workers.size(), 4u);
  for (const auto& w : stats.workers) per_worker_total += w.completed;
  EXPECT_EQ(per_worker_total, sources.size());
}

TEST(Serve, QueueFullBackpressureRejectsTyped) {
  const Csr g = test_graph(22);
  const vertex_t source = connected_source(g);

  std::atomic<bool> gate{false};
  std::atomic<int> entered{0};
  serve::ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  options.before_run = [&](const serve::ServeRequest&,
                           const std::atomic<bool>& cancel) {
    entered.fetch_add(1, std::memory_order_acq_rel);
    while (!gate.load(std::memory_order_acquire) &&
           !cancel.load(std::memory_order_acquire)) {
      sleep_ms(1);
    }
  };
  serve::BfsService service(g, options);

  serve::ServeRequest r;
  r.source = source;
  auto plug = service.submit(r);  // dequeued immediately, blocks on the gate
  ASSERT_TRUE(eventually([&] { return entered.load() >= 1; }));

  auto queued_a = service.submit(r);
  auto queued_b = service.submit(r);
  auto overflow = service.submit(r);

  const auto rejected = overflow.get();  // rejects resolve immediately
  EXPECT_EQ(rejected.kind, serve::OutcomeKind::kRejected);
  EXPECT_EQ(rejected.reject_reason, serve::RejectReason::kQueueFull);

  gate.store(true, std::memory_order_release);
  service.shutdown(serve::DrainMode::kGraceful);

  EXPECT_EQ(plug.get().kind, serve::OutcomeKind::kCompleted);
  EXPECT_EQ(queued_a.get().kind, serve::OutcomeKind::kCompleted);
  EXPECT_EQ(queued_b.get().kind, serve::OutcomeKind::kCompleted);

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_GE(stats.max_queue_depth, 2u);
  EXPECT_TRUE(stats.accounting_ok());
}

TEST(Serve, ShedsBatchUnderPressureWhileInteractiveQueues) {
  const Csr g = test_graph(23);
  const vertex_t source = connected_source(g);

  std::atomic<bool> gate{false};
  std::atomic<int> entered{0};
  serve::ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 8;
  options.shed_batch_above = 2;
  options.before_run = [&](const serve::ServeRequest&,
                           const std::atomic<bool>& cancel) {
    entered.fetch_add(1, std::memory_order_acq_rel);
    while (!gate.load(std::memory_order_acquire) &&
           !cancel.load(std::memory_order_acquire)) {
      sleep_ms(1);
    }
  };
  serve::BfsService service(g, options);

  serve::ServeRequest interactive;
  interactive.source = source;
  serve::ServeRequest batch = interactive;
  batch.lane = serve::Lane::kBatch;

  auto plug = service.submit(interactive);
  ASSERT_TRUE(eventually([&] { return entered.load() >= 1; }));

  // Backlog 0 -> 1 -> 2: batch still admitted below the threshold.
  auto batch_ok = service.submit(batch);
  auto fill = service.submit(interactive);
  ASSERT_EQ(service.queue_depth(), 2u);

  // At the threshold: batch shed, interactive still admitted.
  auto shed = service.submit(batch).get();
  EXPECT_EQ(shed.kind, serve::OutcomeKind::kRejected);
  EXPECT_EQ(shed.reject_reason, serve::RejectReason::kShedBatch);
  auto still_queued = service.submit(interactive);

  gate.store(true, std::memory_order_release);
  service.shutdown(serve::DrainMode::kGraceful);

  EXPECT_EQ(plug.get().kind, serve::OutcomeKind::kCompleted);
  EXPECT_EQ(batch_ok.get().kind, serve::OutcomeKind::kCompleted);
  EXPECT_EQ(fill.get().kind, serve::OutcomeKind::kCompleted);
  EXPECT_EQ(still_queued.get().kind, serve::OutcomeKind::kCompleted);

  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected_shed, 1u);
  EXPECT_TRUE(stats.accounting_ok());
}

TEST(Serve, InteractiveLaneDrainsBeforeBatch) {
  const Csr g = test_graph(24);
  const vertex_t source = connected_source(g);

  std::atomic<bool> gate{false};
  std::atomic<int> entered{0};
  std::mutex order_mutex;
  std::vector<serve::Lane> order;
  serve::ServiceOptions options;
  options.workers = 1;
  options.before_run = [&](const serve::ServeRequest& r,
                           const std::atomic<bool>& cancel) {
    {
      const std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(r.lane);
    }
    entered.fetch_add(1, std::memory_order_acq_rel);
    while (!gate.load(std::memory_order_acquire) &&
           !cancel.load(std::memory_order_acquire)) {
      sleep_ms(1);
    }
  };
  serve::BfsService service(g, options);

  serve::ServeRequest interactive;
  interactive.source = source;
  serve::ServeRequest batch = interactive;
  batch.lane = serve::Lane::kBatch;

  auto plug = service.submit(interactive);
  ASSERT_TRUE(eventually([&] { return entered.load() >= 1; }));

  // Batch submitted FIRST, interactive second — dequeue order must invert.
  auto b1 = service.submit(batch);
  auto b2 = service.submit(batch);
  auto i1 = service.submit(interactive);

  gate.store(true, std::memory_order_release);
  service.shutdown(serve::DrainMode::kGraceful);
  plug.get();
  b1.get();
  b2.get();
  i1.get();

  const std::lock_guard<std::mutex> lock(order_mutex);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], serve::Lane::kInteractive);  // the plug
  EXPECT_EQ(order[1], serve::Lane::kInteractive);  // i1 jumps the batch pair
  EXPECT_EQ(order[2], serve::Lane::kBatch);
  EXPECT_EQ(order[3], serve::Lane::kBatch);
}

TEST(Serve, GracefulDrainCompletesBacklogThenRefuses) {
  const Csr g = test_graph(25);
  const auto sources = bfs::sample_sources(g, 8, 7);

  serve::ServiceOptions options;
  options.workers = 2;
  serve::BfsService service(g, options);

  std::vector<std::future<serve::ServeOutcome>> futures;
  for (const auto s : sources) {
    serve::ServeRequest r;
    r.source = s;
    futures.push_back(service.submit(r));
  }
  service.shutdown(serve::DrainMode::kGraceful);
  for (auto& f : futures) {
    EXPECT_EQ(f.get().kind, serve::OutcomeKind::kCompleted);
  }

  serve::ServeRequest late;
  late.source = sources[0];
  const auto refused = service.submit(late).get();
  EXPECT_EQ(refused.kind, serve::OutcomeKind::kRejected);
  EXPECT_EQ(refused.reject_reason, serve::RejectReason::kDraining);

  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, sources.size());
  EXPECT_EQ(stats.rejected_draining, 1u);
  EXPECT_TRUE(stats.accounting_ok());
}

TEST(Serve, CancelDrainRefusesBacklogAndCancelsInFlight) {
  const Csr g = test_graph(26);
  const vertex_t source = connected_source(g);

  std::atomic<int> entered{0};
  serve::ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 8;
  // The in-flight request blocks until its cancel flag flips — which the
  // cancelling drain must do; a graceful drain would deadlock here.
  options.before_run = [&](const serve::ServeRequest&,
                           const std::atomic<bool>& cancel) {
    entered.fetch_add(1, std::memory_order_acq_rel);
    while (!cancel.load(std::memory_order_acquire)) sleep_ms(1);
  };
  serve::BfsService service(g, options);

  serve::ServeRequest r;
  r.source = source;
  auto in_flight = service.submit(r);
  ASSERT_TRUE(eventually([&] { return entered.load() >= 1; }));
  auto queued_a = service.submit(r);
  auto queued_b = service.submit(r);

  service.shutdown(serve::DrainMode::kCancel);

  EXPECT_EQ(in_flight.get().kind, serve::OutcomeKind::kCancelled);
  EXPECT_EQ(queued_a.get().kind, serve::OutcomeKind::kCancelled);
  EXPECT_EQ(queued_b.get().kind, serve::OutcomeKind::kCancelled);

  const auto stats = service.stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.cancelled, 3u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_TRUE(stats.accounting_ok());
}

TEST(Serve, PerRequestDeadlineTimesOutTyped) {
  const Csr g = test_graph(27);
  const vertex_t source = connected_source(g);

  serve::ServiceOptions options;
  options.workers = 1;
  serve::BfsService service(g, options);

  serve::ServeRequest doomed;
  doomed.source = source;
  doomed.deadline_ms = 1e-6;  // simulated-time budget no traversal can meet
  const auto timed_out = service.submit(doomed).get();
  EXPECT_EQ(timed_out.kind, serve::OutcomeKind::kTimedOut);

  serve::ServeRequest fine;
  fine.source = source;  // no deadline: must be unaffected by the timeout
  EXPECT_EQ(service.submit(fine).get().kind, serve::OutcomeKind::kCompleted);

  service.shutdown(serve::DrainMode::kGraceful);
  const auto stats = service.stats();
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_TRUE(stats.accounting_ok());
}

TEST(Serve, OutOfRangeSourceFailsTypedBeforeAnyEngineRuns) {
  const Csr g = test_graph(28);
  ASSERT_EQ(g.num_vertices(), 1024u);

  serve::ServiceOptions options;
  options.workers = 2;
  std::atomic<int> traversals{0};
  options.before_run = [&](const serve::ServeRequest&,
                           const std::atomic<bool>&) { ++traversals; };
  serve::BfsService service(g, options);

  serve::ServeRequest bad;
  bad.source = 5000;
  serve::ServeRequest fine;
  fine.source = connected_source(g);
  auto bad_future = service.submit(bad);
  auto fine_future = service.submit(fine);
  service.shutdown(serve::DrainMode::kGraceful);

  const auto failed = bad_future.get();
  EXPECT_EQ(failed.kind, serve::OutcomeKind::kFailed);
  EXPECT_EQ(failed.detail, "source: vertex 5000 out of range (1024 vertices)");
  EXPECT_FALSE(failed.result.has_value());
  EXPECT_EQ(fine_future.get().kind, serve::OutcomeKind::kCompleted);
  EXPECT_EQ(traversals.load(), 1);

  const auto stats = service.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.validation_failures, 0u);
  EXPECT_TRUE(stats.accounting_ok());
}

// Kronecker scale 16 spans four validation and finalize blocks, and its
// bottom-up queues run past one 1,024-entry block, so three workers' pooled
// loops meet on the host pool; each served tree must still be the direct
// run's, bit for bit.
TEST(Serve, MultiBlockTreesMatchDirectRunsAtEveryPoolSize) {
  graph::KroneckerParams params;
  params.scale = 16;
  params.edge_factor = 8;
  params.seed = 29;
  const Csr g = graph::generate_kronecker(params);
  const auto sources = bfs::sample_sources(g, 24, 31);

  std::vector<bfs::BfsResult> direct;
  bool long_bottom_up = false;
  {
    const auto engine = bfs::make_engine("enterprise", g);
    ASSERT_NE(engine, nullptr);
    for (const vertex_t s : sources) {
      direct.push_back(engine->run(s));
      for (const bfs::LevelTrace& l : direct.back().level_trace) {
        long_bottom_up = long_bottom_up ||
                         (l.direction == bfs::Direction::kBottomUp &&
                          l.frontier_count > 1024);
      }
    }
  }
  ASSERT_TRUE(long_bottom_up);

  for (const unsigned threads : {1u, 4u}) {
    util::ScopedHostPool pool(threads);
    serve::ServiceOptions options;
    options.workers = 3;
    options.validate_trees = true;
    serve::BfsService service(g, options);
    std::vector<std::future<serve::ServeOutcome>> futures;
    for (const vertex_t s : sources) {
      serve::ServeRequest r;
      r.source = s;
      futures.push_back(service.submit(r));
    }
    service.shutdown(serve::DrainMode::kGraceful);

    for (std::size_t i = 0; i < futures.size(); ++i) {
      const auto outcome = futures[i].get();
      ASSERT_EQ(outcome.kind, serve::OutcomeKind::kCompleted)
          << outcome.detail;
      const bfs::BfsResult& served = *outcome.result;
      const bfs::BfsResult& want = direct[i];
      EXPECT_EQ(served.levels, want.levels) << "source " << sources[i];
      EXPECT_EQ(served.parents, want.parents) << "source " << sources[i];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(served.time_ms),
                std::bit_cast<std::uint64_t>(want.time_ms))
          << "source " << sources[i];
      EXPECT_EQ(served.level_trace.size(), want.level_trace.size())
          << "source " << sources[i];
    }
    const auto stats = service.stats();
    EXPECT_EQ(stats.completed, sources.size()) << threads << " threads";
    EXPECT_TRUE(stats.accounting_ok());
  }
}

TEST(Serve, WatchdogRecyclesStuckWorkerAndServiceRecovers) {
  const Csr g = test_graph(28);
  const vertex_t source = connected_source(g);

  // The FIRST request wedges its worker (ignores everything except the
  // cancel flag); later requests run normally on the recycled clone.
  std::atomic<bool> wedge_next{true};
  serve::ServiceOptions options;
  options.workers = 1;
  options.watchdog_stall_ms = 50.0;
  options.watchdog_poll_ms = 5.0;
  options.before_run = [&](const serve::ServeRequest&,
                           const std::atomic<bool>& cancel) {
    if (wedge_next.exchange(false, std::memory_order_acq_rel)) {
      while (!cancel.load(std::memory_order_acquire)) sleep_ms(1);
    }
  };
  serve::BfsService service(g, options);

  serve::ServeRequest r;
  r.source = source;
  const auto wedged = service.submit(r).get();
  EXPECT_EQ(wedged.kind, serve::OutcomeKind::kCancelled);
  EXPECT_NE(wedged.detail.find("watchdog"), std::string::npos)
      << wedged.detail;

  // The recycled worker (a fresh Engine::clone() of the same stack) must
  // keep serving.
  ASSERT_TRUE(eventually([&] { return service.stats().workers_recycled >= 1; }));
  const auto after = service.submit(r).get();
  EXPECT_EQ(after.kind, serve::OutcomeKind::kCompleted) << after.detail;

  service.shutdown(serve::DrainMode::kGraceful);
  const auto stats = service.stats();
  EXPECT_GE(stats.workers_recycled, 1u);
  ASSERT_EQ(stats.workers.size(), 1u);
  EXPECT_GE(stats.workers[0].recycles, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_TRUE(stats.accounting_ok());
}

// Canary defense, healthy path: with a clean pool, canaries run on schedule,
// all pass, nobody is quarantined, and the canary ledger balances without
// perturbing the request ledger.
TEST(Serve, CanariesPassOnHealthyWorkers) {
  const Csr g = test_graph(31);
  const auto sources = bfs::sample_sources(g, 8, 7);

  serve::ServiceOptions options;
  options.workers = 2;
  options.canary_rate = 1.0;  // one canary after every served request
  serve::BfsService service(g, options);

  std::vector<std::future<serve::ServeOutcome>> futures;
  for (const auto source : sources) {
    serve::ServeRequest r;
    r.source = source;
    futures.push_back(service.submit(r));
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get().kind, serve::OutcomeKind::kCompleted);
  }
  service.shutdown(serve::DrainMode::kGraceful);

  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, sources.size());
  EXPECT_GE(stats.canaries_run, sources.size());
  EXPECT_EQ(stats.canaries_failed, 0u);
  EXPECT_EQ(stats.workers_quarantined, 0u);
  EXPECT_TRUE(stats.accounting_ok());
}

// Canary defense, corruption path: a worker whose injector keeps flipping a
// status bit (fires=0 — the flip strikes the canary traversal too) returns
// a wrong canary answer, is quarantined, and the recycler rebuilds the slot
// through Engine::clone() so the pool keeps serving. The request ledger and
// the canary ledger both stay exact.
TEST(Serve, CanaryQuarantinesCorruptedWorkerAndPoolRecovers) {
  const Csr g = test_graph(32);
  const vertex_t source = connected_source(g);

  serve::ServiceOptions options;
  options.workers = 1;
  options.canary_rate = 1.0;
  options.watchdog_poll_ms = 5.0;  // doubles as the quarantine recycler
  options.chaos = true;
  const auto plan = sim::FaultPlan::parse(
      "flip@target=status,level=1,offset=64,bit=7,fires=0");
  ASSERT_TRUE(plan.has_value());
  options.fault_plan = *plan;
  serve::BfsService service(g, options);

  serve::ServeRequest r;
  r.source = source;
  // The request itself completes (nothing fail-stop fires) but the canary
  // after it runs under the same persistent flip rule and comes back wrong.
  const auto first = service.submit(r).get();
  EXPECT_EQ(first.kind, serve::OutcomeKind::kCompleted) << first.detail;

  ASSERT_TRUE(eventually([&] {
    const auto s = service.stats();
    return s.canaries_failed >= 1 && s.workers_recycled >= 1;
  }));

  // The rebuilt slot keeps serving requests.
  const auto after = service.submit(r).get();
  EXPECT_EQ(after.kind, serve::OutcomeKind::kCompleted) << after.detail;

  service.shutdown(serve::DrainMode::kGraceful);
  const auto stats = service.stats();
  EXPECT_GE(stats.canaries_run, 1u);
  EXPECT_GE(stats.canaries_failed, 1u);
  EXPECT_GE(stats.workers_quarantined, 1u);
  EXPECT_GE(stats.workers_recycled, 1u);
  ASSERT_EQ(stats.workers.size(), 1u);
  EXPECT_GE(stats.workers[0].flips_injected, 1u);
  EXPECT_GE(stats.workers[0].quarantined, 1u);
  EXPECT_EQ(stats.canaries_run, stats.canaries_passed + stats.canaries_failed);
  EXPECT_TRUE(stats.accounting_ok());
}

// The tentpole's chaos soak: >=4 workers, every worker under its own scoped
// fault stream, every completed tree re-validated, and the exact accounting
// invariant at the end. Runs in CI under TSan (ENT_SANITIZE=thread).
TEST(Serve, ChaosSoakKeepsExactAccountingUnderFaults) {
  const Csr g = test_graph(29);
  const auto sources = bfs::sample_sources(g, 48, 1234);

  serve::ServiceOptions options;
  options.workers = 4;
  options.queue_capacity = 64;
  options.chaos = true;
  options.fault_plan = serve::chaos_plan(29);
  options.validate_trees = true;
  options.default_deadline_ms = 50.0;
  serve::BfsService service(g, options);

  std::vector<std::future<serve::ServeOutcome>> futures;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    serve::ServeRequest r;
    r.source = sources[i];
    r.lane = (i % 4 == 0) ? serve::Lane::kBatch : serve::Lane::kInteractive;
    futures.push_back(service.submit(r));
  }
  service.shutdown(serve::DrainMode::kGraceful);

  std::uint64_t completed = 0;
  for (auto& f : futures) {
    const auto outcome = f.get();  // every future resolves: nothing is lost
    switch (outcome.kind) {
      case serve::OutcomeKind::kCompleted:
        ASSERT_TRUE(outcome.result.has_value());
        ++completed;
        break;
      case serve::OutcomeKind::kTimedOut:
      case serve::OutcomeKind::kFailed:
      case serve::OutcomeKind::kCancelled:
        break;  // typed terminal outcomes are acceptable under chaos
      case serve::OutcomeKind::kRejected:
        FAIL() << "admission rejected with an empty queue: "
               << outcome.detail;
    }
  }

  const auto stats = service.stats();
  EXPECT_TRUE(stats.accounting_ok())
      << "admitted=" << stats.admitted << " completed=" << stats.completed
      << " timed_out=" << stats.timed_out << " failed=" << stats.failed
      << " cancelled=" << stats.cancelled;
  EXPECT_EQ(stats.admitted, sources.size());
  EXPECT_EQ(stats.completed, completed);
  // validate_trees caught nothing: recovery never served a corrupt tree.
  EXPECT_EQ(stats.validation_failures, 0u);
  EXPECT_GT(stats.completed, 0u);

  // The scoped-per-worker plans actually injected faults somewhere.
  std::uint64_t faults = 0;
  for (const auto& w : stats.workers) faults += w.faults_injected;
  EXPECT_GT(faults, 0u);
}

TEST(Serve, PoissonTraceIsDeterministicAndSorted) {
  const Csr g = test_graph(30);
  serve::PoissonTraceParams params;
  params.rate_per_s = 500;
  params.count = 32;
  params.seed = 42;
  params.batch_fraction = 0.25;
  const auto a = serve::ArrivalTrace::poisson(params, g);
  const auto b = serve::ArrivalTrace::poisson(params, g);
  ASSERT_EQ(a.arrivals.size(), 32u);
  double prev = -1.0;
  std::size_t batch = 0;
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    EXPECT_GE(a.arrivals[i].at_ms, prev);
    prev = a.arrivals[i].at_ms;
    EXPECT_EQ(a.arrivals[i].at_ms, b.arrivals[i].at_ms);
    EXPECT_EQ(a.arrivals[i].request.source, b.arrivals[i].request.source);
    EXPECT_LT(a.arrivals[i].request.source, g.num_vertices());
    if (a.arrivals[i].request.lane == serve::Lane::kBatch) ++batch;
  }
  EXPECT_GT(batch, 0u);
  EXPECT_LT(batch, a.arrivals.size());
}

// Arrival-trace files are a trust boundary like every other ingestion path:
// each malformed shape is refused with a line-numbered diagnostic, never
// half-parsed into a trace that fails at serve time.
TEST(Serve, ArrivalFileErrorsAreTypedWithLineNumbers) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("ent_serve_trace_" +
       std::to_string(static_cast<unsigned long long>(::getpid())));
  fs::create_directories(dir);
  const auto write_file = [&dir](const std::string& name,
                                 const std::string& bytes) {
    const fs::path p = dir / name;
    std::ofstream out(p);
    out << bytes;
    return p.string();
  };

  struct BadTraceFile {
    const char* name;
    const char* text;
    const char* expect;  // substring of the diagnostic
  };
  const BadTraceFile cases[] = {
      {"truncated.txt", "0.5 7\n", ":1: want"},
      {"bad-lane.txt", "0.5 7 x\n", "bad lane"},
      {"unknown-workload.txt", "0.5 7 i dijkstra\n", "unknown workload"},
      {"negative-at.txt", "1.0 3 i\n-2.5 7 i\n", ":2: negative"},
      {"negative-deadline.txt", "0.5 7 i -10\n", "negative"},
  };
  for (const BadTraceFile& c : cases) {
    std::string error;
    const auto trace =
        serve::ArrivalTrace::from_file(write_file(c.name, c.text), &error);
    EXPECT_FALSE(trace.has_value()) << c.name;
    EXPECT_NE(error.find(c.expect), std::string::npos)
        << c.name << ": got '" << error << "'";
  }

  // Known workload tokens (bfs + every registered program) still parse.
  std::string error;
  const auto ok = serve::ArrivalTrace::from_file(
      write_file("ok.txt", "0.5 7 i sssp\n1.5 3 b 25 bfs\n# comment\n"),
      &error);
  ASSERT_TRUE(ok.has_value()) << error;
  ASSERT_EQ(ok->arrivals.size(), 2u);
  EXPECT_EQ(ok->arrivals[0].request.workload, "sssp");
  EXPECT_EQ(ok->arrivals[1].request.workload, "bfs");
  EXPECT_DOUBLE_EQ(ok->arrivals[1].request.deadline_ms, 25.0);

  std::error_code ec;
  fs::remove_all(dir, ec);

  const auto missing =
      serve::ArrivalTrace::from_file("/no/such/trace.txt", &error);
  EXPECT_FALSE(missing.has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(Serve, ServiceSectionRoundTripsThroughJson) {
  obs::RunReport report;
  report.system = "guarded:resilient:enterprise";
  report.graph.name = "kron-10-8";
  report.graph.vertices = 1024;
  report.graph.edges = 8192;

  obs::ServiceSection svc;
  svc.engine = "guarded:resilient:enterprise";
  svc.arrivals = "poisson rate=200/s count=64 seed=7";
  svc.workers = 4;
  svc.submitted = 64;
  svc.admitted = 60;
  svc.rejected = 4;
  svc.rejected_queue_full = 3;
  svc.rejected_shed = 1;
  svc.completed = 57;
  svc.timed_out = 2;
  svc.failed = 0;
  svc.cancelled = 1;
  svc.workers_recycled = 1;
  svc.max_queue_depth = 9;
  svc.queue_wait_p50_ms = 0.4;
  svc.queue_wait_p95_ms = 2.5;
  svc.queue_wait_p99_ms = 4.0;
  svc.e2e_p50_ms = 1.1;
  svc.e2e_p95_ms = 5.0;
  svc.e2e_p99_ms = 8.5;
  obs::ServiceWorkerEntry w;
  w.worker = 2;
  w.requests = 15;
  w.completed = 14;
  w.cancelled = 1;
  w.faults_injected = 3;
  w.retries = 3;
  w.recycles = 1;
  svc.per_worker.push_back(w);
  report.service = svc;

  const auto j = report.to_json();
  EXPECT_TRUE(obs::validate_report(j).empty());

  const auto parsed = obs::RunReport::from_json(j);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->service.has_value());
  const auto& p = *parsed->service;
  EXPECT_EQ(p.engine, svc.engine);
  EXPECT_EQ(p.arrivals, svc.arrivals);
  EXPECT_EQ(p.workers, svc.workers);
  EXPECT_EQ(p.submitted, svc.submitted);
  EXPECT_EQ(p.admitted, svc.admitted);
  EXPECT_EQ(p.rejected, svc.rejected);
  EXPECT_EQ(p.rejected_queue_full, svc.rejected_queue_full);
  EXPECT_EQ(p.rejected_shed, svc.rejected_shed);
  EXPECT_EQ(p.completed, svc.completed);
  EXPECT_EQ(p.timed_out, svc.timed_out);
  EXPECT_EQ(p.cancelled, svc.cancelled);
  EXPECT_EQ(p.workers_recycled, svc.workers_recycled);
  EXPECT_EQ(p.max_queue_depth, svc.max_queue_depth);
  EXPECT_DOUBLE_EQ(p.queue_wait_p95_ms, svc.queue_wait_p95_ms);
  EXPECT_DOUBLE_EQ(p.e2e_p99_ms, svc.e2e_p99_ms);
  ASSERT_EQ(p.per_worker.size(), 1u);
  EXPECT_EQ(p.per_worker[0].worker, w.worker);
  EXPECT_EQ(p.per_worker[0].requests, w.requests);
  EXPECT_EQ(p.per_worker[0].completed, w.completed);
  EXPECT_EQ(p.per_worker[0].faults_injected, w.faults_injected);
  EXPECT_EQ(p.per_worker[0].recycles, w.recycles);

  // Reports without the section stay valid (it is additive).
  obs::RunReport plain;
  plain.system = "enterprise";
  EXPECT_TRUE(obs::validate_report(plain.to_json()).empty());
  const auto reparsed = obs::RunReport::from_json(plain.to_json());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_FALSE(reparsed->service.has_value());
}

TEST(Serve, ReportDiffFlagsServiceRegressions) {
  obs::RunReport baseline;
  baseline.system = "guarded:resilient:enterprise";
  obs::ServiceSection base_svc;
  base_svc.workers = 4;
  base_svc.submitted = 64;
  base_svc.admitted = 64;
  base_svc.completed = 64;
  base_svc.e2e_p95_ms = 2.0;
  baseline.service = base_svc;

  obs::RunReport candidate = baseline;
  auto& cand_svc = *candidate.service;
  cand_svc.completed = 60;
  cand_svc.failed = 3;          // off a zero baseline -> regression
  cand_svc.workers_recycled = 1;  // likewise
  cand_svc.cancelled = 1;
  cand_svc.e2e_p95_ms = 2.01;   // within tolerance -> not a regression

  const auto deltas = obs::diff_reports(baseline, candidate);
  ASSERT_TRUE(obs::has_regression(deltas));
  bool saw_failed = false;
  bool saw_recycled = false;
  for (const auto& d : deltas) {
    if (d.metric == "service.failed") {
      saw_failed = true;
      EXPECT_TRUE(d.regression);
    }
    if (d.metric == "service.workers_recycled") {
      saw_recycled = true;
      EXPECT_TRUE(d.regression);
    }
    if (d.metric == "service.e2e_p95_ms") {
      EXPECT_FALSE(d.regression);
    }
    if (d.metric == "service.completed") {
      EXPECT_FALSE(d.regression);
    }
  }
  EXPECT_TRUE(saw_failed);
  EXPECT_TRUE(saw_recycled);

  // Identical reports diff clean.
  EXPECT_FALSE(obs::has_regression(obs::diff_reports(baseline, baseline)));
}

// --- adaptive overload control (serve/overload.hpp) -------------------------

// A request whose deadline expired while it sat in the queue must be
// resolved as timed_out at DEQUEUE, without the engine ever running — on
// both lanes. before_run counts engine entries, so "never ran" is asserted
// directly rather than inferred from timing.
TEST(ServeOverload, ExpiredInQueueTimesOutWithoutRunningEngine) {
  const Csr g = test_graph(40);
  const vertex_t source = connected_source(g);

  std::atomic<std::uint64_t> engine_runs{0};
  std::atomic<bool> wedge_next{true};
  serve::ServiceOptions options;
  options.workers = 1;
  options.overload.enabled = true;
  options.overload.adjust_interval_ms = 5.0;
  options.before_run = [&](const serve::ServeRequest&,
                           const std::atomic<bool>&) {
    ++engine_runs;
    // The first request holds the only worker long enough for everything
    // queued behind it to expire.
    if (wedge_next.exchange(false, std::memory_order_acq_rel)) sleep_ms(120);
  };
  serve::BfsService service(g, options);

  serve::ServeRequest wedge;
  wedge.source = source;  // no deadline: must complete
  auto wedge_future = service.submit(wedge);

  serve::ServeRequest doomed_i;
  doomed_i.source = source;
  doomed_i.deadline_ms = 30.0;  // wall budget under overload control
  serve::ServeRequest doomed_b = doomed_i;
  doomed_b.lane = serve::Lane::kBatch;
  auto doomed_i_future = service.submit(doomed_i);
  auto doomed_b_future = service.submit(doomed_b);

  EXPECT_EQ(wedge_future.get().kind, serve::OutcomeKind::kCompleted);
  const auto out_i = doomed_i_future.get();
  const auto out_b = doomed_b_future.get();
  EXPECT_EQ(out_i.kind, serve::OutcomeKind::kTimedOut);
  EXPECT_EQ(out_b.kind, serve::OutcomeKind::kTimedOut);
  EXPECT_NE(out_i.detail.find("expired in queue"), std::string::npos)
      << out_i.detail;
  EXPECT_NE(out_b.detail.find("expired in queue"), std::string::npos)
      << out_b.detail;

  service.shutdown(serve::DrainMode::kGraceful);
  const auto stats = service.stats();
  EXPECT_EQ(engine_runs.load(), 1u);  // the doomed pair never ran
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.timed_out, 2u);
  EXPECT_EQ(stats.overload.expired_in_queue, 2u);
  EXPECT_TRUE(stats.accounting_ok());
  // Doomed requests still land in the latency ledgers.
  EXPECT_EQ(stats.queue_wait_ms.size(), 3u);
  EXPECT_EQ(stats.e2e_ms.size(), 3u);
}

// Same dequeue-expiry property across a watchdog recycle: the stuck worker
// is cancelled and rebuilt, and the RECYCLED worker still resolves the
// expired request without touching its fresh engine.
TEST(ServeOverload, ExpiredInQueueSurvivesWatchdogRecycle) {
  const Csr g = test_graph(41);
  const vertex_t source = connected_source(g);

  std::atomic<std::uint64_t> engine_runs{0};
  std::atomic<bool> wedge_next{true};
  serve::ServiceOptions options;
  options.workers = 1;
  options.watchdog_stall_ms = 50.0;
  options.watchdog_poll_ms = 5.0;
  options.overload.enabled = true;
  options.overload.adjust_interval_ms = 5.0;
  options.before_run = [&](const serve::ServeRequest&,
                           const std::atomic<bool>& cancel) {
    ++engine_runs;
    if (wedge_next.exchange(false, std::memory_order_acq_rel)) {
      while (!cancel.load(std::memory_order_acquire)) sleep_ms(1);
    }
  };
  serve::BfsService service(g, options);

  serve::ServeRequest wedge;
  wedge.source = source;
  auto wedge_future = service.submit(wedge);
  serve::ServeRequest doomed;
  doomed.source = source;
  doomed.deadline_ms = 20.0;
  auto doomed_future = service.submit(doomed);

  EXPECT_EQ(wedge_future.get().kind, serve::OutcomeKind::kCancelled);
  const auto out = doomed_future.get();
  EXPECT_EQ(out.kind, serve::OutcomeKind::kTimedOut);
  EXPECT_NE(out.detail.find("expired in queue"), std::string::npos)
      << out.detail;
  ASSERT_TRUE(eventually([&] { return service.stats().workers_recycled >= 1; }));

  // The recycled slot keeps serving live requests.
  serve::ServeRequest fine;
  fine.source = source;
  EXPECT_EQ(service.submit(fine).get().kind, serve::OutcomeKind::kCompleted);

  service.shutdown(serve::DrainMode::kGraceful);
  const auto stats = service.stats();
  EXPECT_EQ(engine_runs.load(), 2u);  // wedge + fine; doomed never ran
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.overload.expired_in_queue, 1u);
  EXPECT_TRUE(stats.accounting_ok());
}

// Once the service-time model has warmed up, a deadline smaller than the
// predicted service time is refused at ENQUEUE with the typed reason and a
// Retry-After hint, and the per-lane rejection counters record it.
TEST(ServeOverload, InfeasibleDeadlineRejectedAtEnqueueWithRetryAfter) {
  const Csr g = test_graph(42);
  const vertex_t source = connected_source(g);

  serve::ServiceOptions options;
  options.workers = 1;
  options.overload.enabled = true;
  options.overload.adjust_interval_ms = 5.0;
  options.before_run = [](const serve::ServeRequest&,
                          const std::atomic<bool>&) { sleep_ms(25); };
  serve::BfsService service(g, options);

  // Train the model: three completions at ~25 ms wall each.
  for (int i = 0; i < 3; ++i) {
    serve::ServeRequest r;
    r.source = source;
    ASSERT_EQ(service.submit(r).get().kind, serve::OutcomeKind::kCompleted);
  }

  serve::ServeRequest tight;
  tight.source = source;
  tight.deadline_ms = 2.0;  // far under the learned ~25 ms service time
  const auto out = service.submit(tight).get();
  EXPECT_EQ(out.kind, serve::OutcomeKind::kRejected);
  EXPECT_EQ(out.reject_reason, serve::RejectReason::kInfeasibleDeadline);
  EXPECT_EQ(out.detail, std::string("infeasible-deadline"));
  EXPECT_GT(out.retry_after_ms, 0.0);

  service.shutdown(serve::DrainMode::kGraceful);
  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.rejected_interactive.infeasible_deadline, 1u);
  EXPECT_EQ(stats.rejected_batch.infeasible_deadline, 0u);
  EXPECT_EQ(stats.overload.rejected_infeasible, 1u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_TRUE(stats.accounting_ok());
}

// The exact accounting invariant extends to every overload path: flood a
// chaos-faulted pool with tight deadlines on both lanes so admission-limit
// rejections, infeasible refusals, queue expiry, and dequeue cancellation
// all fire — and the ledger still balances request for request. This is
// the storm the TSan CI job soaks.
TEST(ServeOverload, AccountingHoldsUnderOverloadChaosStorm) {
  const Csr g = test_graph(43);
  const auto sources = bfs::sample_sources(g, 32, 7);

  serve::ServiceOptions options;
  options.workers = 4;
  options.queue_capacity = 16;
  options.default_deadline_ms = 20.0;
  options.chaos = true;
  options.fault_plan = serve::chaos_plan(43);
  options.overload.enabled = true;
  options.overload.adjust_interval_ms = 5.0;
  serve::BfsService service(g, options);

  std::vector<std::future<serve::ServeOutcome>> futures;
  for (int i = 0; i < 300; ++i) {
    serve::ServeRequest r;
    r.source = sources[static_cast<std::size_t>(i) % sources.size()];
    r.lane = (i % 4 == 0) ? serve::Lane::kBatch : serve::Lane::kInteractive;
    futures.push_back(service.submit(r));
  }
  service.shutdown(serve::DrainMode::kGraceful);

  std::uint64_t rejected = 0;
  for (auto& f : futures) {
    const auto out = f.get();  // every future resolves with a typed outcome
    if (out.kind == serve::OutcomeKind::kRejected) ++rejected;
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 300u);
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.admitted + stats.rejected, stats.submitted);
  EXPECT_TRUE(stats.accounting_ok())
      << "admitted " << stats.admitted << " completed " << stats.completed
      << " timed_out " << stats.timed_out << " failed " << stats.failed
      << " cancelled " << stats.cancelled;
  const std::uint64_t lane_total = stats.rejected_interactive.total() +
                                   stats.rejected_batch.total();
  EXPECT_EQ(lane_total, stats.rejected);
}

// Disabled overload is zero-overhead at the stats layer too: no controller
// exists, the overload block stays all-zero/disabled, and wall deadlines
// are never armed.
TEST(ServeOverload, DisabledControllerLeavesStatsUntouched) {
  const Csr g = test_graph(44);
  const vertex_t source = connected_source(g);
  serve::ServiceOptions options;
  options.workers = 1;
  serve::BfsService service(g, options);
  serve::ServeRequest r;
  r.source = source;
  EXPECT_EQ(service.submit(r).get().kind, serve::OutcomeKind::kCompleted);
  service.shutdown(serve::DrainMode::kGraceful);
  const auto stats = service.stats();
  EXPECT_FALSE(stats.overload.enabled);
  EXPECT_EQ(stats.overload.limit, 0u);
  EXPECT_EQ(stats.rejected_interactive.total(), 0u);
  EXPECT_EQ(stats.rejected_batch.total(), 0u);
}

// Flash-crowd bursts (serve/arrival.hpp BurstSpec): burst arrivals land at
// the spike offset, never perturb the base Poisson sequence, and round-trip
// through the trace-file format like any other trace.
TEST(ServeArrivals, BurstsExtendTraceWithoutPerturbingBaseAndRoundTrip) {
  const Csr g = test_graph(45);
  serve::PoissonTraceParams base;
  base.rate_per_s = 500.0;
  base.count = 32;
  base.seed = 11;
  const auto plain = serve::ArrivalTrace::poisson(base, g);

  serve::PoissonTraceParams bursty = base;
  bursty.bursts.push_back({16, 20.0});
  const auto spiked = serve::ArrivalTrace::poisson(bursty, g);
  ASSERT_EQ(spiked.arrivals.size(), plain.arrivals.size() + 16);
  EXPECT_NE(spiked.summary.find("burst=16@20"), std::string::npos)
      << spiked.summary;

  // The base sequence survives byte-for-byte: strip the burst arrivals
  // (exactly at 20 ms with burst-substream draws) and compare.
  std::size_t burst_seen = 0;
  std::vector<double> base_at;
  for (const auto& a : spiked.arrivals) {
    if (a.at_ms == 20.0) {
      ++burst_seen;
      continue;
    }
    base_at.push_back(a.at_ms);
  }
  ASSERT_GE(burst_seen, 16u);
  std::vector<double> plain_at;
  for (const auto& a : plain.arrivals) {
    if (a.at_ms == 20.0) continue;  // improbable, but stay symmetric
    plain_at.push_back(a.at_ms);
  }
  EXPECT_EQ(base_at, plain_at);
  // Sorted by time after the merge.
  for (std::size_t i = 1; i < spiked.arrivals.size(); ++i) {
    EXPECT_LE(spiked.arrivals[i - 1].at_ms, spiked.arrivals[i].at_ms);
  }

  // Round-trip through the trace file format.
  const std::string path = "/tmp/ent_burst_trace_test.txt";
  {
    std::ofstream f(path);
    spiked.write(f);
  }
  const auto back = serve::ArrivalTrace::from_file(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->arrivals.size(), spiked.arrivals.size());
  for (std::size_t i = 0; i < spiked.arrivals.size(); ++i) {
    EXPECT_DOUBLE_EQ(back->arrivals[i].at_ms, spiked.arrivals[i].at_ms);
    EXPECT_EQ(back->arrivals[i].request.source,
              spiked.arrivals[i].request.source);
    EXPECT_EQ(back->arrivals[i].request.lane,
              spiked.arrivals[i].request.lane);
  }
}

// The --gen-arrivals compact spec: happy path, repeatable bursts, and typed
// errors on malformed input.
TEST(ServeArrivals, GenArrivalsSpecParsesAndRejectsTyped) {
  std::string error;
  const auto params = serve::parse_gen_arrivals(
      "rate=250,count=48,seed=9,batch=0.25,deadline=40,burst=32@10,"
      "burst=8@60",
      &error);
  ASSERT_TRUE(params.has_value()) << error;
  EXPECT_DOUBLE_EQ(params->rate_per_s, 250.0);
  EXPECT_EQ(params->count, 48u);
  EXPECT_EQ(params->seed, 9u);
  EXPECT_DOUBLE_EQ(params->batch_fraction, 0.25);
  EXPECT_DOUBLE_EQ(params->deadline_ms, 40.0);
  ASSERT_EQ(params->bursts.size(), 2u);
  EXPECT_EQ(params->bursts[0].count, 32u);
  EXPECT_DOUBLE_EQ(params->bursts[0].at_ms, 10.0);
  EXPECT_EQ(params->bursts[1].count, 8u);
  EXPECT_DOUBLE_EQ(params->bursts[1].at_ms, 60.0);

  EXPECT_FALSE(serve::parse_gen_arrivals("rate", &error).has_value());
  EXPECT_NE(error.find("key=value"), std::string::npos) << error;
  EXPECT_FALSE(serve::parse_gen_arrivals("bogus=1", &error).has_value());
  EXPECT_NE(error.find("unknown key"), std::string::npos) << error;
  EXPECT_FALSE(serve::parse_gen_arrivals("burst=4", &error).has_value());
  EXPECT_NE(error.find("burst"), std::string::npos) << error;
  EXPECT_FALSE(serve::parse_gen_arrivals("rate=-3", &error).has_value());
}

}  // namespace
}  // namespace ent
