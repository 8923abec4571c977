// Tests for the GPU execution-model simulator: coalescing classes, SIMT warp
// accounting, cost-model monotonicity, Hyper-Q overlap, counters, power, and
// the interconnect model.
#include <gtest/gtest.h>

#include "gpusim/counters.hpp"
#include "gpusim/device.hpp"
#include "gpusim/kernel_cost.hpp"
#include "gpusim/memory_model.hpp"
#include "gpusim/multi_gpu.hpp"
#include "gpusim/power.hpp"
#include "gpusim/spec.hpp"

namespace ent::sim {
namespace {

TEST(Spec, PresetsMatchPaperTable) {
  const DeviceSpec k = k40();
  EXPECT_EQ(k.num_smx, 15u);
  EXPECT_EQ(k.cores_per_smx, 192u);
  EXPECT_EQ(k.max_warps_per_smx, 64u);
  EXPECT_EQ(k.global_mem_bytes, 12ull << 30);
  EXPECT_EQ(k.l2_bytes, 1536u * 1024u);
  EXPECT_EQ(k.shared_mem_per_smx, 64u * 1024u);
  EXPECT_EQ(k20().num_smx, 13u);
  EXPECT_EQ(c2070().cores_per_smx, 32u);
}

// ---- memory model -------------------------------------------------------------

TEST(MemoryModel, SequentialCoalescesTo128ByteLines) {
  const DeviceSpec spec = k40();
  MemoryModel mm(spec);
  // 64 x 4B = 256 B = 2 lines.
  EXPECT_EQ(mm.transactions(AccessPattern::kSequential, 64, 4), 2u);
  // 1 access still costs 1 line.
  EXPECT_EQ(mm.transactions(AccessPattern::kSequential, 1, 4), 1u);
}

TEST(MemoryModel, StridedUsesSectorGranularity) {
  const DeviceSpec spec = k40();
  MemoryModel mm(spec);
  // 64 x 4B = 256 B = 8 sectors of 32 B: 4x the sequential traffic.
  EXPECT_EQ(mm.transactions(AccessPattern::kStrided, 64, 4), 8u);
}

TEST(MemoryModel, RandomIsOneTransactionPerAccess) {
  const DeviceSpec spec = k40();
  MemoryModel mm(spec);
  EXPECT_EQ(mm.transactions(AccessPattern::kRandom, 1000, 4), 1000u);
}

TEST(MemoryModel, PatternOrderingSequentialLeStridedLeRandom) {
  const DeviceSpec spec = k40();
  MemoryModel mm(spec);
  for (std::uint64_t count : {1u, 10u, 1000u, 100000u}) {
    const auto seq = mm.transactions(AccessPattern::kSequential, count, 4);
    const auto str = mm.transactions(AccessPattern::kStrided, count, 4);
    const auto rnd = mm.transactions(AccessPattern::kRandom, count, 4);
    EXPECT_LE(seq, str) << count;
    EXPECT_LE(str, rnd) << count;
  }
}

TEST(MemoryModel, L2HitRateDropsWithWorkingSet) {
  const DeviceSpec spec = k40();
  MemoryModel mm(spec);
  mm.set_working_set(spec.l2_bytes / 2);
  EXPECT_DOUBLE_EQ(mm.l2_hit_rate(), 1.0);
  mm.set_working_set(spec.l2_bytes * 4);
  EXPECT_NEAR(mm.l2_hit_rate(), 0.25, 1e-9);
}

TEST(MemoryModel, FitsClampsBudgetToDeviceCapacity) {
  const DeviceSpec spec = k40();
  MemoryModel mm(spec);
  mm.set_working_set(1 << 20);
  EXPECT_TRUE(mm.fits(0));          // 0 = device capacity only
  EXPECT_TRUE(mm.fits(1 << 20));    // exactly at the budget
  EXPECT_FALSE(mm.fits(1 << 19));   // half the working set
  // A budget larger than physical memory cannot be granted.
  mm.set_working_set(spec.global_mem_bytes + 1);
  EXPECT_FALSE(mm.fits(spec.global_mem_bytes * 10));
  EXPECT_FALSE(mm.fits(0));
}

TEST(MemoryModel, RandomDramTrafficShrinksWithL2Hits) {
  const DeviceSpec spec = k40();
  MemoryModel fits(spec);
  fits.set_working_set(spec.l2_bytes);  // everything hits
  MemoryModel spills(spec);
  spills.set_working_set(spec.l2_bytes * 100);

  MemoryCounters a;
  MemoryCounters b;
  fits.record_load(a, AccessPattern::kRandom, 10000, 4);
  spills.record_load(b, AccessPattern::kRandom, 10000, 4);
  EXPECT_EQ(a.load_transactions, b.load_transactions);  // gld count equal
  EXPECT_LT(a.dram_transactions, b.dram_transactions);  // DRAM traffic less
}

TEST(MemoryModel, CountersAccumulate) {
  const DeviceSpec spec = k40();
  MemoryModel mm(spec);
  MemoryCounters c;
  mm.record_load(c, AccessPattern::kSequential, 32, 4);
  mm.record_store(c, AccessPattern::kSequential, 32, 4);
  mm.record_shared(c, 7);
  EXPECT_EQ(c.load_transactions, 1u);
  EXPECT_EQ(c.store_transactions, 1u);
  EXPECT_EQ(c.shared_accesses, 7u);
  EXPECT_EQ(c.requested_bytes, 256u);
  MemoryCounters d;
  d.add(c);
  d.add(c);
  EXPECT_EQ(d.load_transactions, 2u);
}

// ---- warp accumulator ----------------------------------------------------------

TEST(WarpAccumulator, ChargesSimtMax) {
  WarpAccumulator acc(4);
  acc.add_thread(1);
  acc.add_thread(10);
  acc.add_thread(2);
  acc.add_thread(3);  // full warp: max = 10
  acc.add_thread(5);  // partial warp
  acc.finish();
  EXPECT_EQ(acc.warp_cycles(), 15u);
  EXPECT_EQ(acc.thread_cycles(), 21u);
  EXPECT_EQ(acc.threads(), 5u);
  EXPECT_EQ(acc.num_warps(), 2u);
}

TEST(WarpAccumulator, IdleThreadsDoNotRaiseWarpCost) {
  WarpAccumulator acc(4);
  acc.add_thread(8);
  acc.add_thread(0);
  acc.add_thread(0);
  acc.add_thread(0);
  acc.finish();
  EXPECT_EQ(acc.warp_cycles(), 8u);
  EXPECT_EQ(acc.active_threads(), 1u);
}

TEST(WarpAccumulator, BalancedBeatsImbalancedAtEqualWork) {
  // Same total work, one skewed thread: the skewed warp costs more issue
  // slots — the §3 Challenge #2 imbalance effect.
  WarpAccumulator balanced(32);
  WarpAccumulator skewed(32);
  for (int i = 0; i < 32; ++i) balanced.add_thread(10);
  skewed.add_thread(320);
  for (int i = 1; i < 32; ++i) skewed.add_thread(0);
  balanced.finish();
  skewed.finish();
  EXPECT_EQ(balanced.thread_cycles(), skewed.thread_cycles());
  EXPECT_LT(balanced.warp_cycles(), skewed.warp_cycles());
}

// add_threads(count, work) is the closed form of `count` add_thread(work)
// calls, from an empty accumulator and from one holding a partial warp. The
// per-thread loop below is the reference.
TEST(WarpAccumulator, AddThreadsMatchesPerThreadFeed) {
  const auto expect_same = [](const WarpAccumulator& closed,
                              const WarpAccumulator& reference) {
    EXPECT_EQ(closed.warp_cycles(), reference.warp_cycles());
    EXPECT_EQ(closed.thread_cycles(), reference.thread_cycles());
    EXPECT_EQ(closed.threads(), reference.threads());
    EXPECT_EQ(closed.active_threads(), reference.active_threads());
    EXPECT_EQ(closed.num_warps(), reference.num_warps());
  };
  for (unsigned warp_size : {4u, 32u}) {
    for (std::uint64_t count :
         {0ull, 1ull, 31ull, 32ull, 33ull, 61'440ull, 61'441ull}) {
      for (std::uint64_t work : {0ull, 7ull}) {
        for (bool warm : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << "warp " << warp_size << " count " << count
                       << " work " << work << " warm " << warm);
          WarpAccumulator closed(warp_size);
          WarpAccumulator reference(warp_size);
          if (warm) {
            for (std::uint64_t w : {5ull, 0ull, 9ull}) {
              closed.add_thread(w);
              reference.add_thread(w);
            }
          }
          closed.add_threads(count, work);
          for (std::uint64_t t = 0; t < count; ++t) reference.add_thread(work);
          expect_same(closed, reference);
          // One more light thread exposes the open warp's lane and maximum.
          closed.add_thread(1);
          reference.add_thread(1);
          closed.finish();
          reference.finish();
          expect_same(closed, reference);
        }
      }
    }
  }
}

// ---- cost model ----------------------------------------------------------------

KernelRecord make_record(std::uint64_t warp_cycles, std::uint64_t threads) {
  KernelRecord r;
  r.name = "test";
  r.warp_cycles = warp_cycles;
  r.thread_cycles = warp_cycles;
  r.launched_threads = threads;
  r.active_threads = threads;
  return r;
}

TEST(KernelCost, MoreWorkCostsMoreTime) {
  const DeviceSpec spec = k40();
  const KernelCostModel model(spec);
  KernelRecord small = make_record(1000, 1024);
  KernelRecord large = make_record(1000000, 1024);
  EXPECT_LT(model.price(small), model.price(large));
}

TEST(KernelCost, LaunchOverheadFloorsTinyKernels) {
  const DeviceSpec spec = k40();
  const KernelCostModel model(spec);
  KernelRecord r = make_record(1, 32);
  EXPECT_GE(model.price(r), spec.launch_overhead_us * 1e-3);
}

TEST(KernelCost, LatencyBoundPenalizesLowOccupancyRandomLoads) {
  const DeviceSpec spec = k40();
  MemoryModel mm(spec);
  mm.set_working_set(1ull << 30);
  const KernelCostModel model(spec);

  KernelRecord few = make_record(1000, 32);       // one warp in flight
  KernelRecord many = make_record(1000, 32 * 30000);
  mm.record_load(few.mem, AccessPattern::kRandom, 100000, 4);
  mm.record_load(many.mem, AccessPattern::kRandom, 100000, 4);
  EXPECT_GT(model.price(few), model.price(many));
}

TEST(KernelCost, ConcurrentGroupOverlaps) {
  const DeviceSpec spec = k40();
  const KernelCostModel model(spec);
  std::vector<KernelRecord> recs;
  recs.push_back(make_record(500000, 4096));
  recs.push_back(make_record(500000, 4096));
  const double group = model.price_concurrent(recs);
  const double serial = recs[0].time_ms + recs[1].time_ms;
  // Overlap saves at least the duplicated launch overhead.
  EXPECT_LT(group, serial);
  // But shared issue bandwidth means the group is no faster than one member
  // running alone with all resources.
  EXPECT_GE(group, recs[0].time_ms - 1e-9);
}

// ---- device --------------------------------------------------------------------

TEST(Device, ClockAdvancesAndTimelineRecords) {
  Device dev(k40());
  EXPECT_DOUBLE_EQ(dev.elapsed_ms(), 0.0);
  dev.run_kernel(make_record(100000, 4096));
  const double t1 = dev.elapsed_ms();
  EXPECT_GT(t1, 0.0);
  dev.run_kernel(make_record(100000, 4096));
  EXPECT_GT(dev.elapsed_ms(), t1);
  EXPECT_EQ(dev.timeline().size(), 2u);
  dev.reset();
  EXPECT_DOUBLE_EQ(dev.elapsed_ms(), 0.0);
  EXPECT_TRUE(dev.timeline().empty());
}

TEST(Device, CountersReflectTransactions) {
  Device dev(k40());
  KernelRecord r = make_record(1000, 1024);
  dev.memory().record_load(r.mem, AccessPattern::kSequential, 1 << 20, 4);
  dev.run_kernel(std::move(r));
  const HardwareCounters hc = dev.counters();
  EXPECT_GT(hc.gld_transactions, 0u);
  EXPECT_GT(hc.power_w, 0.0);
  EXPECT_GE(hc.ldst_fu_utilization, 0.0);
  EXPECT_LE(hc.ldst_fu_utilization, 1.0);
}

// ---- power ---------------------------------------------------------------------

TEST(Power, BoundsAndMonotonicity) {
  const DeviceSpec spec = k40();
  const double idle = estimate_power(spec, 0.0, 0.0, 0.0);
  const double busy = estimate_power(spec, 4.0, spec.mem_bandwidth_gbs, 1.0);
  EXPECT_GE(idle, spec.idle_power_w - 1e-9);
  EXPECT_LE(busy, spec.max_power_w + 1e-9);
  EXPECT_LT(idle, busy);
  EXPECT_LT(estimate_power(spec, 1.0, 50.0, 0.5),
            estimate_power(spec, 2.0, 100.0, 0.5));
}

// ---- interconnect / multi-GPU ---------------------------------------------------

TEST(Interconnect, TransferScalesWithBytes) {
  Interconnect ic({12.0, 10.0});
  const double small = ic.transfer_ms(1 << 10);
  const double large = ic.transfer_ms(1 << 24);
  EXPECT_LT(small, large);
  // Latency floor.
  EXPECT_GE(small, 10.0 * 1e-3);
}

TEST(Interconnect, AllgatherStepsWithParties) {
  Interconnect ic({12.0, 10.0});
  EXPECT_DOUBLE_EQ(ic.allgather_ms(1 << 20, 1), 0.0);
  const double two = ic.allgather_ms(1 << 20, 2);
  const double eight = ic.allgather_ms(1 << 20, 8);
  EXPECT_NEAR(eight / two, 7.0, 1e-9);
}

// Closed-form collective costs at the default link (12 GB/s, 10 us):
// one hop moving `bytes` costs t = 0.01 + bytes/12e6 ms. Symmetric
// topologies run bulk-synchronous steps of identical messages, so the
// collective is steps * t: ring and fully-connected take P-1 steps,
// a power-of-two butterfly log2(P), and the fat-tree 4 store-and-forward
// hops (2 at edge bandwidth, 2 at core bandwidth x 4).
TEST(Interconnect, RingClosedFormMatchesHistoricalModel) {
  Interconnect ic({12.0, 10.0, {TopologyKind::kRing}});
  const std::uint64_t bytes = 1 << 20;
  const double t = 0.01 + static_cast<double>(bytes) / 12e6;
  for (unsigned parties : {2u, 4u, 8u, 64u}) {
    EXPECT_NEAR(ic.allgather_ms(bytes, parties), (parties - 1) * t, 1e-9)
        << "parties=" << parties;
  }
}

TEST(Interconnect, ButterflyClosedFormIsLogSteps) {
  Interconnect ic({12.0, 10.0, {TopologyKind::kButterfly}});
  const std::uint64_t bytes = 1 << 20;
  const double t = 0.01 + static_cast<double>(bytes) / 12e6;
  const std::vector<std::pair<unsigned, unsigned>> cases{
      {2, 1}, {4, 2}, {8, 3}, {64, 6}};
  for (const auto& [parties, steps] : cases) {
    EXPECT_NEAR(ic.allgather_ms(bytes, parties), steps * t, 1e-9)
        << "parties=" << parties;
  }
  // Non-power-of-two falls back to the ring pattern.
  EXPECT_NEAR(ic.allgather_ms(bytes, 6), 5 * t, 1e-9);
}

TEST(Interconnect, FatTreeClosedFormPaysEdgeAndCoreHops) {
  Interconnect ic({12.0, 10.0, {TopologyKind::kFatTree}});
  const std::uint64_t bytes = 1 << 20;
  const double t_edge = 0.01 + static_cast<double>(bytes) / 12e6;
  const double t_core = 0.01 + static_cast<double>(bytes) / (4.0 * 12e6);
  for (unsigned parties : {2u, 4u, 8u, 64u}) {
    EXPECT_NEAR(ic.allgather_ms(bytes, parties),
                2.0 * (t_edge + t_core), 1e-9)
        << "parties=" << parties;
  }
}

TEST(Interconnect, FullyConnectedClosedFormIsDirectSends) {
  Interconnect ic({12.0, 10.0, {TopologyKind::kFullyConnected}});
  const std::uint64_t bytes = 1 << 20;
  const double t = 0.01 + static_cast<double>(bytes) / 12e6;
  for (unsigned parties : {2u, 4u, 8u}) {
    EXPECT_NEAR(ic.allgather_ms(bytes, parties), (parties - 1) * t, 1e-9);
  }
}

TEST(Interconnect, CollectiveVolumeClosedForms) {
  const std::uint64_t b = 1000;
  for (unsigned p : {2u, 4u, 8u, 64u}) {
    EXPECT_EQ(collective_volume_bytes(TopologyKind::kRing, b, p),
              b * p * (p - 1));
    EXPECT_EQ(collective_volume_bytes(TopologyKind::kFullyConnected, b, p),
              b * p * (p - 1));
    unsigned lg = 0;
    while ((1u << lg) < p) ++lg;
    EXPECT_EQ(collective_volume_bytes(TopologyKind::kButterfly, b, p),
              b * p * lg);
    EXPECT_EQ(collective_volume_bytes(TopologyKind::kFatTree, b, p),
              b * 2 * (p + fat_tree_pods(p)));
  }
  // Butterfly beats ring from P >= 8; degenerate parties move no bytes.
  for (unsigned p : {8u, 16u, 64u}) {
    EXPECT_LT(collective_volume_bytes(TopologyKind::kButterfly, b, p),
              collective_volume_bytes(TopologyKind::kRing, b, p));
  }
  EXPECT_EQ(collective_volume_bytes(TopologyKind::kRing, b, 1), 0u);
  EXPECT_EQ(collective_volume_bytes(TopologyKind::kButterfly, b, 0), 0u);
}

TEST(Topology, BuildShapesAndRoundTripNames) {
  const Topology ring = build_topology({TopologyKind::kRing}, 8, 10.0, 12.0);
  EXPECT_EQ(ring.nodes, 8u);
  EXPECT_EQ(ring.links.size(), 8u);
  EXPECT_GE(ring.link_between(0, 1), 0);
  EXPECT_LT(ring.link_between(0, 2), 0);

  const Topology bfly =
      build_topology({TopologyKind::kButterfly}, 8, 10.0, 12.0);
  EXPECT_EQ(bfly.links.size(), 12u);  // P/2 * log2(P)
  EXPECT_GE(bfly.link_between(0, 4), 0);

  const Topology fat =
      build_topology({TopologyKind::kFatTree}, 8, 10.0, 12.0);
  EXPECT_EQ(fat_tree_pods(8), 3u);
  EXPECT_EQ(fat.nodes, 8u + 3u + 1u);  // devices + edge switches + core

  for (const char* name : {"ring", "butterfly", "fat-tree", "full"}) {
    const auto kind = topology_from_string(name);
    ASSERT_TRUE(kind.has_value()) << name;
    EXPECT_EQ(to_string(*kind), name);
  }
  EXPECT_FALSE(topology_from_string("torus").has_value());
}

TEST(MultiGpu, SystemClockAccumulates) {
  MultiGpuSystem sys(k40(), 4);
  EXPECT_EQ(sys.size(), 4u);
  sys.advance_step(1.5, 0.5);
  sys.advance_step(1.0, 0.0);
  EXPECT_DOUBLE_EQ(sys.elapsed_ms(), 3.0);
  sys.reset();
  EXPECT_DOUBLE_EQ(sys.elapsed_ms(), 0.0);
}

}  // namespace
}  // namespace ent::sim
