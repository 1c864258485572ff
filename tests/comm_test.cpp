// Tests for the simulated communication substrate: topology/cost model,
// fabric point-to-point, every collective on group sizes 1..8 (including
// non-powers-of-two), communicator split, clock synchronisation and stats,
// and the resident device threads that run cluster launches.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "comm/cluster.hpp"
#include "comm/communicator.hpp"
#include "comm/fabric.hpp"
#include "comm/obs_report.hpp"
#include "comm/topology.hpp"
#include "kernel/thread_pool.hpp"
#include "testing/watchdog.hpp"
#include "util/rng.hpp"

namespace oc = optimus::comm;
namespace ots = optimus::testing;

// ---------------------------------------------------------------------------
// Topology and cost model
// ---------------------------------------------------------------------------

TEST(Topology, NaivePacksRanksSequentially) {
  oc::Topology topo(16, 4, oc::Arrangement::kNaive, /*mesh_q=*/4);
  EXPECT_EQ(topo.num_nodes(), 4);
  EXPECT_EQ(topo.node_of(0), 0);
  EXPECT_EQ(topo.node_of(3), 0);
  EXPECT_EQ(topo.node_of(4), 1);
  EXPECT_EQ(topo.node_of(15), 3);
}

TEST(Topology, NaiveMeshRowsAreIntraNodeColumnsAreNot) {
  // Fig. 8a: with row-major ranks and 4 GPUs per node, a mesh row is one node
  // and a mesh column touches every node.
  oc::Topology topo(16, 4, oc::Arrangement::kNaive, 4);
  const std::vector<int> row0{0, 1, 2, 3};
  const std::vector<int> col0{0, 4, 8, 12};
  EXPECT_TRUE(topo.single_node(row0));
  EXPECT_FALSE(topo.single_node(col0));
  EXPECT_EQ(topo.max_members_per_node(col0), 1);
}

TEST(Topology, BunchedTilesKeepSubSquaresTogether) {
  // Fig. 8b: 2×2 mesh tiles per node; both rows and columns then span exactly
  // two nodes with two members on each.
  oc::Topology topo(16, 4, oc::Arrangement::kBunched, 4);
  EXPECT_EQ(topo.node_of(0), topo.node_of(1));   // (0,0) and (0,1)
  EXPECT_EQ(topo.node_of(0), topo.node_of(4));   // (0,0) and (1,0)
  EXPECT_EQ(topo.node_of(0), topo.node_of(5));   // (0,0) and (1,1)
  EXPECT_NE(topo.node_of(0), topo.node_of(2));
  const std::vector<int> row0{0, 1, 2, 3};
  const std::vector<int> col0{0, 4, 8, 12};
  EXPECT_EQ(topo.max_members_per_node(row0), 2);
  EXPECT_EQ(topo.max_members_per_node(col0), 2);
}

TEST(Topology, BunchedWithoutMeshFallsBackToNaive) {
  oc::Topology topo(8, 4, oc::Arrangement::kBunched, /*mesh_q=*/0);
  EXPECT_EQ(topo.node_of(5), 1);
}

TEST(Topology, ParseArrangement) {
  EXPECT_EQ(oc::parse_arrangement("naive"), oc::Arrangement::kNaive);
  EXPECT_EQ(oc::parse_arrangement("bunched"), oc::Arrangement::kBunched);
  EXPECT_THROW(oc::parse_arrangement("fancy"), optimus::util::CheckError);
}

TEST(CostModel, TreeTimeFollowsLogFormula) {
  oc::Topology topo(8, 8, oc::Arrangement::kNaive);  // all on one node
  oc::MachineParams mp;
  mp.alpha = 0.0;
  mp.beta_intra = 2.0;
  oc::CostModel cost(topo, mp);
  const std::vector<int> group{0, 1, 2, 3};
  // ceil(log2 4) = 2 rounds × β × B
  EXPECT_DOUBLE_EQ(cost.tree_time(group, 10), 2 * 2.0 * 10);
  const std::vector<int> three{0, 1, 2};
  EXPECT_DOUBLE_EQ(cost.tree_time(three, 10), 2 * 2.0 * 10);  // ceil(log2 3) = 2
}

TEST(CostModel, RingAllReduceMatchesPaperEq5) {
  oc::Topology topo(4, 4, oc::Arrangement::kNaive);
  oc::MachineParams mp;
  mp.alpha = 0.0;
  mp.beta_intra = 1.0;
  oc::CostModel cost(topo, mp);
  const std::vector<int> group{0, 1, 2, 3};
  // 2(p−1)βB/p with p=4, B=100 → 150.
  EXPECT_DOUBLE_EQ(cost.ring_allreduce_time(group, 100), 150.0);
}

TEST(CostModel, ContentionPenalisesNaiveColumns) {
  // Naive columns put 1 member per node → all 4 columns share each NIC → 4×.
  // Bunched puts 2 members per node → pipelined trees hide the sharing
  // (gpn/m² = 1, matching the paper's measured bunched runs).
  oc::MachineParams mp;
  mp.alpha = 0.0;
  mp.beta_intra = 1.0;
  mp.beta_inter = 1.0;
  oc::Topology naive(16, 4, oc::Arrangement::kNaive, 4);
  oc::Topology bunched(16, 4, oc::Arrangement::kBunched, 4);
  oc::CostModel cn(naive, mp), cb(bunched, mp);
  const std::vector<int> col0{0, 4, 8, 12};
  EXPECT_DOUBLE_EQ(cn.beta_eff(col0), 4.0);
  EXPECT_DOUBLE_EQ(cb.beta_eff(col0), 1.0);
}

TEST(CostModel, SingleRankGroupsAreFree) {
  oc::Topology topo(4, 4, oc::Arrangement::kNaive);
  oc::CostModel cost(topo, oc::MachineParams{});
  EXPECT_DOUBLE_EQ(cost.tree_time({2}, 1000), 0.0);
  EXPECT_DOUBLE_EQ(cost.ring_allreduce_time({2}, 1000), 0.0);
}

TEST(CostModel, Log2Ceil) {
  EXPECT_EQ(oc::log2_ceil(1), 0);
  EXPECT_EQ(oc::log2_ceil(2), 1);
  EXPECT_EQ(oc::log2_ceil(3), 2);
  EXPECT_EQ(oc::log2_ceil(8), 3);
  EXPECT_EQ(oc::log2_ceil(9), 4);
}

// ---------------------------------------------------------------------------
// Fabric point-to-point
// ---------------------------------------------------------------------------

TEST(Fabric, TagMatchingAllowsOutOfOrderArrival) {
  oc::Fabric fabric(2);
  const int a = 1, b = 2;
  fabric.send(0, 1, /*tag=*/20, &b, sizeof(b));
  fabric.send(0, 1, /*tag=*/10, &a, sizeof(a));
  int out = 0;
  fabric.recv(1, 0, 10, &out, sizeof(out));
  EXPECT_EQ(out, 1);
  fabric.recv(1, 0, 20, &out, sizeof(out));
  EXPECT_EQ(out, 2);
}

TEST(Fabric, FifoPerSourceAndTag) {
  oc::Fabric fabric(2);
  for (int i = 0; i < 5; ++i) fabric.send(0, 1, 7, &i, sizeof(i));
  for (int i = 0; i < 5; ++i) {
    int out = -1;
    fabric.recv(1, 0, 7, &out, sizeof(out));
    EXPECT_EQ(out, i);
  }
}

TEST(Fabric, SizeMismatchThrows) {
  oc::Fabric fabric(2);
  const double x = 1.0;
  fabric.send(0, 1, 3, &x, sizeof(x));
  float out;
  EXPECT_THROW(fabric.recv(1, 0, 3, &out, sizeof(out)), optimus::util::CheckError);
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

namespace {

class CollectiveSweep : public ::testing::TestWithParam<int> {};

}  // namespace

TEST_P(CollectiveSweep, BroadcastDeliversRootData) {
  const int p = GetParam();
  for (int root = 0; root < p; root += std::max(1, p - 1)) {
    oc::run_cluster(p, [&](oc::Context& ctx) {
      std::vector<double> data(17, ctx.rank == root ? 3.25 : 0.0);
      ctx.world.broadcast(data.data(), 17, root);
      for (double v : data) ASSERT_DOUBLE_EQ(v, 3.25);
    });
  }
}

TEST_P(CollectiveSweep, ReduceSumsAtRoot) {
  const int p = GetParam();
  const int root = p - 1;
  oc::run_cluster(p, [&](oc::Context& ctx) {
    std::vector<double> data(9);
    for (int i = 0; i < 9; ++i) data[i] = ctx.rank + i * 0.5;
    ctx.world.reduce(data.data(), 9, root);
    if (ctx.rank == root) {
      const double rank_sum = p * (p - 1) / 2.0;
      for (int i = 0; i < 9; ++i) ASSERT_NEAR(data[i], rank_sum + p * i * 0.5, 1e-12);
    }
  });
}

TEST_P(CollectiveSweep, AllReduceSumsEverywhere) {
  const int p = GetParam();
  oc::run_cluster(p, [&](oc::Context& ctx) {
    // 23 elements exercises uneven ring chunks for every p in the sweep.
    std::vector<double> data(23);
    for (int i = 0; i < 23; ++i) data[i] = (ctx.rank + 1) * (i + 1);
    ctx.world.all_reduce(data.data(), 23);
    const double rank_sum = p * (p + 1) / 2.0;
    for (int i = 0; i < 23; ++i) ASSERT_NEAR(data[i], rank_sum * (i + 1), 1e-12);
  });
}

TEST_P(CollectiveSweep, AllReduceMax) {
  const int p = GetParam();
  oc::run_cluster(p, [&](oc::Context& ctx) {
    std::vector<double> data{static_cast<double>(ctx.rank), -static_cast<double>(ctx.rank)};
    ctx.world.all_reduce_max(data.data(), 2);
    ASSERT_DOUBLE_EQ(data[0], p - 1);
    ASSERT_DOUBLE_EQ(data[1], 0.0);
  });
}

TEST_P(CollectiveSweep, AllGatherOrdersByRank) {
  const int p = GetParam();
  oc::run_cluster(p, [&](oc::Context& ctx) {
    std::vector<double> mine(3, ctx.rank * 10.0);
    std::vector<double> out(3 * p, -1.0);
    ctx.world.all_gather(mine.data(), 3, out.data());
    for (int r = 0; r < p; ++r) {
      for (int i = 0; i < 3; ++i) ASSERT_DOUBLE_EQ(out[r * 3 + i], r * 10.0);
    }
  });
}

TEST_P(CollectiveSweep, ReduceScatterDeliversOwnChunk) {
  const int p = GetParam();
  oc::run_cluster(p, [&](oc::Context& ctx) {
    const int n = 4;  // per-chunk elements
    std::vector<double> data(n * p);
    for (int c = 0; c < p; ++c) {
      for (int i = 0; i < n; ++i) data[c * n + i] = (ctx.rank + 1) + c * 100.0 + i;
    }
    std::vector<double> out(n, -1);
    ctx.world.reduce_scatter(data.data(), n, out.data());
    const double rank_sum = p * (p + 1) / 2.0;
    for (int i = 0; i < n; ++i) {
      ASSERT_NEAR(out[i], rank_sum + p * (ctx.rank * 100.0 + i), 1e-12);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, CollectiveSweep, ::testing::Values(1, 2, 3, 4, 5, 7, 8));

TEST(Collectives, SplitFormsRowGroups) {
  oc::run_cluster(6, [](oc::Context& ctx) {
    // Two colors: {0,1,2} and {3,4,5}.
    const int color = ctx.rank / 3;
    auto sub = ctx.world.split(color, ctx.rank);
    ASSERT_EQ(sub.size(), 3);
    ASSERT_EQ(sub.rank(), ctx.rank % 3);
    // A collective on the sub-communicator stays inside the color group.
    std::vector<double> v{static_cast<double>(ctx.rank)};
    sub.all_reduce(v.data(), 1);
    const double expected = color == 0 ? 0 + 1 + 2 : 3 + 4 + 5;
    ASSERT_DOUBLE_EQ(v[0], expected);
  });
}

TEST(Collectives, SplitOrdersByKeyThenRank) {
  oc::run_cluster(4, [](oc::Context& ctx) {
    // Reverse ordering via key.
    auto sub = ctx.world.split(0, -ctx.rank);
    ASSERT_EQ(sub.size(), 4);
    ASSERT_EQ(sub.rank(), 3 - ctx.rank);
  });
}

TEST(Collectives, ClocksAgreeAfterCollective) {
  oc::run_cluster(4, [](oc::Context& ctx) {
    // Give ranks wildly different amounts of "compute" first.
    ctx.device.on_mults(1000000ull * (ctx.rank + 1));
    std::vector<double> v(8, 1.0);
    ctx.world.all_reduce(v.data(), 8);
    const double mine = ctx.clock.now();
    std::vector<double> times(4, 0.0);
    // Compare through a side gather (max == min means all equal).
    times[ctx.rank] = mine;
    std::vector<double> all(4 * 4);
    ctx.world.all_gather(times.data(), 4, all.data());
    double mx = 0, mn = 1e300;
    for (int r = 0; r < 4; ++r) {
      const double t = all[r * 4 + r];
      mx = std::max(mx, t);
      mn = std::min(mn, t);
    }
    // All clocks were aligned by the first collective, then advanced by the
    // same (deterministic) amounts.
    ASSERT_NEAR(mx, mn, 1e-15);
  });
}

TEST(Collectives, ClockAdvancesByModelledTimes) {
  oc::Topology topo(4, 4, oc::Arrangement::kNaive);
  oc::MachineParams mp;
  mp.alpha = 0.0;
  mp.beta_intra = 1.0;
  mp.beta_inter = 1.0;
  mp.flop_rate = 1e30;
  oc::Cluster cluster(4, topo, mp);
  auto report = cluster.run([](oc::Context& ctx) {
    std::vector<float> v(100, 1.0f);
    ctx.world.all_reduce(v.data(), 100);  // 2·3/4 · 400 bytes = 600
    ctx.world.broadcast(v.data(), 100, 0);  // 2 rounds · 400 bytes = 800
  });
  for (const auto& r : report.ranks) EXPECT_DOUBLE_EQ(r.sim_time, 600.0 + 800.0);
}

TEST(Collectives, StatsRecordWeightedUnits) {
  auto report = oc::run_cluster(4, [](oc::Context& ctx) {
    std::vector<float> v(100, 1.0f);
    ctx.world.broadcast(v.data(), 100, 0);
    ctx.world.all_reduce(v.data(), 100);
  });
  const auto& s = report.ranks[0].stats;
  EXPECT_EQ(s.broadcast.calls, 1u);
  EXPECT_EQ(s.broadcast.elems, 100u);
  EXPECT_DOUBLE_EQ(s.broadcast.weighted, 100.0 * 2);       // log2(4) = 2
  EXPECT_DOUBLE_EQ(s.allreduce.weighted, 100.0 * 2 * 3 / 4.0);  // 2(p−1)/p
}

TEST(Collectives, DistributedReduceIsDeterministic) {
  // Same inputs, two runs → bitwise identical results (fixed reduce order).
  std::vector<float> first;
  for (int run = 0; run < 2; ++run) {
    oc::run_cluster(5, [&](oc::Context& ctx) {
      std::vector<float> data(31);
      optimus::util::Rng rng(900 + ctx.rank);
      for (auto& v : data) v = static_cast<float>(rng.uniform(-1, 1));
      ctx.world.all_reduce(data.data(), 31);
      if (ctx.rank == 0) {
        if (run == 0) {
          first = data;
        } else {
          for (int i = 0; i < 31; ++i) ASSERT_EQ(data[i], first[i]);
        }
      }
    });
  }
}

TEST(Collectives, UserPointToPointAdvancesClock) {
  auto report = oc::run_cluster(2, [](oc::Context& ctx) {
    double x = 42.0;
    if (ctx.rank == 0) {
      ctx.world.send(1, 5, &x, 1);
    } else {
      double y = 0;
      ctx.world.recv(0, 5, &y, 1);
      ASSERT_DOUBLE_EQ(y, 42.0);
    }
  });
  EXPECT_GT(report.ranks[0].sim_time, 0.0);
  EXPECT_EQ(report.ranks[0].stats.p2p_bytes, sizeof(double));
}

// ---------------------------------------------------------------------------
// Async collectives (ibroadcast / ireduce) and the overlap clock model
// ---------------------------------------------------------------------------

TEST(AsyncCollectives, IBroadcastMatchesBroadcastBitwise) {
  for (int p : {2, 3, 4, 5}) {
    oc::run_cluster(p, [&](oc::Context& ctx) {
      const int root = p - 1;
      std::vector<float> blocking(33), async(33);
      if (ctx.rank == root) {
        optimus::util::Rng rng(77);
        for (int i = 0; i < 33; ++i) blocking[i] = static_cast<float>(rng.uniform(-1, 1));
        async = blocking;
      }
      ctx.world.broadcast(blocking.data(), 33, root);
      oc::Request req = ctx.world.ibroadcast(async.data(), 33, root);
      req.wait();
      for (int i = 0; i < 33; ++i) ASSERT_EQ(async[i], blocking[i]);
    });
  }
}

TEST(AsyncCollectives, IReduceMatchesReduceBitwise) {
  // Float sums are order-sensitive; the async reduce must accumulate children
  // in exactly the blocking order to be bitwise identical (0 ULPs).
  for (int p : {2, 3, 4, 5, 8}) {
    oc::run_cluster(p, [&](oc::Context& ctx) {
      std::vector<float> blocking(29), async(29);
      optimus::util::Rng rng(300 + ctx.rank);
      for (int i = 0; i < 29; ++i) {
        blocking[i] = static_cast<float>(rng.uniform(-1, 1));
        async[i] = blocking[i];
      }
      ctx.world.reduce(blocking.data(), 29, /*root=*/0);
      oc::Request req = ctx.world.ireduce(async.data(), 29, /*root=*/0);
      req.wait();
      if (ctx.rank == 0) {
        for (int i = 0; i < 29; ++i) ASSERT_EQ(async[i], blocking[i]);
      }
    });
  }
}

TEST(AsyncCollectives, WaitCostsMaxOfCommAndCompute) {
  // Unit-cost machine: transfer dt for a 400-byte broadcast on 4 ranks is
  // exactly 800 (2 tree rounds), compute_time(mults) == mults.
  oc::Topology topo(4, 4, oc::Arrangement::kNaive);
  oc::MachineParams mp;
  mp.alpha = 0.0;
  mp.beta_intra = 1.0;
  mp.beta_inter = 1.0;
  mp.flop_rate = 1.0;
  for (const std::uint64_t mults : {500ull, 1000ull}) {
    oc::Cluster cluster(4, topo, mp);
    auto report = cluster.run([&](oc::Context& ctx) {
      std::vector<float> v(100, 1.0f);
      oc::Request req = ctx.world.ibroadcast(v.data(), 100, 0);
      ctx.device.on_mults(mults);  // overlapped compute
      req.wait();
    });
    // Overlapped step costs max(comm, compute), not the sum.
    const double expected = std::max(800.0, static_cast<double>(mults));
    for (const auto& r : report.ranks) EXPECT_DOUBLE_EQ(r.sim_time, expected);
  }
}

TEST(AsyncCollectives, BackToBackIssuesSerialiseOnOneLink) {
  // Two in-flight broadcasts on the same communicator cannot overlap each
  // other: the second's transfer starts when the first's finishes.
  oc::Topology topo(4, 4, oc::Arrangement::kNaive);
  oc::MachineParams mp;
  mp.alpha = 0.0;
  mp.beta_intra = 1.0;
  mp.beta_inter = 1.0;
  mp.flop_rate = 1e30;
  oc::Cluster cluster(4, topo, mp);
  auto report = cluster.run([](oc::Context& ctx) {
    std::vector<float> a(100, 1.0f), b(100, 2.0f);
    oc::Request ra = ctx.world.ibroadcast(a.data(), 100, 0);
    oc::Request rb = ctx.world.ibroadcast(b.data(), 100, 0);
    ra.wait();
    rb.wait();
  });
  for (const auto& r : report.ranks) EXPECT_DOUBLE_EQ(r.sim_time, 800.0 + 800.0);
}

TEST(AsyncCollectives, ChunkedBroadcastIsCheaperAndBitwise) {
  // 256 KiB on a depth-2 tree over inter-node links (one GPU per node) with
  // default machine constants triggers the chunked streaming plan; it must
  // beat the plain tree time and deliver the identical payload.
  const int p = 4;
  const std::size_t n = 32768;  // doubles → 256 KiB
  oc::Topology topo(p, /*gpus_per_node=*/1, oc::Arrangement::kNaive);
  const oc::MachineParams mp;
  const oc::CostModel cost(topo, mp);
  const std::vector<int> group{0, 1, 2, 3};
  const auto plan = cost.tree_plan(group, n * sizeof(double));
  EXPECT_GT(plan.chunks, 1);
  EXPECT_LT(plan.time, cost.tree_time(group, n * sizeof(double)));

  oc::Cluster cluster(p, topo, mp);
  auto report = cluster.run([&](oc::Context& ctx) {
    std::vector<double> data(n, 0.0);
    if (ctx.rank == 0) {
      optimus::util::Rng rng(41);
      for (auto& v : data) v = rng.uniform(-1, 1);
    }
    ctx.world.broadcast(data.data(), static_cast<optimus::tensor::index_t>(n), 0);
    optimus::util::Rng rng(41);
    for (const double v : data) ASSERT_EQ(v, rng.uniform(-1, 1));
  });
  for (const auto& r : report.ranks) EXPECT_DOUBLE_EQ(r.sim_time, plan.time);
}

TEST(AsyncCollectives, ChunkedReduceMatchesUnchunkedBitwise) {
  // Same payload reduced under a chunking cost model (default α) and a
  // non-chunking one (α = 0): the accumulation order per element is the same,
  // so the root's sums must agree to the bit.
  const int p = 4;
  const std::size_t n = 32768;
  std::vector<float> results[2];
  for (int variant = 0; variant < 2; ++variant) {
    oc::Topology topo(p, 4, oc::Arrangement::kNaive);
    oc::MachineParams mp;
    if (variant == 1) mp.alpha = 0.0;  // disables the chunked plan
    oc::Cluster cluster(p, topo, mp);
    cluster.run([&](oc::Context& ctx) {
      std::vector<float> data(n);
      optimus::util::Rng rng(500 + ctx.rank);
      for (auto& v : data) v = static_cast<float>(rng.uniform(-1, 1));
      ctx.world.reduce(data.data(), static_cast<optimus::tensor::index_t>(n), 0);
      if (ctx.rank == 0) results[variant] = data;
    });
  }
  ASSERT_EQ(results[0].size(), n);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(results[0][i], results[1][i]);
}

TEST(Collectives, BlockingTreeBucketsEntryWaitAndTransferExactly) {
  // The blocking broadcast/reduce share their tree with the issued forms but
  // keep the blocking clock contract: the entry wait (slowest member's
  // arrival minus this rank's) lands in align_wait and the modelled dt in
  // transfer, bitwise. Entry clocks are staggered by per-rank compute; the
  // large payload crosses inter-node links in the chunked plan.
  const int p = 4;
  oc::Topology topo(p, /*gpus_per_node=*/1, oc::Arrangement::kNaive);
  const oc::MachineParams mp;
  oc::Cluster cluster(p, topo, mp);
  const auto mults = [](int rank) { return 1000000ull * static_cast<unsigned>(rank * rank + 1); };
  for (const bool reduce : {false, true}) {
    for (const std::size_t n : {std::size_t{64}, std::size_t{32768}}) {
      const auto report = cluster.run([&](oc::Context& ctx) {
        ctx.device.on_mults(mults(ctx.rank));
        ctx.clock.drain_compute(ctx.cost);
        double latest = 0;
        for (int r = 0; r < p; ++r) latest = std::max(latest, ctx.cost.compute_time(mults(r)));
        const double entry = ctx.clock.now();
        ASSERT_EQ(entry, ctx.cost.compute_time(mults(ctx.rank)));
        const auto plan = ctx.cost.tree_plan(ctx.world.group(), n * sizeof(double));
        EXPECT_EQ(plan.chunks > 1, n > 64) << "n=" << n;
        std::vector<double> data(n, 1.0 + ctx.rank);
        const auto count = static_cast<optimus::tensor::index_t>(n);
        if (reduce) {
          ctx.world.reduce(data.data(), count, /*root=*/1);
        } else {
          ctx.world.broadcast(data.data(), count, /*root=*/1);
        }
        const oc::UtilBreakdown& u = ctx.clock.util();
        EXPECT_EQ(u.align_wait, latest - entry) << "reduce=" << reduce << " n=" << n;
        EXPECT_EQ(u.transfer, plan.time) << "reduce=" << reduce << " n=" << n;
        EXPECT_EQ(ctx.clock.now(), latest + plan.time);
        const double want_root = reduce ? 1.0 + 2.0 + 3.0 + 4.0 : 2.0;
        if (!reduce || ctx.rank == 1) {
          EXPECT_EQ(data[n - 1], want_root);
        }
      });
      for (const auto& r : report.ranks) {
        const auto& op = reduce ? r.stats.reduce : r.stats.broadcast;
        EXPECT_EQ(op.calls, 1u);
        EXPECT_EQ(op.time, r.util.transfer);
      }
    }
  }
}

TEST(Cluster, BodyExceptionPropagates) {
  EXPECT_THROW(oc::run_cluster(1,
                               [](oc::Context&) {
                                 OPT_CHECK(false, "rank failure");
                               }),
               optimus::util::CheckError);
}

TEST(Cluster, ReportAggregatesPerRankAccounting) {
  auto report = oc::run_cluster(3, [](oc::Context& ctx) {
    optimus::tensor::Tensor t(optimus::tensor::Shape{256});  // 1 KiB
    ctx.device.on_mults(100 * (ctx.rank + 1));
    ctx.world.barrier();
  });
  ASSERT_EQ(report.ranks.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(report.ranks[r].mults, 100u * (r + 1));
    EXPECT_GE(report.ranks[r].peak_bytes, 1024u);
    EXPECT_EQ(report.ranks[r].live_bytes, 0u);
  }
  EXPECT_EQ(report.total_mults(), 600u);
}

TEST(Cluster, BarrierSynchronisesClocks) {
  oc::Topology topo(3, 4, oc::Arrangement::kNaive);
  oc::MachineParams mp;  // defaults, nonzero alpha
  oc::Cluster cluster(3, topo, mp);
  auto report = cluster.run([](oc::Context& ctx) {
    ctx.device.on_mults(5000000ull * (ctx.rank + 1));
    ctx.world.barrier();
  });
  const double t0 = report.ranks[0].sim_time;
  for (const auto& r : report.ranks) EXPECT_DOUBLE_EQ(r.sim_time, t0);
}

// ---------------------------------------------------------------------------
// Device threads and the fabric wait path
// ---------------------------------------------------------------------------

namespace {

struct RankOutcome {
  std::vector<double> data;
  double sim_time = 0;
  double comm_time = 0;
  std::uint64_t bytes = 0;
};

/// A mix of every wait site: skewed compute before collectives (clock
/// alignment), world and split-group collectives, an async broadcast and a
/// user point-to-point ring.
void mixed_body(oc::Communicator& world, optimus::tensor::DeviceContext& device,
                RankOutcome& out) {
  const int rank = world.rank();
  const int p = world.size();
  std::vector<double> v(33);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = 0.1 * (rank + 1) + 0.01 * i;
  const auto n = static_cast<optimus::tensor::index_t>(v.size());
  device.on_mults(1000ull * (rank + 1));
  world.all_reduce(v.data(), n);
  world.broadcast(v.data(), n, p - 1);
  oc::Communicator half = world.split(rank % 2, rank);
  device.on_mults(777ull * (p - rank));
  half.all_reduce(v.data(), n);
  oc::Request req = world.ibroadcast(v.data(), n, 0);
  req.wait();
  if (p > 1) {
    std::vector<double> in(v.size());
    world.send((rank + 1) % p, 5, v.data(), n);
    world.recv((rank + p - 1) % p, 5, in.data(), n);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] += in[i];
  }
  world.barrier();
  out.data = v;
}

/// What Cluster::run computed before device threads were pooled: a fresh
/// std::thread per rank on a fresh fabric.
std::vector<RankOutcome> fresh_thread_run(int p) {
  oc::Topology topo(p, /*gpus_per_node=*/4, oc::Arrangement::kBunched, /*mesh_q=*/0);
  oc::CostModel cost(topo, oc::MachineParams{});
  oc::Fabric fabric(p);
  const std::uint64_t world_id = fabric.next_comm_id();
  std::vector<int> group(p);
  std::iota(group.begin(), group.end(), 0);
  std::vector<RankOutcome> out(p);
  std::vector<std::unique_ptr<optimus::tensor::DeviceContext>> devices;
  std::vector<std::unique_ptr<oc::SimClock>> clocks;
  std::vector<oc::CommStats> stats(p);
  for (int r = 0; r < p; ++r) {
    devices.push_back(std::make_unique<optimus::tensor::DeviceContext>());
    clocks.push_back(std::make_unique<oc::SimClock>());
  }
  std::vector<std::thread> threads;
  for (int r = 0; r < p; ++r) {
    threads.emplace_back([&, r] {
      optimus::tensor::ScopedDevice scoped(*devices[r]);
      oc::Communicator world(fabric, world_id, group, r, *clocks[r], cost, stats[r]);
      mixed_body(world, *devices[r], out[r]);
      clocks[r]->drain_compute(cost);
    });
  }
  for (auto& t : threads) t.join();
  for (int r = 0; r < p; ++r) {
    out[r].sim_time = clocks[r]->now();
    out[r].comm_time = stats[r].total_time();
    out[r].bytes = stats[r].total_bytes();
  }
  return out;
}

std::vector<RankOutcome> pooled_run(int p, oc::Cluster::Report* report = nullptr) {
  std::vector<RankOutcome> out(p);
  const auto rep = oc::run_cluster(p, [&](oc::Context& ctx) {
    mixed_body(ctx.world, ctx.device, out[ctx.rank]);
  });
  for (int r = 0; r < p; ++r) {
    out[r].sim_time = rep.ranks[r].sim_time;
    out[r].comm_time = rep.ranks[r].comm_time;
    out[r].bytes = rep.ranks[r].stats.total_bytes();
  }
  if (report != nullptr) *report = rep;
  return out;
}

void expect_bitwise_equal(const std::vector<RankOutcome>& a, const std::vector<RankOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].data.size(), b[r].data.size()) << "rank " << r;
    EXPECT_EQ(std::memcmp(a[r].data.data(), b[r].data.data(), a[r].data.size() * sizeof(double)),
              0)
        << "rank " << r << " data differs";
    EXPECT_EQ(std::memcmp(&a[r].sim_time, &b[r].sim_time, sizeof(double)), 0) << "rank " << r;
    EXPECT_EQ(std::memcmp(&a[r].comm_time, &b[r].comm_time, sizeof(double)), 0) << "rank " << r;
    EXPECT_EQ(a[r].bytes, b[r].bytes) << "rank " << r;
  }
}

}  // namespace

TEST(DeviceThreads, BackToBackLaunchesMatchFreshThreadsBitwise) {
  ots::Watchdog wd("back-to-back launches", std::chrono::seconds(120));
  // Grow, shrink, grow past the host and shrink again: resident threads are
  // reused across every launch and must leave no trace in the results.
  for (const int p : {1, 4, 16, 2}) {
    SCOPED_TRACE(::testing::Message() << "world " << p);
    expect_bitwise_equal(pooled_run(p), fresh_thread_run(p));
  }
}

TEST(DeviceThreads, OversubscribedWorldParksAndCompletes) {
  ots::Watchdog wd("oversubscribed world", std::chrono::seconds(120));
  oc::Cluster::Report report;
  const auto out = pooled_run(16, &report);
  expect_bitwise_equal(out, fresh_thread_run(16));
  std::uint64_t parks = 0;
  for (const auto& r : report.ranks) parks += r.fabric_parks;
  EXPECT_GT(parks, 0u) << "16 ranks cannot all be running at once without someone waiting";
  if (optimus::kernel::hardware_threads() < 16) {
    // More ranks than hardware threads: a spinning waiter would steal the
    // core its peer needs, so every wait parks.
    for (std::size_t r = 0; r < report.ranks.size(); ++r) {
      EXPECT_EQ(report.ranks[r].fabric_spin_hits, 0u) << "rank " << r << " spun";
    }
  }
}

TEST(DeviceThreads, ThrowingRankLeavesThreadsUsable) {
  ots::Watchdog wd("throwing rank", std::chrono::seconds(120));
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(oc::run_cluster(4,
                                 [](oc::Context& ctx) {
                                   if (ctx.rank == 2) throw std::runtime_error("rank 2 fails");
                                 }),
                 std::runtime_error);
    expect_bitwise_equal(pooled_run(4), fresh_thread_run(4));
  }
}

TEST(DeviceThreads, NestedLaunchIsANamedError) {
  ots::Watchdog wd("nested launch", std::chrono::seconds(120));
  try {
    oc::run_cluster(2, [](oc::Context&) { oc::run_cluster(1, [](oc::Context&) {}); });
    FAIL() << "nested run_cluster returned";
  } catch (const oc::NestedLaunchError& e) {
    EXPECT_NE(std::string(e.what()).find("nested run_cluster"), std::string::npos) << e.what();
  }
  // The outer launch's threads are free again.
  expect_bitwise_equal(pooled_run(2), fresh_thread_run(2));
}

TEST(DeviceThreads, WaitCountersReachTheMetricsReport) {
  oc::Cluster::Report report;
  pooled_run(4, &report);
  const auto doc = oc::metrics_json(report);
  const auto& pool = doc.get("pool");
  ASSERT_TRUE(pool.has("fabric_spin_hits") && pool.has("fabric_parks"));
  ASSERT_EQ(pool.get("fabric_spin_hits").size(), 4u);
  ASSERT_EQ(pool.get("fabric_parks").size(), 4u);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(pool.get("fabric_spin_hits").items()[r].as_number(),
              static_cast<double>(report.ranks[r].fabric_spin_hits));
    EXPECT_EQ(pool.get("fabric_parks").items()[r].as_number(),
              static_cast<double>(report.ranks[r].fabric_parks));
  }
}
