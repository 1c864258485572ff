// Deterministic fault injection through the simulated fabric.
//
// The contract under test (comm/fabric.hpp): injected faults must never
// change the math and never hang. Latency spikes and a stalling rank perturb
// thread interleavings only — collectives and whole training steps must stay
// *bitwise* identical. Poisoned payloads must surface as a loud FaultError
// naming the collective in flight, never as silent divergence or a deadlock.
// Every test runs under a watchdog so a wedged collective aborts the suite
// with a diagnosis instead of timing out CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "comm/cluster.hpp"
#include "comm/fabric.hpp"
#include "mesh/mesh.hpp"
#include "obs/flight.hpp"
#include "summa/summa.hpp"
#include "tensor/distribution.hpp"
#include "test_helpers.hpp"
#include "testing/equivalence.hpp"
#include "testing/fuzz_config.hpp"
#include "testing/watchdog.hpp"

namespace oc = optimus::comm;
namespace ots = optimus::testing;

namespace {

/// Per-rank result of an allreduce + barrier round, optionally faulted.
std::vector<std::vector<double>> allreduce_results(int world, const oc::FaultPlan* plan) {
  std::vector<std::vector<double>> out(world);
  std::mutex mu;
  const auto body = [&](oc::Context& ctx) {
    std::vector<double> data(17);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = (ctx.rank + 1) * 0.5 + static_cast<double>(i) * 0.25;
    }
    ctx.world.all_reduce(data.data(), static_cast<optimus::tensor::index_t>(data.size()));
    ctx.world.barrier();
    std::lock_guard<std::mutex> lock(mu);
    out[ctx.rank] = data;
  };
  if (plan) {
    oc::run_cluster(world, *plan, body);
  } else {
    oc::run_cluster(world, body);
  }
  return out;
}

}  // namespace

TEST(Fault, LatencySpikesLeaveCollectivesBitwiseUnchanged) {
  ots::Watchdog wd("fault spike test", std::chrono::seconds(120));
  const std::uint64_t seed = ots::test_seed(99);
  OPTIMUS_SEED_TRACE(seed);

  const auto base = allreduce_results(4, nullptr);
  oc::FaultPlan plan;
  plan.seed = seed;
  plan.spike_prob = 0.5;
  plan.spike_us = 200;
  EXPECT_EQ(base, allreduce_results(4, &plan));
}

TEST(Fault, StallingRankDoesNotDeadlockOrDiverge) {
  ots::Watchdog wd("fault stall test", std::chrono::seconds(120));
  const std::uint64_t seed = ots::test_seed(100);
  OPTIMUS_SEED_TRACE(seed);

  const auto base = allreduce_results(4, nullptr);
  oc::FaultPlan plan;
  plan.seed = seed;
  plan.stall_rank = 2;  // straggler model: one rank's receives lag
  plan.stall_prob = 0.5;
  plan.stall_us = 300;
  EXPECT_EQ(base, allreduce_results(4, &plan));
}

TEST(Fault, PoisonedPayloadFailsLoudlyNamingTheOp) {
  ots::Watchdog wd("fault poison test", std::chrono::seconds(120));
  oc::FaultPlan plan;
  plan.seed = 7;
  plan.poison_prob = 1.0;
  try {
    allreduce_results(4, &plan);
    FAIL() << "poisoned collective completed silently";
  } catch (const oc::FaultError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("poisoned payload"), std::string::npos) << what;
    EXPECT_NE(what.find("allreduce"), std::string::npos)
        << "diagnostic does not name the op: " << what;
  }
}

TEST(Fault, PoisonDiagnosticIsDeterministic) {
  ots::Watchdog wd("fault determinism test", std::chrono::seconds(120));
  // A single point-to-point message so exactly one poison site exists: the
  // seeded draws and the resulting diagnostic must replay identically.
  oc::FaultPlan plan;
  plan.seed = ots::test_seed(41);
  OPTIMUS_SEED_TRACE(plan.seed);
  plan.poison_prob = 1.0;
  const auto poison_what = [&]() -> std::string {
    try {
      oc::run_cluster(2, plan, [](oc::Context& ctx) {
        std::vector<double> v(9, 1.5);
        if (ctx.rank == 0) {
          ctx.world.send(1, /*tag=*/0, v.data(), 9);
        } else {
          ctx.world.recv(0, /*tag=*/0, v.data(), 9);
        }
      });
      return "";
    } catch (const oc::FaultError& e) {
      return e.what();
    }
  };
  const std::string first = poison_what();
  ASSERT_NE(first.find("poisoned payload"), std::string::npos) << "what: " << first;
  EXPECT_EQ(first, poison_what());
}

TEST(Fault, PoisonedCollectiveLeavesPostmortemOnEveryRank) {
  ots::Watchdog wd("fault postmortem test", std::chrono::seconds(120));
  namespace ob = optimus::obs;
  struct FlightGuard {
    ~FlightGuard() {
      ob::set_flight_enabled(false);
      ob::flight_reset();
      ob::flight_set_postmortem_prefix("");
    }
  } guard;

  oc::FaultPlan plan;
  plan.seed = 7;
  plan.poison_prob = 1.0;  // every rank poisons its own first receive
  const auto slurp = [](const std::string& path) -> std::string {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing post-mortem dump " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  const auto run_dumping = [&](const std::string& prefix) {
    ob::flight_reset();
    ob::set_flight_enabled(true);
    ob::flight_set_postmortem_prefix(prefix);
    try {
      allreduce_results(4, &plan);
      ADD_FAILURE() << "poisoned collective completed silently";
    } catch (const oc::FaultError&) {
    } catch (const oc::FabricAborted&) {
    }
  };

  const std::string prefix_a = ::testing::TempDir() + "postmortem_a";
  run_dumping(prefix_a);
  for (int r = 0; r < 4; ++r) {
    const std::string path = prefix_a + ".rank" + std::to_string(r) + ".json";
    const ob::Json dump = ob::Json::parse(slurp(path));
    EXPECT_EQ(dump.get("rank").as_number(), static_cast<double>(r)) << path;
    // The op each rank was inside when it threw is deterministic and must be
    // named — here every rank dies inside the poisoned allreduce.
    EXPECT_EQ(dump.get("abort_op").as_string(), "allreduce") << path;
    EXPECT_GT(dump.get("events_seen").as_number(), 0.0) << path;
    ASSERT_FALSE(dump.get("events").items().empty()) << path;
    bool named = false;
    for (const auto& e : dump.get("events").items()) {
      named = named || e.get("name").as_string() == "allreduce";
    }
    EXPECT_TRUE(named) << path << " ring never mentions the aborting op";
  }

  // Same seed, fresh run: each rank's dump must be byte-identical (the ring
  // holds only sim timestamps and this rank's own deterministic notes).
  const std::string prefix_b = ::testing::TempDir() + "postmortem_b";
  run_dumping(prefix_b);
  for (int r = 0; r < 4; ++r) {
    const std::string suffix = ".rank" + std::to_string(r) + ".json";
    EXPECT_EQ(slurp(prefix_a + suffix), slurp(prefix_b + suffix))
        << "rank " << r << " dump differs across identical runs";
  }
}

TEST(Fault, AbortDuringPeerSpinWakesEveryWaiterWithIdenticalPostmortems) {
  ots::Watchdog wd("abort during spin test", std::chrono::seconds(120));
  namespace ob = optimus::obs;
  struct FlightGuard {
    ~FlightGuard() {
      ob::set_flight_enabled(false);
      ob::flight_reset();
      ob::flight_set_postmortem_prefix("");
    }
  } guard;
  // Rank 0 sends rank 1 a poisoned message after a short wall delay. While it
  // waits, rank 1 sits in recv, rank 2 in a barrier that needs rank 1, and
  // rank 3 in a recv nobody will serve — so the abort lands on a mailbox wait
  // and a rendezvous wait, inside their spin window for short delays and
  // after they parked for long ones. Every waiter must unwind, and no delay
  // may leak into the post-mortems.
  oc::FaultPlan plan;
  plan.seed = 13;
  plan.poison_prob = 1.0;
  const auto slurp = [](const std::string& path) -> std::string {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing post-mortem dump " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  const auto run = [&](int delay_us, const std::string& prefix) {
    ob::flight_reset();
    ob::set_flight_enabled(true);
    ob::flight_set_postmortem_prefix(prefix);
    // Ranks 2 and 3 announce they are about to block; the delay starts only
    // then, so the abort can never land before they entered their waits.
    std::atomic<int> entering{0};
    try {
      oc::run_cluster(4, plan, [&](oc::Context& ctx) {
        oc::Communicator rest = ctx.world.split(ctx.rank == 0 ? 0 : 1, ctx.rank);
        std::vector<double> v(5, 0.5);
        switch (ctx.rank) {
          case 0: {
            while (entering.load() < 2) std::this_thread::yield();
            const auto until =
                std::chrono::steady_clock::now() + std::chrono::microseconds(delay_us);
            while (std::chrono::steady_clock::now() < until) {
            }
            ctx.world.send(1, /*tag=*/1, v.data(), 5);
            break;
          }
          case 1:
            ctx.world.recv(0, /*tag=*/1, v.data(), 5);
            rest.barrier();
            break;
          case 2:
            entering.fetch_add(1);
            rest.barrier();
            break;
          default:
            entering.fetch_add(1);
            ctx.world.recv(0, /*tag=*/2, v.data(), 5);
            break;
        }
      });
      ADD_FAILURE() << "poisoned message was consumed silently (delay " << delay_us << " us)";
    } catch (const oc::FaultError& e) {
      EXPECT_NE(std::string(e.what()).find("poisoned payload"), std::string::npos) << e.what();
    }
  };

  const std::string base = ::testing::TempDir() + "spin_abort_";
  run(0, base + "ref");
  std::vector<std::string> ref;
  for (int r = 1; r < 4; ++r) ref.push_back(slurp(base + "ref.rank" + std::to_string(r) + ".json"));
  EXPECT_EQ(ob::Json::parse(ref[0]).get("abort_op").as_string(), "recv");
  EXPECT_EQ(ob::Json::parse(ref[1]).get("abort_op").as_string(), "barrier");
  EXPECT_EQ(ob::Json::parse(ref[2]).get("abort_op").as_string(), "recv");
  int i = 0;
  for (const int delay_us : {0, 2, 10, 30, 100, 1000, 5000}) {
    const std::string prefix = base + std::to_string(i++);
    run(delay_us, prefix);
    for (int r = 1; r < 4; ++r) {
      EXPECT_EQ(slurp(prefix + ".rank" + std::to_string(r) + ".json"), ref[r - 1])
          << "rank " << r << " post-mortem depends on when the abort landed (delay "
          << delay_us << " us)";
    }
  }
}

TEST(Fault, OptimusTrainingStepBitwiseUnderLatencyFaults) {
  ots::Watchdog wd("fault training-step test", std::chrono::seconds(120));
  // A fixed q=2 config run through the full differential harness with the
  // fault-replay stage on: the replay requires bitwise-identical hidden
  // states, losses and gradients under spikes + a straggler.
  const ots::FuzzConfig fc = ots::FuzzConfig::parse(
      "q=2,mp=1,b=2,s=3,heads=2,hd=3,v=12,layers=2,mlp=2,dtype=f64,threads=2,"
      "ckpt2d=1,ckpt1d=1,buf=pool,lr=0.05,pseed=2024,dseed=11");
  ots::EquivalenceOptions opts;
  opts.run_megatron = false;
  opts.fault_replay = true;
  const ots::EquivalenceResult res = ots::run_equivalence(fc, opts);
  EXPECT_TRUE(res.pass()) << ots::summarize(res);
  EXPECT_TRUE(res.fault_replay_ran);
  EXPECT_TRUE(res.fault_replay_ok);
}

TEST(Fault, PoisonedAsyncPanelAbortsPipelinedSummaCleanly) {
  ots::Watchdog wd("fault async poison test", std::chrono::seconds(120));
  // Poison an in-flight panel broadcast of the pipelined SUMMA schedule: the
  // consuming wait must abort the whole fabric with a FaultError naming the
  // async op — no deadlock (ranks blocked in irecv unwind via FabricAborted),
  // no silent corruption.
  oc::FaultPlan plan;
  plan.seed = ots::test_seed(55);
  OPTIMUS_SEED_TRACE(plan.seed);
  plan.poison_prob = 1.0;
  try {
    oc::run_cluster(4, plan, [](oc::Context& ctx) {
      optimus::summa::PipelineGuard guard(true);
      optimus::mesh::Mesh2D mesh(ctx.world);
      using DTensor = optimus::tensor::DTensor;
      using Shape = optimus::tensor::Shape;
      DTensor A = DTensor::zeros(Shape{6, 6});
      DTensor B = DTensor::zeros(Shape{6, 6});
      DTensor C = DTensor::zeros(Shape{6, 6});
      optimus::summa::summa_ab(mesh, A, B, C);
    });
    FAIL() << "poisoned pipelined SUMMA completed silently";
  } catch (const oc::FaultError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("poisoned payload"), std::string::npos) << what;
    EXPECT_NE(what.find("ibroadcast"), std::string::npos)
        << "diagnostic does not name the async op: " << what;
  }
}

TEST(Fault, PoisonedDepthReduceAbortsCleanlyNamingTheOp) {
  ots::Watchdog wd("fault depth poison test", std::chrono::seconds(120));
  // On a 1×1×2 mesh the only payload transfers in a 2.5D product are the
  // depth fold's tree reduce and the replica broadcast of C. Poisoning the
  // first receive must abort the fabric with a FaultError naming the depth
  // reduce — every rank unwinds (watchdog proves no deadlock), nothing is
  // silently wrong.
  oc::FaultPlan plan;
  plan.seed = ots::test_seed(57);
  OPTIMUS_SEED_TRACE(plan.seed);
  plan.poison_prob = 1.0;
  try {
    oc::run_cluster(2, plan, [](oc::Context& ctx) {
      optimus::mesh::Mesh2D mesh(ctx.world, /*depth=*/2);
      using DTensor = optimus::tensor::DTensor;
      using Shape = optimus::tensor::Shape;
      DTensor A = DTensor::zeros(Shape{4, 6});
      DTensor B = DTensor::zeros(Shape{6, 4});
      DTensor C = DTensor::zeros(Shape{4, 4});
      optimus::summa::summa_ab(mesh, A, B, C);
    });
    FAIL() << "poisoned 2.5D SUMMA completed silently";
  } catch (const oc::FaultError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("poisoned payload"), std::string::npos) << what;
    EXPECT_NE(what.find("in op 'reduce'"), std::string::npos)
        << "diagnostic does not name the depth reduce: " << what;
  }
}

TEST(Fault, PoisonedDepthReduceLeavesDeterministicPostmortems) {
  ots::Watchdog wd("fault depth postmortem test", std::chrono::seconds(120));
  namespace ob = optimus::obs;
  struct FlightGuard {
    ~FlightGuard() {
      ob::set_flight_enabled(false);
      ob::flight_reset();
      ob::flight_set_postmortem_prefix("");
    }
  } guard;

  oc::FaultPlan plan;
  plan.seed = 13;
  plan.poison_prob = 1.0;
  const auto slurp = [](const std::string& path) -> std::string {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing post-mortem dump " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  const auto run_dumping = [&](const std::string& prefix) {
    ob::flight_reset();
    ob::set_flight_enabled(true);
    ob::flight_set_postmortem_prefix(prefix);
    try {
      oc::run_cluster(2, plan, [](oc::Context& ctx) {
        optimus::mesh::Mesh2D mesh(ctx.world, /*depth=*/2);
        using DTensor = optimus::tensor::DTensor;
        using Shape = optimus::tensor::Shape;
        DTensor A = DTensor::zeros(Shape{4, 6});
        DTensor B = DTensor::zeros(Shape{6, 4});
        DTensor C = DTensor::zeros(Shape{4, 4});
        optimus::summa::summa_ab(mesh, A, B, C);
      });
      ADD_FAILURE() << "poisoned 2.5D SUMMA completed silently";
    } catch (const oc::FaultError&) {
    } catch (const oc::FabricAborted&) {
    }
  };

  const std::string prefix_a = ::testing::TempDir() + "postmortem_depth_a";
  run_dumping(prefix_a);
  // Rank 0 is the depth-fold root: its first (and only) receive is the
  // poisoned tree-reduce leg of the blocking depth reduce — the dump must
  // blame it.
  const ob::Json dump0 = ob::Json::parse(slurp(prefix_a + ".rank0.json"));
  EXPECT_EQ(dump0.get("rank").as_number(), 0.0);
  EXPECT_EQ(dump0.get("abort_op").as_string(), "reduce");
  EXPECT_GT(dump0.get("events_seen").as_number(), 0.0);

  // Same seed, fresh run: each rank's dump must replay byte-identically.
  const std::string prefix_b = ::testing::TempDir() + "postmortem_depth_b";
  run_dumping(prefix_b);
  for (int r = 0; r < 2; ++r) {
    const std::string suffix = ".rank" + std::to_string(r) + ".json";
    EXPECT_EQ(slurp(prefix_a + suffix), slurp(prefix_b + suffix))
        << "rank " << r << " dump differs across identical runs";
  }
}

TEST(Fault, LatencyFaultsLeave25dSummaBitwise) {
  ots::Watchdog wd("fault 2.5d latency test", std::chrono::seconds(120));
  // Spikes plus a straggler on a 2×2×2 mesh perturb arrival order of the
  // sub-panel broadcasts and the depth fold; FIFO matching per (src, tag)
  // must keep every rank's result — all depth replicas included — bitwise
  // identical to the fault-free run, under both schedules.
  const std::uint64_t seed = ots::test_seed(58);
  OPTIMUS_SEED_TRACE(seed);
  using DTensor = optimus::tensor::DTensor;
  using Shape = optimus::tensor::Shape;
  const int q = 2, d = 2;
  const auto run_faulted = [&](const oc::FaultPlan* plan, bool pipelined) {
    std::vector<std::vector<double>> out(q * q * d);
    std::mutex mu;
    const auto body = [&](oc::Context& ctx) {
      optimus::summa::PipelineGuard guard(pipelined);
      optimus::mesh::Mesh2D mesh(ctx.world, d);
      // Seed by mesh cell so depth replicas hold identical blocks, as the
      // 2.5D contract requires.
      optimus::util::Rng rng(800 + mesh.row() * q + mesh.col());
      DTensor A(Shape{4, 6}), B(Shape{6, 4}), C(Shape{4, 4});
      for (optimus::tensor::index_t i = 0; i < A.numel(); ++i) A[i] = rng.uniform(-1, 1);
      for (optimus::tensor::index_t i = 0; i < B.numel(); ++i) B[i] = rng.uniform(-1, 1);
      C.zero();
      optimus::summa::summa_ab(mesh, A, B, C);
      std::vector<double> mine(C.numel());
      for (optimus::tensor::index_t i = 0; i < C.numel(); ++i) mine[i] = C[i];
      std::lock_guard<std::mutex> lock(mu);
      out[ctx.rank] = std::move(mine);
    };
    if (plan) {
      oc::run_cluster(q * q * d, *plan, body);
    } else {
      oc::run_cluster(q * q * d, body);
    }
    return out;
  };
  oc::FaultPlan plan;
  plan.seed = seed;
  plan.spike_prob = 0.5;
  plan.spike_us = 200;
  plan.stall_rank = 5;  // a straggler inside depth layer 1
  plan.stall_prob = 0.5;
  plan.stall_us = 300;
  for (const bool pipelined : {false, true}) {
    const auto base = run_faulted(nullptr, pipelined);
    EXPECT_EQ(base, run_faulted(&plan, pipelined))
        << (pipelined ? "pipelined" : "blocking") << " schedule diverged under faults";
  }
}

TEST(Fault, LatencyFaultsLeavePipelinedSummaBitwise) {
  ots::Watchdog wd("fault async latency test", std::chrono::seconds(120));
  // Spikes and a straggler perturb arrival order of the async panels and
  // reduces; FIFO matching per (src, tag) must keep the pipelined result
  // bitwise identical anyway — for the broadcast forms and the reduce forms.
  const std::uint64_t seed = ots::test_seed(56);
  OPTIMUS_SEED_TRACE(seed);
  using DTensor = optimus::tensor::DTensor;
  using Shape = optimus::tensor::Shape;
  const int q = 2;
  const auto run_faulted = [&](const oc::FaultPlan* plan) {
    DTensor C_global = DTensor::zeros(Shape{12, 8});  // gathered D blocks [6, 4]
    std::mutex mu;
    const auto body = [&](oc::Context& ctx) {
      optimus::summa::PipelineGuard guard(true);
      optimus::mesh::Mesh2D mesh(ctx.world);
      optimus::util::Rng rng(700 + ctx.rank);
      DTensor A(Shape{4, 6}), B(Shape{6, 4}), C(Shape{4, 4}), D(Shape{6, 4});
      for (optimus::tensor::index_t i = 0; i < A.numel(); ++i) A[i] = rng.uniform(-1, 1);
      for (optimus::tensor::index_t i = 0; i < B.numel(); ++i) B[i] = rng.uniform(-1, 1);
      C.zero();
      D.zero();
      optimus::summa::summa_ab(mesh, A, B, C);     // async broadcasts
      optimus::summa::summa_atb(mesh, A, C, D);    // async broadcasts + reduces
      std::lock_guard<std::mutex> lock(mu);
      optimus::tensor::set_matrix_block(C_global, q, mesh.row(), mesh.col(), D);
    };
    if (plan) {
      oc::run_cluster(q * q, *plan, body);
    } else {
      oc::run_cluster(q * q, body);
    }
    return C_global;
  };
  const DTensor base = run_faulted(nullptr);
  oc::FaultPlan plan;
  plan.seed = seed;
  plan.spike_prob = 0.5;
  plan.spike_us = 200;
  plan.stall_rank = 1;
  plan.stall_prob = 0.5;
  plan.stall_us = 300;
  const DTensor faulted = run_faulted(&plan);
  for (optimus::tensor::index_t i = 0; i < base.numel(); ++i) {
    ASSERT_EQ(faulted[i], base[i]) << "diverged at " << i;
  }
}
