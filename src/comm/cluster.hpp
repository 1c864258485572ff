#pragma once

// Launches a simulated cluster: one device thread per rank, each with its own
// DeviceContext (memory/flop accounting), SimClock and CommStats, connected by
// a fresh Fabric.
//
//   comm::Cluster cluster(p, topology, machine_params);
//   comm::Cluster::Report report = cluster.run([&](comm::Context& ctx) {
//     ... ctx.world.all_reduce(...) ...
//   });
//
// The body runs on every rank. Exceptions thrown by any rank are captured and
// the first one is rethrown from run() after every rank has finished (a failed
// rank would deadlock peers blocked in collectives, so failures in the body
// should be rare and fatal; tests exercising failure paths use single-rank
// groups or fault plans, whose aborts wake every blocked peer).
//
// Device threads are process-wide and persistent: rank r of every launch runs
// on the same resident thread, which parks between launches (and is pinned to
// one CPU while a multi-rank world fits the host). Launches from different host threads are serialised, and a launch
// from inside a rank body throws NestedLaunchError instead of deadlocking on
// the busy threads.

#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/fabric.hpp"

namespace optimus::comm {

/// Thrown by Cluster::run / run_cluster when called from inside a rank body.
class NestedLaunchError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Everything a device body needs, handed to the user callback.
struct Context {
  Communicator world;
  SimClock& clock;
  tensor::DeviceContext& device;
  const CostModel& cost;
  int rank;
  int size;
};

class Cluster {
 public:
  struct RankReport {
    double sim_time = 0;        // simulated seconds at body exit
    double comm_time = 0;       // simulated seconds spent in collectives
    std::uint64_t mults = 0;    // scalar multiplications executed
    std::uint64_t peak_bytes = 0;
    std::uint64_t live_bytes = 0;  // should be ~0 after clean teardown
    std::uint64_t alloc_count = 0;
    CommStats stats;
    UtilBreakdown util;  // where sim_time went: compute/align_wait/transfer/idle
    // Wall-clock wait outcomes in the fabric (Fabric::wait_stats): waits that
    // finished while spinning vs. waits that parked. Not deterministic.
    std::uint64_t fabric_spin_hits = 0;
    std::uint64_t fabric_parks = 0;
  };

  struct Report {
    std::vector<RankReport> ranks;

    double max_sim_time() const;
    double max_comm_time() const;
    std::uint64_t max_peak_bytes() const;
    std::uint64_t total_mults() const;
    /// Sum over ranks of the Table-1 weighted communication units.
    double total_weighted_comm() const;
  };

  Cluster(int world_size, const Topology& topology, const MachineParams& params);

  int world_size() const { return world_size_; }
  const CostModel& cost_model() const { return cost_; }

  /// Arms deterministic fault injection (fabric.hpp) for subsequent run()s.
  void set_fault_plan(const FaultPlan& plan) { fault_plan_ = plan; }

  /// Runs `body` on every rank and gathers per-rank reports. If any rank
  /// throws, the *root* error is rethrown: FabricAborted unwinds from peers of
  /// a faulted rank are reported only when no rank holds the original fault.
  Report run(const std::function<void(Context&)>& body);

 private:
  int world_size_;
  Topology topology_;
  CostModel cost_;
  FaultPlan fault_plan_;
};

/// One-shot convenience: build a cluster with a default single-node-ish
/// topology and run the body. Used heavily by tests.
Cluster::Report run_cluster(int world_size, const std::function<void(Context&)>& body);

/// Same, with deterministic fault injection armed.
Cluster::Report run_cluster(int world_size, const FaultPlan& plan,
                            const std::function<void(Context&)>& body);

}  // namespace optimus::comm
