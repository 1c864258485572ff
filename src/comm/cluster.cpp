#include "comm/cluster.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "kernel/thread_pool.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"

namespace optimus::comm {

namespace {

thread_local bool tl_device_thread = false;

/// CPUs this process may run on, in ascending order (empty if unknown).
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
#endif
  return cpus;
}

/// Places device thread `rank` for a launch of `world` ranks. Left to itself
/// the scheduler puts a woken thread on its waker's CPU: all four ranks of a
/// 2×2 launch were measured sharing one CPU through set-up, so the rank that
/// left the mesh split first and began building its engine kept its peers
/// from even returning from the split (mesh build 5 ms instead of 80 µs at
/// h = 256). So while a world has at least two ranks and fits the allowed
/// CPUs, rank r is pinned to the r-th of them. A one-rank world stays free,
/// because its kernel pool workers need the other CPUs and would queue
/// behind a pinned submitter. An oversubscribed world also stays free, so
/// the scheduler can balance it. Affinity changes only when the placement
/// does.
void place_device_thread(int rank, int world) {
#if defined(__linux__)
  static const std::vector<int> cpus = allowed_cpus();
  thread_local int pinned = -1;  // CPU this thread is pinned to; -1 = free
  const int want = world >= 2 && world <= static_cast<int>(cpus.size())
                       ? cpus[static_cast<std::size_t>(rank)]
                       : -1;
  if (want == pinned) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (want >= 0) {
    CPU_SET(want, &set);
  } else {
    for (const int c : cpus) CPU_SET(c, &set);
  }
  if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0) pinned = want;
#else
  (void)rank;
  (void)world;
#endif
}

/// Process-wide device threads. A launch hands rank r's body to resident
/// thread r instead of creating and joining world_size std::threads, so a
/// launch costs a few futex wake-ups. Threads are spawned on demand up to
/// the largest world seen and park between launches. Launches are
/// serialised; the pool is leaked on purpose, like the kernel pool, so no
/// thread is joined during static destruction.
class DeviceThreads {
 public:
  static DeviceThreads& instance() {
    static DeviceThreads* pool = new DeviceThreads();
    return *pool;
  }

  /// Runs job(rank) for every rank in [0, n) on the device threads and
  /// returns once all of them finished. `job` must not throw.
  void launch(int n, const std::function<void(int)>& job) {
    std::lock_guard<std::mutex> serial(launch_mu_);
    while (static_cast<int>(workers_.size()) < n) {
      // Start the thread before registering it: if it cannot be created, no
      // later launch waits on a worker that does not exist.
      auto w = std::make_unique<Worker>();
      const int rank = static_cast<int>(workers_.size());
      std::thread([this, wp = w.get(), rank] { loop(*wp, rank); }).detach();
      workers_.push_back(std::move(w));
    }
    remaining_.store(n, std::memory_order_relaxed);
    for (int r = 0; r < n; ++r) {
      Worker& w = *workers_[static_cast<std::size_t>(r)];
      {
        std::lock_guard<std::mutex> lock(w.mu);
        w.job = &job;
        w.world = n;
      }
      w.cv.notify_one();
    }
    std::unique_lock<std::mutex> lock(done_mu_);
    done_cv_.wait(lock, [&] { return remaining_.load(std::memory_order_acquire) == 0; });
  }

 private:
  struct Worker {
    std::mutex mu;
    std::condition_variable cv;
    const std::function<void(int)>* job = nullptr;  // guarded by mu
    int world = 0;                                    // guarded by mu
  };

  void loop(Worker& w, int rank) {
    tl_device_thread = true;
    for (;;) {
      const std::function<void(int)>* job;
      int world;
      {
        std::unique_lock<std::mutex> lock(w.mu);
        w.cv.wait(lock, [&] { return w.job != nullptr; });
        job = w.job;
        world = w.world;
        w.job = nullptr;
      }
      place_device_thread(rank, world);
      (*job)(rank);
      if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        { std::lock_guard<std::mutex> lock(done_mu_); }
        done_cv_.notify_one();
      }
    }
  }

  std::mutex launch_mu_;
  std::vector<std::unique_ptr<Worker>> workers_;  // guarded by launch_mu_
  std::atomic<int> remaining_{0};
  std::mutex done_mu_;
  std::condition_variable done_cv_;
};

}  // namespace

double Cluster::Report::max_sim_time() const {
  double t = 0;
  for (const auto& r : ranks) t = std::max(t, r.sim_time);
  return t;
}

double Cluster::Report::max_comm_time() const {
  double t = 0;
  for (const auto& r : ranks) t = std::max(t, r.comm_time);
  return t;
}

std::uint64_t Cluster::Report::max_peak_bytes() const {
  std::uint64_t b = 0;
  for (const auto& r : ranks) b = std::max(b, r.peak_bytes);
  return b;
}

std::uint64_t Cluster::Report::total_mults() const {
  std::uint64_t m = 0;
  for (const auto& r : ranks) m += r.mults;
  return m;
}

double Cluster::Report::total_weighted_comm() const {
  double w = 0;
  for (const auto& r : ranks) w += r.stats.total_weighted();
  return w;
}

Cluster::Cluster(int world_size, const Topology& topology, const MachineParams& params)
    : world_size_(world_size), topology_(topology), cost_(topology_, params) {
  OPT_CHECK(topology.world_size() == world_size,
            "topology world " << topology.world_size() << " != cluster world " << world_size);
}

Cluster::Report Cluster::run(const std::function<void(Context&)>& body) {
  if (tl_device_thread) {
    throw NestedLaunchError(
        "nested run_cluster: a rank body may not launch another cluster (device threads are "
        "busy with the enclosing launch)");
  }
  // Register the simulated devices against the shared kernel thread budget:
  // while they run, each device's intra-op kernels get at most
  // OPTIMUS_KERNEL_THREADS / world_size workers, so device threads × kernel
  // workers never oversubscribe the host.
  kernel::ActiveDevicesGuard devices_guard(world_size_);
  Fabric fabric(world_size_);
  if (fault_plan_.active()) fabric.set_fault_plan(fault_plan_);
  const std::uint64_t world_comm_id = fabric.next_comm_id();
  fabric.sync_group(world_comm_id, world_size_);  // ranks then only look it up
  std::vector<int> world_group(world_size_);
  for (int i = 0; i < world_size_; ++i) world_group[i] = i;

  // Per-rank state lives on the heap so threads never share cache lines by
  // accident and reports outlive the threads.
  struct RankState {
    tensor::DeviceContext device;
    SimClock clock;
    CommStats stats;
    std::exception_ptr error;
  };
  std::vector<std::unique_ptr<RankState>> states;
  states.reserve(world_size_);
  for (int i = 0; i < world_size_; ++i) states.push_back(std::make_unique<RankState>());

  DeviceThreads::instance().launch(world_size_, [&](int rank) {
    RankState& st = *states[rank];
    tensor::ScopedDevice scoped(st.device);
    // Register this thread as simulated device `rank` with the tracer. The
    // sim-time callback extends the lazily-drained clock by the compute that
    // has accumulated since the last collective, so span timestamps advance
    // continuously instead of jumping at drain points.
    obs::ScopedTrack track(rank, [&st, this] {
      return st.clock.now() + cost_.compute_time(st.device.pending_mults());
    });
    fabric.rank_started();
    try {
      Context ctx{
          Communicator(fabric, world_comm_id, world_group, rank, st.clock, cost_, st.stats),
          st.clock,
          st.device,
          cost_,
          rank,
          world_size_,
      };
      ctx.world.set_label("world");
      obs::Span span("cluster", "rank_body");
      body(ctx);
      // Account compute done after the last collective.
      st.clock.drain_compute(cost_);
    } catch (...) {
      // Leave the post-mortem artifact while this thread still carries the
      // rank's track (flight dumps are keyed by obs::current_rank()).
      obs::flight_write_postmortem();
      st.error = std::current_exception();
    }
    fabric.rank_finished();
  });

  // Prefer the root cause: when one rank hits a fault and aborts the fabric,
  // its peers unwind with FabricAborted — rethrowing those would mask the
  // actual diagnostic.
  std::exception_ptr first_error, first_root_error;
  for (const auto& st : states) {
    if (!st->error) continue;
    if (!first_error) first_error = st->error;
    if (!first_root_error) {
      try {
        std::rethrow_exception(st->error);
      } catch (const FabricAborted&) {
        // secondary unwind; keep scanning for the original fault
      } catch (...) {
        first_root_error = st->error;
      }
    }
  }
  if (first_root_error) std::rethrow_exception(first_root_error);
  if (first_error) std::rethrow_exception(first_error);

  Report report;
  report.ranks.resize(world_size_);
  for (int rank = 0; rank < world_size_; ++rank) {
    RankState& st = *states[rank];
    RankReport& r = report.ranks[rank];
    r.sim_time = st.clock.now();
    r.comm_time = st.stats.total_time();
    r.mults = st.device.mults_total();
    r.peak_bytes = st.device.bytes_peak();
    r.live_bytes = st.device.bytes_live();
    r.alloc_count = st.device.alloc_count();
    r.stats = st.stats;
    r.util = st.clock.util();
    const Fabric::WaitStats waits = fabric.wait_stats(rank);
    r.fabric_spin_hits = waits.spin_hits;
    r.fabric_parks = waits.parks;
  }
  return report;
}

Cluster::Report run_cluster(int world_size, const std::function<void(Context&)>& body) {
  Topology topo(world_size, /*gpus_per_node=*/4, Arrangement::kBunched,
                /*mesh_q=*/0);
  Cluster cluster(world_size, topo, MachineParams{});
  return cluster.run(body);
}

Cluster::Report run_cluster(int world_size, const FaultPlan& plan,
                            const std::function<void(Context&)>& body) {
  Topology topo(world_size, /*gpus_per_node=*/4, Arrangement::kBunched,
                /*mesh_q=*/0);
  Cluster cluster(world_size, topo, MachineParams{});
  cluster.set_fault_plan(plan);
  return cluster.run(body);
}

}  // namespace optimus::comm
