#pragma once

// Shared pieces of the benchmark driver: run arguments, the outcome a
// workload reports, sample statistics, and the in-memory span log the driver
// records around its own calls into each layer of the program.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "comm/cluster.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace obs = optimus::obs;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out;  // report file; the traced run also writes <out>.trace.json
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `failures` lists the output checks that did
/// not hold; the run is correct when it is empty.
struct Outcome {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, std::string> digests;
  std::vector<std::string> notes;  // human-readable lines for the report
  obs::Json trace_doc = obs::Json::object();

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

// -- statistics --------------------------------------------------------------

/// Nearest-rank quantile (p in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double p);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// FNV-1a over the bit patterns of the values: equal digests mean bitwise
/// equal sequences.
std::string digest(const std::vector<double>& values);
std::string digest(const std::vector<std::int32_t>& values);

/// Process peak resident set size so far, in MB (10^6 bytes).
double rss_peak_mb();

inline double ms_between(std::uint64_t begin_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e6;
}

// -- set-up timing -------------------------------------------------------------

/// Set-up-only launches per run, on top of the measured ones: set-up takes
/// 0.1–5 ms, so its median needs many samples.
inline constexpr int kSetupLaunches = 31;

/// Hard stop for the measured launches on a slow host.
inline constexpr double kMaxSeconds = 120;

/// Set-up phases of one cluster launch, all measured from the host thread's
/// entry into run_cluster and taken as the maximum over ranks.
struct SetupTimes {
  double total_s = 0;           // until every rank has built everything it needs
  double cluster_start_ms = 0;  // until the rank bodies start
  double mesh_build_ms = 0;     // Mesh2D construction
  double construct_ms = 0;      // engine (and KV cache) construction
};

/// Per-rank timestamps a body fills in while it sets up.
struct SetupStamps {
  std::vector<std::uint64_t> body, mesh, engine, ready;
  explicit SetupStamps(int ranks) : body(ranks), mesh(ranks), engine(ranks), ready(ranks) {}
  SetupTimes times(std::uint64_t enter_ns) const;
};

/// Median of each phase over several launches.
SetupTimes median_setup(const std::vector<SetupTimes>& samples);

// -- driver spans ----------------------------------------------------------------

/// One span the driver recorded around a call into a layer, on both clocks
/// (wall on the tracer's epoch so it nests with the program's own spans).
struct DriverSpan {
  const char* layer = "";
  std::uint64_t wall_begin = 0, wall_end = 0;
  double sim_begin = 0, sim_end = 0;
};

/// Spans kept in memory, one buffer per rank; each rank thread appends only to
/// its own buffer, so recording takes no lock.
class SpanLog {
 public:
  explicit SpanLog(int ranks) : ranks_(static_cast<std::size_t>(ranks)) {}
  std::vector<DriverSpan>* rank(int r) { return &ranks_[static_cast<std::size_t>(r)]; }
  const std::vector<std::vector<DriverSpan>>& ranks() const { return ranks_; }

 private:
  std::vector<std::vector<DriverSpan>> ranks_;
};

/// RAII span into a rank buffer; a null buffer records nothing.
class Scope {
 public:
  Scope(std::vector<DriverSpan>* buf, const char* layer) : buf_(buf) {
    if (!buf_) return;
    span_.layer = layer;
    span_.sim_begin = obs::sim_now();
    span_.wall_begin = obs::wall_now_ns();
  }
  ~Scope() {
    if (!buf_) return;
    span_.wall_end = obs::wall_now_ns();
    span_.sim_end = obs::sim_now();
    buf_->push_back(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::vector<DriverSpan>* buf_;
  DriverSpan span_;
};

/// Time attributed to one layer inside the timed steps, summed over ranks.
struct LayerTime {
  double self_wall_ms = 0, self_sim_ms = 0;  // minus the layers called beneath
  double wall_ms = 0, sim_ms = 0;            // outermost spans of the layer, inclusive
  std::uint64_t calls = 0;                   // outermost spans of the layer
};

/// Driver spans and the program's own spans merged per rank, nested by wall
/// time, restricted to the driver's "step" spans (warm-up steps are recorded
/// under another name and so excluded).
struct Attribution {
  std::map<std::string, LayerTime> layers;
  std::map<std::string, std::uint64_t> span_counts;  // program spans by "cat/name"
  std::uint64_t steps = 0;                           // step spans, summed over ranks
  double step_wall_ms = 0, step_sim_ms = 0;          // their total duration
  double gemm_mnk = 0;                               // sum of m·n·k over kernel/gemm
};

/// Inclusive time per timed step (mean over ranks) of a layer's outermost
/// spans, wall or simulated; 0 for a layer the steps never entered.
double layer_ms(const Attribution& a, const char* layer, bool sim);

/// Program spans recorded while the tracer was on, the size of the Chrome
/// trace they make, and the program's metrics document with its span summary.
struct Capture {
  std::vector<obs::SpanRecord> spans;
  std::size_t chrome_bytes = 0;
  obs::Json program;
};

/// Clears earlier spans and turns the program's tracer on.
void start_tracing();

/// Collects the capture (folding in comm::metrics_json of `report`, when the
/// traced launch produced one), then turns the tracer off and drops its spans.
Capture stop_tracing(const optimus::comm::Cluster::Report* report);

/// Collective counts, bytes and simulated-time buckets of one rank between
/// two points of a run.
struct RankDelta {
  optimus::comm::CommStats stats;
  optimus::comm::UtilBreakdown util;
  double sim_s = 0;
  std::uint64_t mults = 0;
};
RankDelta rank_snapshot(optimus::comm::Context& ctx);
RankDelta operator-(const RankDelta& end, const RankDelta& begin);

/// What every workload's traced launch reports: the per-layer self-time table
/// and the check that the layers account for the step, the kernel, comm,
/// summa, tensor and obs metrics, the collective probe, and the trace file.
/// `deltas` cover all `steps` of the traced launch per rank (warm-up
/// included); `traced_ms` and `untraced_ms` are the step wall times of the
/// traced and the untraced launches. Returns the attribution of the steps.
Attribution report_traced(Outcome& out, const SpanLog& log, const Capture& capture,
                          const optimus::comm::Cluster::Report& report,
                          const std::vector<RankDelta>& deltas, std::uint64_t steps,
                          const std::vector<double>& traced_ms,
                          const std::vector<double>& untraced_ms);

/// Kernel thread-pool counters since the last reset, per step.
void add_pool_metrics(Outcome& out, const optimus::comm::Cluster::Report& report,
                      std::uint64_t steps);

}  // namespace perfbench
