// Statistics, set-up timing, span attribution and the per-layer metrics the
// engines share.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "bench.hpp"
#include "comm/obs_report.hpp"

namespace perfbench {

namespace oc = optimus::comm;

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

namespace {

std::string fnv1a(const unsigned char* bytes, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

std::string digest(const std::vector<double>& values) {
  return fnv1a(reinterpret_cast<const unsigned char*>(values.data()),
               values.size() * sizeof(double));
}

std::string digest(const std::vector<std::int32_t>& values) {
  return fnv1a(reinterpret_cast<const unsigned char*>(values.data()),
               values.size() * sizeof(std::int32_t));
}

double rss_peak_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is in KiB
}

SetupTimes SetupStamps::times(std::uint64_t enter_ns) const {
  SetupTimes t;
  for (std::size_t r = 0; r < ready.size(); ++r) {
    t.total_s = std::max(t.total_s, ms_between(enter_ns, ready[r]) / 1e3);
    t.cluster_start_ms = std::max(t.cluster_start_ms, ms_between(enter_ns, body[r]));
    t.mesh_build_ms = std::max(t.mesh_build_ms, ms_between(body[r], mesh[r]));
    t.construct_ms = std::max(t.construct_ms, ms_between(mesh[r], engine[r]));
  }
  return t;
}

SetupTimes median_setup(const std::vector<SetupTimes>& samples) {
  std::vector<double> total, start, mesh, construct;
  for (const SetupTimes& s : samples) {
    total.push_back(s.total_s);
    start.push_back(s.cluster_start_ms);
    mesh.push_back(s.mesh_build_ms);
    construct.push_back(s.construct_ms);
  }
  return SetupTimes{median(total), median(start), median(mesh), median(construct)};
}

// -- attribution -----------------------------------------------------------------

namespace {

struct Node {
  std::string layer;
  std::string key;  // "cat/name" for program spans, empty for driver spans
  bool step = false;
  bool driver = false;
  std::uint64_t wb = 0, we = 0;
  double sb = 0, se = 0;
  double mnk = 0;
};

double arg_number(const obs::SpanRecord& s, const char* key) {
  for (const auto& [k, v] : s.args) {
    if (k == key && v.is_number()) return v.as_number();
  }
  return 0;
}

Attribution attribute(const SpanLog& log, const std::vector<obs::SpanRecord>& program_spans) {
  Attribution a;
  for (std::size_t r = 0; r < log.ranks().size(); ++r) {
    std::vector<Node> nodes;
    for (const DriverSpan& d : log.ranks()[r]) {
      Node n;
      n.layer = d.layer;
      n.step = n.layer == "step";
      n.driver = true;
      n.wb = d.wall_begin;
      n.we = d.wall_end;
      n.sb = d.sim_begin;
      n.se = d.sim_end;
      nodes.push_back(std::move(n));
    }
    for (const obs::SpanRecord& s : program_spans) {
      if (s.rank != static_cast<int>(r) || s.lane >= 0 || s.cat == "cluster") continue;
      Node n;
      n.layer = s.cat;
      n.key = s.cat + "/" + s.name;
      n.wb = s.wall_begin_ns;
      n.we = s.wall_end_ns;
      n.sb = s.sim_begin;
      n.se = s.sim_end;
      if (n.key == "kernel/gemm") {
        n.mnk = arg_number(s, "m") * arg_number(s, "n") * arg_number(s, "k");
      }
      nodes.push_back(std::move(n));
    }
    // Parents sort before their children: earlier begin, then later end, then
    // over one interval a step before other driver spans before program spans.
    const auto order = [](const Node& n) { return n.step ? 0 : n.driver ? 1 : 2; };
    std::stable_sort(nodes.begin(), nodes.end(), [&](const Node& x, const Node& y) {
      if (x.wb != y.wb) return x.wb < y.wb;
      if (x.we != y.we) return x.we > y.we;
      return order(x) < order(y);
    });
    std::vector<double> self_wall(nodes.size()), self_sim(nodes.size());
    std::vector<long> step_of(nodes.size(), -1);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const Node& n = nodes[i];
      while (!stack.empty() &&
             !(n.wb >= nodes[stack.back()].wb && n.we <= nodes[stack.back()].we)) {
        stack.pop_back();
      }
      const long parent = stack.empty() ? -1 : static_cast<long>(stack.back());
      stack.push_back(i);
      step_of[i] = n.step ? static_cast<long>(i) : (parent >= 0 ? step_of[parent] : -1);
      if (step_of[i] < 0) continue;
      const double wall = ms_between(n.wb, n.we);
      const double sim = (n.se - n.sb) * 1e3;
      self_wall[i] += wall;
      self_sim[i] += sim;
      if (!n.step) {
        self_wall[parent] -= wall;
        self_sim[parent] -= sim;
      }
      if (!n.key.empty()) a.span_counts[n.key] += 1;
      a.gemm_mnk += n.mnk;
      if (n.step) {
        a.steps += 1;
        a.step_wall_ms += wall;
        a.step_sim_ms += sim;
      }
      if (parent < 0 || nodes[parent].layer != n.layer) {
        LayerTime& lt = a.layers[n.layer];
        lt.wall_ms += wall;
        lt.sim_ms += sim;
        lt.calls += 1;
      }
    }
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (step_of[i] < 0) continue;
      LayerTime& lt = a.layers[nodes[i].layer];
      lt.self_wall_ms += self_wall[i];
      lt.self_sim_ms += self_sim[i];
    }
  }
  // Spans a kernel pool worker ran for a rank (e.g. per-head attention GEMMs
  // fanned out by parallel_for) sit on no rank's track. They count as work
  // done when they start inside a timed step; their time overlaps the rank's
  // own and stays with the layer that fanned them out.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> windows;
  for (const auto& rank : log.ranks()) {
    for (const DriverSpan& d : rank) {
      if (std::string_view(d.layer) == "step") windows.emplace_back(d.wall_begin, d.wall_end);
    }
  }
  for (const obs::SpanRecord& s : program_spans) {
    if (s.rank >= 0 || s.lane >= 0) continue;
    const bool inside = std::any_of(windows.begin(), windows.end(), [&](const auto& w) {
      return s.wall_begin_ns >= w.first && s.wall_begin_ns < w.second;
    });
    if (inside) a.span_counts[s.cat + "/" + s.name] += 1;
  }
  return a;
}

void report_layers(const Attribution& a, Outcome& out) {
  // Driver gaps between the calls it times are the step's own self time: the
  // part of the step no layer accounts for.
  constexpr double kWallTolerance = 0.05;
  constexpr double kSimTolerance = 1e-6;
  out.check(a.steps > 0, "traced run recorded no step spans");
  if (a.steps == 0) return;
  const double steps = static_cast<double>(a.steps);
  const double step_wall = a.step_wall_ms / steps;
  const double step_sim = a.step_sim_ms / steps;
  char line[160];
  out.notes.push_back("per-layer self time per step (mean over ranks and timed steps):");
  std::snprintf(line, sizeof(line), "  %-20s %12s %7s %12s %7s", "layer", "wall ms", "wall%",
                "sim ms", "sim%");
  out.notes.push_back(line);
  std::vector<std::pair<std::string, LayerTime>> rows(a.layers.begin(), a.layers.end());
  std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
    return x.second.self_wall_ms > y.second.self_wall_ms;
  });
  for (const auto& [name, lt] : rows) {
    const double w = lt.self_wall_ms / steps, s = lt.self_sim_ms / steps;
    std::snprintf(line, sizeof(line), "  %-20s %12.4f %6.1f%% %12.6f %6.1f%%",
                  name == "step" ? "(unattributed)" : name.c_str(), w,
                  step_wall > 0 ? 100 * w / step_wall : 0.0, s,
                  step_sim > 0 ? 100 * s / step_sim : 0.0);
    out.notes.push_back(line);
  }
  std::snprintf(line, sizeof(line), "  %-20s %12.4f %7s %12.6f", "step", step_wall, "", step_sim);
  out.notes.push_back(line);
  const auto it = a.layers.find("step");
  const double gap_wall = it == a.layers.end() ? 0 : it->second.self_wall_ms / steps;
  const double gap_sim = it == a.layers.end() ? 0 : it->second.self_sim_ms / steps;
  std::snprintf(line, sizeof(line),
                "  layers account for the step within %.1f%% wall (limit %.0f%%) and %.2g of "
                "sim (limit %.0g)",
                step_wall > 0 ? 100 * gap_wall / step_wall : 0.0, 100 * kWallTolerance,
                step_sim > 0 ? std::abs(gap_sim) / step_sim : 0.0, kSimTolerance);
  out.notes.push_back(line);
  out.check(gap_wall <= kWallTolerance * step_wall,
            "traced layers leave more than 5% of the step wall time unattributed");
  out.check(std::abs(gap_sim) <= kSimTolerance * step_sim + 1e-12,
            "traced layers do not account for the step's simulated time");
}

// -- collectives ----------------------------------------------------------------------

/// Wall time per call of a broadcast and an all-reduce on a fresh 4-rank
/// cluster, in microseconds (median of several timed batches).
struct CommProbe {
  double broadcast_us = 0;
  double allreduce_us = 0;
};

CommProbe probe_collectives(std::uint64_t broadcast_elems, std::uint64_t allreduce_elems) {
  constexpr int kWarmup = 50, kBatches = 7, kCalls = 200;
  std::vector<double> bcast_us, allreduce_us;
  oc::run_cluster(4, [&](oc::Context& ctx) {
    std::vector<float> a(std::max<std::uint64_t>(1, broadcast_elems), 1.0f);
    std::vector<float> b(std::max<std::uint64_t>(1, allreduce_elems), 1.0f);
    const auto n_a = static_cast<optimus::tensor::index_t>(a.size());
    const auto n_b = static_cast<optimus::tensor::index_t>(b.size());
    for (int i = 0; i < kWarmup; ++i) {
      ctx.world.broadcast(a.data(), n_a, 0);
      ctx.world.all_reduce(b.data(), n_b);
    }
    for (int batch = 0; batch < kBatches; ++batch) {
      const std::uint64_t t0 = obs::wall_now_ns();
      for (int i = 0; i < kCalls; ++i) ctx.world.broadcast(a.data(), n_a, 0);
      const std::uint64_t t1 = obs::wall_now_ns();
      for (int i = 0; i < kCalls; ++i) ctx.world.all_reduce(b.data(), n_b);
      const std::uint64_t t2 = obs::wall_now_ns();
      if (ctx.rank == 0) {
        bcast_us.push_back(ms_between(t0, t1) * 1e3 / kCalls);
        allreduce_us.push_back(ms_between(t1, t2) * 1e3 / kCalls);
      }
    }
  });
  return CommProbe{median(bcast_us), median(allreduce_us)};
}

/// The probe at the smallest broadcast and all-reduce payloads among the
/// traced spans; zero when the workload made no collective calls.
CommProbe probe_for(const std::vector<obs::SpanRecord>& program_spans) {
  double bcast = 0, allreduce = 0;
  const auto keep_min = [](double& slot, double v) {
    if (v > 0 && (slot == 0 || v < slot)) slot = v;
  };
  for (const obs::SpanRecord& s : program_spans) {
    if (s.cat != "comm") continue;
    if (s.name == "broadcast" || s.name == "ibroadcast") keep_min(bcast, arg_number(s, "bytes"));
    if (s.name == "allreduce") keep_min(allreduce, arg_number(s, "bytes"));
  }
  if (bcast == 0 && allreduce == 0) return CommProbe{};
  const auto elems = [](double bytes) {
    return static_cast<std::uint64_t>(bytes / sizeof(float));
  };
  return probe_collectives(elems(bcast), elems(allreduce));
}

obs::Json spans_json(const SpanLog& log) {
  obs::Json arr = obs::Json::array();
  for (std::size_t r = 0; r < log.ranks().size(); ++r) {
    for (const DriverSpan& d : log.ranks()[r]) {
      obs::Json j = obs::Json::object();
      j.set("rank", static_cast<std::uint64_t>(r));
      j.set("layer", d.layer);
      j.set("wall_begin_ns", d.wall_begin);
      j.set("wall_end_ns", d.wall_end);
      j.set("sim_begin_s", d.sim_begin);
      j.set("sim_end_s", d.sim_end);
      arr.push_back(std::move(j));
    }
  }
  return arr;
}

}  // namespace

RankDelta rank_snapshot(oc::Context& ctx) {
  RankDelta d;
  d.stats = ctx.world.stats();
  d.util = ctx.clock.util();
  d.sim_s = obs::sim_now();
  d.mults = ctx.device.mults_total();
  return d;
}

namespace {

oc::CommStats::Op op_minus(const oc::CommStats::Op& x, const oc::CommStats::Op& y) {
  oc::CommStats::Op d;
  d.calls = x.calls - y.calls;
  d.elems = x.elems - y.elems;
  d.bytes = x.bytes - y.bytes;
  d.weighted = x.weighted - y.weighted;
  d.time = x.time - y.time;
  return d;
}

}  // namespace

RankDelta operator-(const RankDelta& end, const RankDelta& begin) {
  RankDelta d;
  d.stats.broadcast = op_minus(end.stats.broadcast, begin.stats.broadcast);
  d.stats.reduce = op_minus(end.stats.reduce, begin.stats.reduce);
  d.stats.allreduce = op_minus(end.stats.allreduce, begin.stats.allreduce);
  d.stats.allgather = op_minus(end.stats.allgather, begin.stats.allgather);
  d.stats.reducescatter = op_minus(end.stats.reducescatter, begin.stats.reducescatter);
  d.stats.alltoall = op_minus(end.stats.alltoall, begin.stats.alltoall);
  d.stats.barrier = op_minus(end.stats.barrier, begin.stats.barrier);
  d.stats.p2p_messages = end.stats.p2p_messages - begin.stats.p2p_messages;
  d.stats.p2p_bytes = end.stats.p2p_bytes - begin.stats.p2p_bytes;
  d.stats.p2p_time = end.stats.p2p_time - begin.stats.p2p_time;
  d.util.compute = end.util.compute - begin.util.compute;
  d.util.align_wait = end.util.align_wait - begin.util.align_wait;
  d.util.transfer = end.util.transfer - begin.util.transfer;
  d.util.idle = end.util.idle - begin.util.idle;
  d.sim_s = end.sim_s - begin.sim_s;
  d.mults = end.mults - begin.mults;
  return d;
}

namespace {

void add_program_metrics(Outcome& out, const Attribution& a, const std::vector<RankDelta>& deltas,
                         std::uint64_t steps, const oc::Cluster::Report& report) {
  const double ranks = static_cast<double>(deltas.size());
  // Span-derived values: per timed step; times are means over ranks, counts
  // are totals over the cluster.
  const double rank_steps = std::max<double>(1, static_cast<double>(a.steps));
  const double cluster_steps = rank_steps / ranks;
  const auto layer = [&](const char* name) {
    const auto it = a.layers.find(name);
    return it == a.layers.end() ? LayerTime{} : it->second;
  };
  const auto count = [&](const std::string& key) {
    const auto it = a.span_counts.find(key);
    return it == a.span_counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  const LayerTime kernel = layer("kernel"), comm = layer("comm"), summa = layer("summa");
  out.set("kernel.gemm_calls", count("kernel/gemm") / cluster_steps, "count");
  out.set("kernel.gemm_wall_ms", kernel.wall_ms / rank_steps, "ms");
  out.set("kernel.gemm_gflops", kernel.wall_ms > 0 ? 2 * a.gemm_mnk / (kernel.wall_ms * 1e6) : 0,
          "GFLOP/s");
  out.set("comm.wall_ms", comm.wall_ms / rank_steps, "ms");
  out.set("comm.wall_us_per_call", comm.calls > 0 ? comm.wall_ms * 1e3 / comm.calls : 0, "us");
  double summa_ops = 0;
  for (const auto& [key, n] : a.span_counts) {
    if (key.rfind("summa/", 0) == 0 && key != "summa/k_step") summa_ops += static_cast<double>(n);
  }
  out.set("summa.calls", summa_ops / cluster_steps, "count");
  out.set("summa.k_steps", count("summa/k_step") / cluster_steps, "count");
  out.set("summa.wall_ms", summa.wall_ms / rank_steps, "ms");
  out.set("summa.sim_ms", summa.sim_ms / rank_steps, "ms");

  // Counter deltas: exact, over every traced step (warm-up included).
  const double n = static_cast<double>(std::max<std::uint64_t>(1, steps));
  double mults = 0, align = 0, transfer = 0, sim = 0, comm_time = 0;
  double calls[3] = {0, 0, 0}, bytes[3] = {0, 0, 0};
  for (const RankDelta& d : deltas) {
    mults += static_cast<double>(d.mults);
    align += d.util.align_wait;
    transfer += d.util.transfer;
    sim += d.sim_s;
    comm_time += d.stats.total_time();
    const oc::CommStats::Op* ops[3] = {&d.stats.broadcast, &d.stats.reduce, &d.stats.allreduce};
    for (int k = 0; k < 3; ++k) {
      calls[k] += static_cast<double>(ops[k]->calls);
      bytes[k] += static_cast<double>(ops[k]->bytes);
    }
  }
  out.set("kernel.mults", mults / n, "count");
  const char* kinds[3] = {"broadcast", "reduce", "allreduce"};
  for (int k = 0; k < 3; ++k) {
    out.set(std::string("comm.") + kinds[k] + "_calls", calls[k] / n, "count");
    out.set(std::string("comm.") + kinds[k] + "_bytes", bytes[k] / n, "B");
  }
  out.set("comm.sim_exposed_ms", (align + transfer) * 1e3 / (n * ranks), "ms");
  out.set("comm.sim_align_wait_frac", sim > 0 ? align / sim : 0, "ratio");
  out.set("comm.sim_transfer_frac", sim > 0 ? transfer / sim : 0, "ratio");
  out.set("comm.sim_hidden_frac",
          comm_time > 0 ? std::max(0.0, comm_time - transfer) / comm_time : 0, "ratio");

  double allocs = 0, live = 0;
  for (const auto& rr : report.ranks) {
    allocs += static_cast<double>(rr.alloc_count);
    live += static_cast<double>(rr.live_bytes);
  }
  out.set("tensor.alloc_count", allocs, "count");
  out.set("tensor.live_bytes_end", live, "B");
}

}  // namespace

double layer_ms(const Attribution& a, const char* layer, bool sim) {
  const auto it = a.layers.find(layer);
  if (it == a.layers.end() || a.steps == 0) return 0;
  return (sim ? it->second.sim_ms : it->second.wall_ms) / static_cast<double>(a.steps);
}

void start_tracing() {
  obs::reset();
  obs::set_enabled(true);
}

Capture stop_tracing(const oc::Cluster::Report* report) {
  Capture c;
  c.spans = obs::snapshot();
  c.chrome_bytes = obs::chrome_trace_json().dump().size();
  if (report) {
    oc::MetricsReportOptions opts;
    opts.include_pool = false;
    opts.include_registry = false;
    c.program = oc::metrics_json(*report, opts);
  }
  obs::set_enabled(false);
  obs::reset();
  return c;
}

Attribution report_traced(Outcome& out, const SpanLog& log, const Capture& capture,
                          const oc::Cluster::Report& report, const std::vector<RankDelta>& deltas,
                          std::uint64_t steps, const std::vector<double>& traced_ms,
                          const std::vector<double>& untraced_ms) {
  Attribution a = attribute(log, capture.spans);
  report_layers(a, out);
  add_program_metrics(out, a, deltas, steps, report);
  out.set("obs.trace_overhead_x", median(traced_ms) / median(untraced_ms), "x");
  out.set("obs.trace_events", static_cast<double>(capture.spans.size()), "count");
  out.set("obs.trace_mb", static_cast<double>(capture.chrome_bytes) / 1e6, "MB");
  const CommProbe probe = probe_for(capture.spans);
  out.set("comm.probe_broadcast_us", probe.broadcast_us, "us");
  out.set("comm.probe_allreduce_us", probe.allreduce_us, "us");
  out.trace_doc.set("program", capture.program);
  out.trace_doc.set("driver_spans", spans_json(log));
  return a;
}

void add_pool_metrics(Outcome& out, const oc::Cluster::Report& report, std::uint64_t steps) {
  oc::MetricsReportOptions opts;
  opts.include_spans = false;
  opts.include_registry = false;
  const obs::Json pool = oc::metrics_json(report, opts).get("pool");
  const double n = static_cast<double>(std::max<std::uint64_t>(1, steps));
  out.set("kernel.pool_parks", pool.get("parks").as_number() / n, "count");
  out.set("kernel.pool_barrier_crossings", pool.get("barrier_crossings").as_number() / n, "count");
  out.set("kernel.pool_avg_region_wait_us", pool.get("avg_region_wait_ms").as_number() * 1e3, "us");
  out.set("kernel.pool_worker_share", pool.get("worker_share").as_number(), "ratio");
}

}  // namespace perfbench
