#pragma once

// Metrics export: turns a Cluster::Report (plus the process-wide kernel pool
// counters and the tracer's span summary) into one JSON document.
//
// Layout:
//
//   {
//     "world_size": p,
//     "ranks": [ { "rank": r, "sim_time_s": …, "mults": …, "peak_bytes": …,
//                  "alloc_count": …, "comm": { "broadcast": {calls, elems,
//                  bytes, weighted, time_s}, …, "p2p": {…} },
//                  "utilization": { compute_s, align_wait_s, transfer_s,
//                  idle_s, *_frac, accounted_s } }, … ],
//     "totals": { "bytes_by_kind": {…}, "max_sim_time_s": …, … },
//     "pool": { regions, inline_regions, chunks, worker_chunks, worker_share,
//               aggregate_submit_wait_ms, avg_region_wait_ms,
//               barrier_crossings, parks, workers_spawned,
//               fabric_spin_hits: [per rank], fabric_parks: [per rank] },
//
// aggregate_submit_wait_ms sums submitter wait across *concurrent* device
// threads, so with p simulated devices it can exceed wall time by up to p×;
// avg_region_wait_ms (aggregate / regions) is the wall-comparable figure.
// fabric_spin_hits / fabric_parks count each rank's fabric waits (recv and
// collective rendezvous) that finished while spinning vs. parked on a condvar
// (Fabric::wait_stats); like the pool counters they are wall-clock outcomes. The
// per-rank "utilization" fractions have no such caveat: they partition one
// rank's simulated timeline (compute + align_wait + transfer + idle ≈
// sim_time_s), so each fraction is ≤ 1.
//     "spans": { "cat/name": {count, sim_total_s, sim_max_s, wall_total_ms} },
//     "metrics": { "name": {type, value | count/min/max/p50/p99/p999/buckets} }
//   }
//
// The "spans" section is present only when tracing was enabled for the run;
// "metrics" (the process metrics registry) only when metrics collection was.
// This lives in comm (not obs) because it reads Cluster::Report; obs stays
// dependency-free below util.

#include <string>

#include "comm/cluster.hpp"
#include "obs/json.hpp"

namespace optimus::comm {

/// Section toggles for metrics_json(). The pool section is wall-clock-derived
/// (submit waits, parks) and therefore not byte-reproducible across runs —
/// exclude it when the output will be diffed for determinism.
struct MetricsReportOptions {
  bool include_spans = true;     // tracer span summary (needs tracing enabled)
  bool include_pool = true;      // kernel thread-pool counters (wall-based)
  bool include_registry = true;  // process metrics registry (needs metrics on)
};

/// Builds the metrics document for `report`.
obs::Json metrics_json(const Cluster::Report& report, const MetricsReportOptions& options);

/// Back-compat convenience: all sections, spans gated by `include_spans`.
obs::Json metrics_json(const Cluster::Report& report, bool include_spans = true);

/// Serialises metrics_json() to `path` (pretty-printed).
void write_metrics(const std::string& path, const Cluster::Report& report,
                   bool include_spans = true);

/// Serialises with explicit section toggles.
void write_metrics(const std::string& path, const Cluster::Report& report,
                   const MetricsReportOptions& options);

}  // namespace optimus::comm
