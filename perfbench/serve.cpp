// Serving workload: Optimus KV-cached continuous batching on the 2×2 mesh
// under a seeded Poisson open loop on the simulated clock.

#include <algorithm>
#include <exception>

#include "core/optimus_model.hpp"
#include "kernel/thread_pool.hpp"
#include "mesh/mesh.hpp"
#include "serving/serving.hpp"
#include "serving/traffic.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace oc = optimus::comm;
namespace os = optimus::serving;
using optimus::tensor::index_t;

namespace {

/// The Optimus decode engine with the driver's counters around it: slot-steps
/// fed, and those that replay tokens already fed before an eviction (work
/// done twice). With a span buffer, each engine step is a "core.decode" span.
class ObservedEngine final : public os::DecodeEngine<float> {
 public:
  ObservedEngine(optimus::core::OptimusTransformer<float>& model, index_t slots)
      : inner_(model, slots) {}

  void watch(const os::ContinuousBatchScheduler* sched, std::vector<DriverSpan>* buf) {
    sched_ = sched;
    buf_ = buf;
  }

  index_t slots() const override { return inner_.slots(); }
  index_t capacity() const override { return inner_.capacity(); }
  index_t vocab() const override { return inner_.vocab(); }
  std::uint64_t cache_bytes() const override { return inner_.cache_bytes(); }
  void reset_slot(index_t slot) override { inner_.reset_slot(slot); }
  index_t slot_len(index_t slot) const override { return inner_.slot_len(slot); }

  std::vector<std::int32_t> step(const std::vector<std::int32_t>& tokens,
                                 const std::vector<std::uint8_t>& active) override {
    for (index_t s = 0; s < static_cast<index_t>(active.size()); ++s) {
      if (!active[static_cast<std::size_t>(s)]) continue;
      slot_steps += 1;
      const os::Request* r = sched_->request_in_slot(s);
      if (r->evictions > 0 && r->fed + 1 < r->forced_size()) replay_steps += 1;
    }
    Scope span(buf_, "core.decode");
    return inner_.step(tokens, active);
  }

  std::uint64_t slot_steps = 0;
  std::uint64_t replay_steps = 0;

 private:
  os::OptimusDecodeEngine<float> inner_;
  const os::ContinuousBatchScheduler* sched_ = nullptr;
  std::vector<DriverSpan>* buf_ = nullptr;
};

/// Everything one cluster launch produced (serving figures from rank 0).
struct Trial {
  os::ServingMetrics metrics;
  std::vector<os::Request> completed;
  bool aborted = false;
  std::uint64_t slot_steps = 0, replay_steps = 0, cache_bytes = 0;
  std::vector<double> step_wall_ms;  // decode steps, rank 0
  std::vector<double> step_sim_s;    // decode steps, max over ranks
  double serve_wall_s = 0;           // rank 0, first to last step
  SetupTimes setup;
  std::vector<RankDelta> deltas;
  oc::Cluster::Report report;
  std::string error;
};

Trial launch(const ServeSpec& spec, const std::vector<os::Request>& requests, bool setup_only,
             SpanLog* log) {
  constexpr int kRanks = 4;
  Trial t;
  SetupStamps stamps(kRanks);
  std::vector<std::vector<double>> sims(kRanks);
  t.deltas.resize(kRanks);
  const std::uint64_t enter = obs::wall_now_ns();
  try {
    t.report = oc::run_cluster(kRanks, [&](oc::Context& ctx) {
      const int r = ctx.rank;
      stamps.body[r] = obs::wall_now_ns();
      optimus::mesh::Mesh2D mesh(ctx.world);
      stamps.mesh[r] = obs::wall_now_ns();
      optimus::core::OptimusTransformer<float> model(spec.cfg, mesh);
      ObservedEngine engine(model, spec.slots);
      stamps.engine[r] = stamps.ready[r] = obs::wall_now_ns();
      if (setup_only) return;

      std::vector<DriverSpan>* buf = log ? log->rank(r) : nullptr;
      os::ServingSession<float> session(engine, requests);
      engine.watch(&session.scheduler(), buf);
      const RankDelta before = rank_snapshot(ctx);
      const auto now = [&] { return ctx.clock.now(); };
      const std::uint64_t serve_begin = obs::wall_now_ns();
      bool aborted = false;
      try {
        for (;;) {
          const std::uint64_t decoded = session.decode_steps();
          DriverSpan span;
          span.wall_begin = obs::wall_now_ns();
          span.sim_begin = obs::sim_now();
          const auto state = session.step(now);
          span.wall_end = obs::wall_now_ns();
          span.sim_end = obs::sim_now();
          if (session.decode_steps() > decoded) {
            sims[r].push_back(span.sim_end - span.sim_begin);
            if (r == 0) t.step_wall_ms.push_back(ms_between(span.wall_begin, span.wall_end));
            if (buf) {
              span.layer = "step";
              buf->push_back(span);
              span.layer = "serving";
              buf->push_back(span);
            }
          }
          if (state == os::ServingSession<float>::Step::kDone) break;
          if (state == os::ServingSession<float>::Step::kIdle) {
            ctx.clock.set(session.scheduler().next_arrival());
          }
        }
      } catch (const oc::FaultError&) {
        aborted = true;
      } catch (const oc::FabricAborted&) {
        aborted = true;
      }
      const std::uint64_t serve_end = obs::wall_now_ns();
      t.deltas[r] = rank_snapshot(ctx) - before;
      if (r == 0) {
        t.aborted = aborted;
        t.metrics = session.metrics();
        t.completed = session.scheduler().completed();
        t.slot_steps = engine.slot_steps;
        t.replay_steps = engine.replay_steps;
        t.cache_bytes = engine.cache_bytes();
        t.serve_wall_s = ms_between(serve_begin, serve_end) / 1e3;
      }
    });
  } catch (const std::exception& e) {
    t.error = e.what();
    return t;
  }
  t.setup = stamps.times(enter);
  if (!setup_only) {
    t.step_sim_s = sims[0];
    for (int r = 1; r < kRanks; ++r) {
      if (sims[r].size() != t.step_sim_s.size()) continue;
      for (std::size_t i = 0; i < sims[r].size(); ++i) {
        t.step_sim_s[i] = std::max(t.step_sim_s[i], sims[r][i]);
      }
    }
  }
  std::sort(t.completed.begin(), t.completed.end(),
            [](const os::Request& a, const os::Request& b) { return a.id < b.id; });
  return t;
}

/// Generated tokens of every completed request in id order, one -1 between
/// requests.
std::vector<std::int32_t> token_stream(const std::vector<os::Request>& completed) {
  std::vector<std::int32_t> out;
  for (const os::Request& r : completed) {
    out.insert(out.end(), r.generated.begin(), r.generated.end());
    out.push_back(-1);
  }
  return out;
}

os::TrafficConfig traffic(const ServeSpec& spec, double rate, std::size_t count,
                          std::uint64_t seed) {
  os::TrafficConfig tc;
  tc.rate = rate;
  tc.count = count;
  tc.prompt_min = 2;
  tc.prompt_max = 6;
  tc.output_min = 4;
  tc.output_max = 16;
  tc.vocab = spec.cfg.vocab;
  tc.capacity = spec.cfg.seq_len;
  tc.seed = seed;
  return tc;
}

/// The seeded Poisson trace, with arrival times scaled so its realised rate is
/// exactly the offered rate: the seed varies the arrival pattern and the
/// request lengths but not the load, which otherwise moves by a few percent
/// between seeds at 1000 requests.
std::vector<os::Request> open_loop(const ServeSpec& spec, double rate, std::size_t count,
                                   std::uint64_t seed) {
  std::vector<os::Request> requests = os::poisson_open_loop(traffic(spec, rate, count, seed));
  const double scale = static_cast<double>(count) / rate / requests.back().arrival;
  for (os::Request& r : requests) r.arrival *= scale;
  return requests;
}

std::uint64_t failed_requests(const Trial& t, std::size_t submitted) {
  if (!t.error.empty() || t.aborted) return submitted;
  return submitted - std::min(submitted, t.completed.size());
}

/// True when the offered rate is served with the p99 latency within the limit
/// and no growing backlog: the last request finishes within the limit of the
/// last arrival.
bool meets_limit(const Trial& t, const std::vector<os::Request>& requests, double limit_s) {
  if (!t.error.empty() || t.aborted || t.completed.size() != requests.size()) return false;
  double last_finish = 0;
  for (const os::Request& r : t.completed) last_finish = std::max(last_finish, r.finish);
  return t.metrics.p99_latency <= limit_s && last_finish - requests.back().arrival <= limit_s;
}

}  // namespace

Outcome run_serve(const Args& args, const ServeSpec& spec) {
  Outcome out;
  // Inputs: the whole request trace, made from the seed before anything is
  // timed; every rank and launch reads this one copy. Arrivals are simulated,
  // so the generator is never late.
  const std::vector<os::Request> requests = open_loop(spec, spec.rate, spec.requests, args.seed);

  std::vector<SetupTimes> setups;
  for (int i = 0; i < kSetupLaunches; ++i) {
    const Trial t = launch(spec, requests, true, nullptr);
    out.check(t.error.empty(), "set-up launch failed: " + t.error);
    setups.push_back(t.setup);
  }

  optimus::kernel::reset_pool_stats();
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const std::uint64_t start = obs::wall_now_ns();
  const auto elapsed = [&] { return ms_between(start, obs::wall_now_ns()) / 1e3; };
  Trial first;
  std::vector<double> walls, throughput;
  std::uint64_t untraced_steps = 0;
  oc::Cluster::Report last_report;
  for (int trial = 0; trial == 0 || (elapsed() < budget && elapsed() < kMaxSeconds); ++trial) {
    Trial t = launch(spec, requests, false, nullptr);
    out.attempted += requests.size();
    out.failed += failed_requests(t, requests.size());
    if (!t.error.empty()) {
      out.check(false, "serving launch failed: " + t.error);
      break;
    }
    out.check(!t.aborted, "serving run aborted");
    out.check(t.completed.size() == requests.size(), "not every request completed");
    untraced_steps += t.metrics.decode_steps;
    setups.push_back(t.setup);
    walls.insert(walls.end(), t.step_wall_ms.begin(), t.step_wall_ms.end());
    throughput.push_back(static_cast<double>(t.metrics.generated_tokens) / t.serve_wall_s);
    last_report = t.report;
    if (trial == 0) {
      first = std::move(t);
      continue;
    }
    out.check(token_stream(t.completed) == token_stream(first.completed),
              "generated tokens differ between trials of one run");
    out.check(t.step_sim_s == first.step_sim_s &&
                  t.metrics.p99_latency == first.metrics.p99_latency,
              "simulated serving times differ between trials");
  }
  if (first.completed.empty()) return out;
  const std::vector<std::int32_t> tokens = token_stream(first.completed);
  out.digests["generated_tokens"] = digest(tokens);

  double sim_busy = 0;
  for (const double s : first.step_sim_s) sim_busy += s;
  const os::ServingMetrics& m = first.metrics;
  const SetupTimes setup = median_setup(setups);
  out.set("setup_s", setup.total_s, "s");
  out.set("wall_tokens_per_s", median(throughput), "tok/s");
  out.set("step_wall_ms_p50", quantile(walls, 0.50), "ms");
  out.set("step_wall_ms_p90", quantile(walls, 0.90), "ms");
  out.set("rss_peak_mb", rss_peak_mb(), "MB");
  out.set("sim_tokens_per_s", static_cast<double>(m.generated_tokens) / sim_busy, "tok/s");
  out.set("peak_mem_mb", static_cast<double>(first.report.max_peak_bytes()) / 1e6, "MB");
  out.notes.push_back(std::to_string(requests.size()) + " requests at " +
                      std::to_string(spec.rate) + " req/s (simulated open loop; generator "
                      "lateness is 0 by construction), " + std::to_string(m.decode_steps) +
                      " decode steps, " + std::to_string(walls.size()) + " timed steps in " +
                      std::to_string(throughput.size()) + " trials");

  if (!args.trace) return out;

  // Traced run: the first requests of the same trace (per-request decode is
  // independent of batch composition, so their tokens must match).
  const std::vector<os::Request> prefix(requests.begin(),
                                        requests.begin() + static_cast<std::ptrdiff_t>(
                                                               spec.traced_requests));
  start_tracing();
  SpanLog log(4);
  const Trial traced = launch(spec, prefix, false, &log);
  const Capture capture = stop_tracing(traced.error.empty() ? &traced.report : nullptr);
  out.attempted += prefix.size();
  out.failed += failed_requests(traced, prefix.size());
  if (!traced.error.empty()) {
    out.check(false, "traced launch failed: " + traced.error);
    return out;
  }
  const std::vector<os::Request> expected(
      first.completed.begin(),
      first.completed.begin() + static_cast<std::ptrdiff_t>(spec.traced_requests));
  out.check(token_stream(traced.completed) == token_stream(expected),
            "traced generated tokens differ from the untraced ones");

  const Attribution a = report_traced(out, log, capture, traced.report, traced.deltas,
                                      traced.metrics.decode_steps, traced.step_wall_ms, walls);
  add_pool_metrics(out, last_report, untraced_steps);
  out.set("core.decode_wall_ms", layer_ms(a, "core.decode", false), "ms");
  out.set("comm.cluster_start_ms", setup.cluster_start_ms, "ms");
  out.set("mesh.build_ms", setup.mesh_build_ms, "ms");
  out.set("core.construct_ms", setup.construct_ms, "ms");

  const double steps = static_cast<double>(m.decode_steps);
  out.set("serving.decode_steps", steps, "count");
  out.set("serving.decode_step_wall_ms_p50", quantile(walls, 0.5), "ms");
  out.set("serving.decode_step_sim_ms_p50", quantile(first.step_sim_s, 0.5) * 1e3, "ms");
  out.set("serving.mean_batch", static_cast<double>(first.slot_steps) / steps, "count");
  out.set("serving.slot_util", static_cast<double>(first.slot_steps) / (steps * spec.slots),
          "ratio");
  out.set("serving.replay_frac",
          static_cast<double>(first.replay_steps) / static_cast<double>(first.slot_steps), "ratio");
  out.set("serving.mean_queue_depth", m.mean_queue_depth, "count");
  out.set("serving.max_queue_depth", static_cast<double>(m.max_queue_depth), "count");
  out.set("serving.cache_bytes_per_rank", static_cast<double>(first.cache_bytes), "B");
  out.set("serve_sim_p50_latency_ms", m.p50_latency * 1e3, "ms");
  out.set("serve_sim_p99_latency_ms", m.p99_latency * 1e3, "ms");
  out.set("serve_sim_p99_ttft_ms", m.p99_first_token * 1e3, "ms");
  out.set("failed_frac", static_cast<double>(out.failed) / static_cast<double>(out.attempted),
          "ratio");

  // Highest rate on a fixed ladder (walked upwards, stopping at the first
  // miss) that meets the p99 latency limit without a growing backlog.
  double max_rate = 0;
  for (const double rate : spec.ladder) {
    const std::vector<os::Request> probe_requests =
        open_loop(spec, rate, spec.requests, args.seed);
    const Trial t = launch(spec, probe_requests, false, nullptr);
    const bool ok = meets_limit(t, probe_requests, spec.p99_limit_ms / 1e3);
    out.notes.push_back("  probe " + std::to_string(rate) + " req/s: p99 " +
                        std::to_string(t.metrics.p99_latency * 1e3) + " ms -> " +
                        (ok ? "meets" : "misses") + " the limit");
    if (!ok) break;
    max_rate = rate;
  }
  out.set("serve_sim_max_rate", max_rate, "req/s");
  return out;
}

}  // namespace perfbench
