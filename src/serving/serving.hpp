#pragma once

// The serving loop: continuous batching over a DecodeEngine.
//
// ServingSession wires the scheduler to an engine step by step;
// run_serving() is the convenience loop that also handles idle time (the
// open-loop clock jumps to the next arrival when no request is in flight)
// and fault capture. On an injected fabric fault the whole simulated cluster
// aborts — every rank unwinds with FaultError (the detector) or
// FabricAborted (its peers). The driver converts that into a recoverable
// outcome: committed progress survives in the returned request states, the
// in-flight requests are evicted (cache cursors rewound), and a fresh
// engine/cluster can resume via the `resume` argument. Determinism of decode
// guarantees the resumed run reproduces the identical tokens.

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "comm/fabric.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serving/engines.hpp"
#include "serving/scheduler.hpp"

namespace optimus::serving {

template <typename T>
class ServingSession {
 public:
  enum class Step { kStepped, kIdle, kDone };

  ServingSession(DecodeEngine<T>& engine, std::vector<Request> requests)
      : engine_(&engine), sched_(engine.slots(), engine.capacity()) {
    for (auto& r : requests) sched_.submit(std::move(r));
  }

  /// One admit+decode cycle. `now` reads the simulated clock (called before
  /// and after the engine step). kIdle means no request had arrived by now()
  /// — the caller should advance its clock to scheduler().next_arrival().
  Step step(const std::function<double()>& now) {
    if (sched_.finished()) return Step::kDone;
    const double t = now();
    if (!sched_.admit(t)) return Step::kIdle;
    const std::size_t backlog = sched_.arrived_queued(t);
    queue_depth_sum_ += static_cast<double>(backlog);
    max_queue_depth_ = std::max(max_queue_depth_, backlog);
    sched_.plan_step(tokens_, active_);
    // Lane membership must be captured before the step: commit_step advances
    // each request's cursor (and may retire it), losing which phase this
    // step was for it. Only the lead rank emits lane spans (the schedule is
    // identical on every rank).
    const bool lead = obs::current_rank() <= 0;
    step_lanes_.clear();
    if (obs::enabled() && lead) {
      for (tensor::index_t s = 0; s < sched_.slots(); ++s) {
        if (!active_[static_cast<std::size_t>(s)]) continue;
        const Request* r = sched_.request_in_slot(s);
        // Every step feeds forced[fed]. Only an evicted request re-feeding a
        // token whose successor is already known does wasted (replay) work;
        // otherwise the step is prefill while the prompt is being fed, and a
        // decode once it feeds the newest generated token.
        const bool replay = r->evictions > 0 && r->fed + 1 < r->forced_size();
        const char* phase = replay                        ? "replay_step"
                            : r->fed < r->prompt.size()   ? "prefill_step"
                                                          : "decode_step";
        step_lanes_.emplace_back(r->id, phase);
      }
    }
    if (obs::flight_enabled()) {
      obs::flight_note("serving", "decode_step", t,
                       "batch=" + std::to_string(sched_.active_count()));
    }
    std::vector<std::int32_t> out;
    {
      obs::Span dspan("serving", "decode_step");
      if (dspan.armed()) dspan.arg("batch", static_cast<std::uint64_t>(sched_.active_count()));
      out = engine_->step(tokens_, active_);
    }
    ++decode_steps_;
    const double t1 = now();
    if (lead) {
      for (const auto& [lane, phase] : step_lanes_) {
        obs::record_lane_span("request", phase, lane, /*depth=*/1, t, t1);
      }
      obs::metrics_observe("serving.decode_step_s", t1 - t);
      obs::metrics_count("serving.decode_steps");
      obs::metrics_gauge_max("serving.max_batch", static_cast<double>(sched_.active_count()));
    }
    for (const tensor::index_t slot : sched_.commit_step(out, t1)) {
      engine_->reset_slot(slot);
    }
    return sched_.finished() ? Step::kDone : Step::kStepped;
  }

  ContinuousBatchScheduler& scheduler() { return sched_; }
  DecodeEngine<T>& engine() { return *engine_; }
  std::uint64_t decode_steps() const { return decode_steps_; }

  ServingMetrics metrics() const {
    ServingMetrics m;
    m.decode_steps = decode_steps_;
    const std::vector<Request>& done = sched_.completed();
    m.completed = done.size();
    if (done.empty()) return m;
    std::vector<double> lat, ftl;
    double t0 = done.front().arrival, t1 = 0;
    for (const Request& r : done) {
      m.generated_tokens += r.generated.size();
      lat.push_back(r.finish - r.arrival);
      ftl.push_back(r.first_token - r.arrival);
      t0 = std::min(t0, r.arrival);
      t1 = std::max(t1, r.finish);
    }
    m.span = t1 - t0;
    m.tokens_per_s = m.span > 0 ? static_cast<double>(m.generated_tokens) / m.span : 0;
    m.p50_latency = percentile(lat, 0.50);
    m.p99_latency = percentile(lat, 0.99);
    m.p999_latency = percentile(lat, 0.999);
    m.p50_first_token = percentile(ftl, 0.50);
    m.p99_first_token = percentile(ftl, 0.99);
    m.mean_queue_depth =
        decode_steps_ > 0 ? queue_depth_sum_ / static_cast<double>(decode_steps_) : 0;
    m.max_queue_depth = max_queue_depth_;
    return m;
  }

  static double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t idx = std::min(
        v.size() - 1, static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size()))) -
                          (p > 0 ? 1 : 0));
    return v[idx];
  }

 private:
  DecodeEngine<T>* engine_;
  ContinuousBatchScheduler sched_;
  std::vector<std::int32_t> tokens_;
  std::vector<std::uint8_t> active_;
  std::vector<std::pair<int, const char*>> step_lanes_;  // (request id, phase)
  std::uint64_t decode_steps_ = 0;
  double queue_depth_sum_ = 0;
  std::size_t max_queue_depth_ = 0;
};

struct ServingOutcome {
  bool aborted = false;
  std::string fault_what;  // FaultError message (detecting rank only)
  std::vector<Request> completed;
  std::vector<Request> unfinished;  // progress preserved; resubmit to resume
  ServingMetrics metrics;
  std::uint64_t cache_bytes = 0;
};

/// Runs the loop to completion (or abort). `clock_now` reads this rank's
/// simulated clock; `advance_to` jumps it forward during idle gaps (open-loop
/// arrivals). Pass `resume` = a previous outcome's `unfinished` to continue
/// an aborted run on a fresh engine.
template <typename T>
ServingOutcome run_serving(DecodeEngine<T>& engine, std::vector<Request> requests,
                           const std::function<double()>& clock_now,
                           const std::function<void(double)>& advance_to) {
  ServingOutcome oc;
  oc.cache_bytes = engine.cache_bytes();
  ServingSession<T> session(engine, std::move(requests));
  try {
    for (;;) {
      const auto s = session.step(clock_now);
      if (s == ServingSession<T>::Step::kDone) break;
      if (s == ServingSession<T>::Step::kIdle) {
        const double next = session.scheduler().next_arrival();
        OPT_CHECK(std::isfinite(next), "idle with nothing queued");
        advance_to(next);
      }
    }
  } catch (const comm::FaultError& e) {
    obs::flight_write_postmortem();
    oc.aborted = true;
    oc.fault_what = e.what();
  } catch (const comm::FabricAborted&) {
    obs::flight_write_postmortem();
    oc.aborted = true;  // peer of the detecting rank; fabric is gone
  }
  oc.metrics = session.metrics();
  oc.completed = session.scheduler().completed();
  oc.unfinished = session.scheduler().drain_unfinished();
  return oc;
}

}  // namespace optimus::serving
