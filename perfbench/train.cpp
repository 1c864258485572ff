// Training workloads: Optimus on the 2×2 mesh and the serial oracle on one
// device, both trained with Adam on periodic-pattern LM batches.

#include <cmath>
#include <exception>

#include "core/optimus_model.hpp"
#include "kernel/thread_pool.hpp"
#include "mesh/mesh.hpp"
#include "model/serial_model.hpp"
#include "runtime/data.hpp"
#include "runtime/optimizer.hpp"
#include "runtime/trainer.hpp"
#include "testing/equivalence.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace oc = optimus::comm;
namespace ort = optimus::runtime;

namespace {

constexpr double kLr = 3e-3;                 // Adam, constant
constexpr int kPeriod = 4;                   // PatternLmWorkload period
constexpr int kWarmup = 2;                   // untimed leading steps (first-touch allocation)
constexpr std::size_t kMinTimedSteps = 100;  // step_wall_ms_p90 needs ten beyond it
constexpr int kOracleSteps = 4;              // serial-oracle prefix checked on the 2D engine

/// Everything one cluster launch produced.
struct Trial {
  std::vector<double> losses;          // per step, rank 0
  bool ranks_agree = true;             // every rank computed the same losses
  std::vector<double> step_wall_ms;    // timed steps, rank 0
  std::vector<double> step_sim_s;      // every step, max over ranks
  SetupTimes setup;
  std::vector<RankDelta> deltas;       // per rank, over every step
  oc::Cluster::Report report;
  std::uint64_t workspace_hw = 0, forward_hw = 0, backward_hw = 0;  // rank max
  std::string error;
};

struct Names {
  const char* forward;
  const char* loss;
  const char* backward;
};

/// Launches the engine's cluster, builds the engine on every rank and, unless
/// `steps` is 0, trains on batches[0..steps). With a span log, the step is
/// taken apart into the calls runtime::lm_step makes, each in its own span.
Trial launch(const TrainSpec& spec, const std::vector<ort::LmBatch>& batches, int steps,
             SpanLog* log) {
  const int ranks = spec.serial ? 1 : 4;
  Trial t;
  SetupStamps stamps(ranks);
  std::vector<std::vector<double>> losses(ranks, std::vector<double>(steps));
  std::vector<std::vector<double>> sims(ranks, std::vector<double>(steps));
  t.deltas.resize(ranks);
  std::vector<std::uint64_t> hw(3 * ranks, 0);

  const auto train = [&](oc::Context& ctx, auto& engine, auto& opt, const Names& names) {
    const int r = ctx.rank;
    std::vector<DriverSpan>* buf = log ? log->rank(r) : nullptr;
    const RankDelta before = rank_snapshot(ctx);
    for (int i = 0; i < steps; ++i) {
      const ort::LmBatch& batch = batches[static_cast<std::size_t>(i)];
      const bool timed = i >= kWarmup;
      const std::uint64_t w0 = obs::wall_now_ns();
      const double s0 = obs::sim_now();
      double loss = 0;
      if (!buf) {
        loss = ort::lm_step(engine, opt, batch, kLr);
      } else {
        Scope step(buf, timed ? "step" : "warmup");
        {
          Scope s(buf, names.forward);
          engine.forward(batch.tokens);
        }
        {
          Scope s(buf, names.loss);
          loss = static_cast<double>(engine.lm_loss(batch.labels));
        }
        {
          Scope s(buf, names.backward);
          engine.zero_grads();
          engine.backward_lm();
        }
        {
          Scope s(buf, "runtime.optimizer");
          opt.step(engine.parameters(), engine.gradients(), kLr);
        }
      }
      const std::uint64_t w1 = obs::wall_now_ns();
      losses[r][i] = loss;
      sims[r][i] = obs::sim_now() - s0;
      if (r == 0 && timed) t.step_wall_ms.push_back(ms_between(w0, w1));
    }
    t.deltas[r] = rank_snapshot(ctx) - before;
  };

  const std::uint64_t enter = obs::wall_now_ns();
  try {
    if (spec.serial) {
      t.report = oc::run_cluster(1, [&](oc::Context& ctx) {
        stamps.body[0] = stamps.mesh[0] = obs::wall_now_ns();
        optimus::model::SerialTransformer<float> engine(spec.cfg);
        stamps.engine[0] = obs::wall_now_ns();
        ort::Adam<float> opt;
        stamps.ready[0] = obs::wall_now_ns();
        train(ctx, engine, opt, Names{"model.forward", "model.loss", "model.backward"});
      });
    } else {
      t.report = oc::run_cluster(4, [&](oc::Context& ctx) {
        const int r = ctx.rank;
        stamps.body[r] = obs::wall_now_ns();
        optimus::mesh::Mesh2D mesh(ctx.world);
        stamps.mesh[r] = obs::wall_now_ns();
        optimus::core::OptimusTransformer<float> engine(spec.cfg, mesh);
        stamps.engine[r] = obs::wall_now_ns();
        ort::Adam<float> opt;
        stamps.ready[r] = obs::wall_now_ns();
        train(ctx, engine, opt, Names{"core.forward", "core.loss", "core.backward"});
        hw[3 * r] = engine.workspace_high_water();
        hw[3 * r + 1] = engine.forward_high_water();
        hw[3 * r + 2] = engine.backward_high_water();
      });
    }
  } catch (const std::exception& e) {
    t.error = e.what();
    return t;
  }
  t.setup = stamps.times(enter);
  t.losses = losses[0];
  t.step_sim_s.assign(static_cast<std::size_t>(steps), 0.0);
  for (int r = 0; r < ranks; ++r) {
    t.ranks_agree = t.ranks_agree && losses[r] == losses[0];
    for (int i = 0; i < steps; ++i) t.step_sim_s[i] = std::max(t.step_sim_s[i], sims[r][i]);
  }
  for (int r = 0; r < ranks; ++r) {
    t.workspace_hw = std::max(t.workspace_hw, hw[3 * r]);
    t.forward_hw = std::max(t.forward_hw, hw[3 * r + 1]);
    t.backward_hw = std::max(t.backward_hw, hw[3 * r + 2]);
  }
  return t;
}

std::size_t failed_steps(const Trial& t, int steps) {
  if (!t.error.empty()) return static_cast<std::size_t>(steps);
  std::size_t bad = 0;
  for (const double l : t.losses) bad += std::isfinite(l) ? 0 : 1;
  return bad;
}

/// Loss of the serial oracle over the first steps of the same batches.
std::vector<double> oracle_losses(const TrainSpec& spec, const std::vector<ort::LmBatch>& batches) {
  TrainSpec serial = spec;
  serial.serial = true;
  return launch(serial, batches, kOracleSteps, nullptr).losses;
}

}  // namespace

Outcome run_train(const Args& args, const TrainSpec& spec) {
  Outcome out;
  const double tokens_per_step = static_cast<double>(spec.cfg.tokens_per_batch());

  // Inputs: every step's batch, made from the seed before anything is timed.
  // All ranks and all launches read this one immutable copy.
  ort::PatternLmWorkload source(spec.cfg.batch, spec.cfg.seq_len, spec.cfg.vocab, kPeriod,
                                args.seed);
  std::vector<ort::LmBatch> batches;
  for (int i = 0; i < spec.steps; ++i) batches.push_back(source.next());

  std::vector<SetupTimes> setups;
  for (int i = 0; i < kSetupLaunches; ++i) {
    const Trial t = launch(spec, batches, 0, nullptr);
    out.check(t.error.empty(), "set-up launch failed: " + t.error);
    setups.push_back(t.setup);
  }

  // Untraced trials: each trains the same steps from the same initial state,
  // so every trial must reproduce the first one bitwise.
  optimus::kernel::reset_pool_stats();
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const std::uint64_t start = obs::wall_now_ns();
  const auto elapsed = [&] { return ms_between(start, obs::wall_now_ns()) / 1e3; };
  Trial first;
  std::vector<double> walls, throughput;
  std::uint64_t untraced_steps = 0;
  oc::Cluster::Report last_report;
  for (int trial = 0;; ++trial) {
    const bool enough_time = elapsed() >= budget;
    const bool enough_steps = args.trace || walls.size() >= kMinTimedSteps;
    if (trial > 0 && ((enough_time && enough_steps) || elapsed() >= kMaxSeconds)) break;
    Trial t = launch(spec, batches, spec.steps, nullptr);
    out.attempted += static_cast<std::uint64_t>(spec.steps);
    out.failed += failed_steps(t, spec.steps);
    if (!t.error.empty()) {
      out.check(false, "training launch failed: " + t.error);
      break;
    }
    untraced_steps += static_cast<std::uint64_t>(spec.steps);
    setups.push_back(t.setup);
    walls.insert(walls.end(), t.step_wall_ms.begin(), t.step_wall_ms.end());
    double wall_s = 0;
    for (const double w : t.step_wall_ms) wall_s += w / 1e3;
    throughput.push_back(tokens_per_step * static_cast<double>(t.step_wall_ms.size()) / wall_s);
    out.check(t.ranks_agree, "ranks disagree on the loss");
    last_report = t.report;
    if (trial == 0) {
      first = std::move(t);
      continue;
    }
    out.check(t.losses == first.losses, "loss trace differs between trials of one run");
    out.check(t.step_sim_s == first.step_sim_s, "simulated step times differ between trials");
    out.check(t.report.max_peak_bytes() == first.report.max_peak_bytes(),
              "accountant peak differs between trials");
  }
  if (first.losses.empty()) return out;

  // Output checks.
  bool finite = true;
  for (const double l : first.losses) finite = finite && std::isfinite(l);
  out.check(finite, "non-finite training loss");
  out.check(first.losses.back() < spec.loss_target,
            "final loss " + std::to_string(first.losses.back()) + " not below target " +
                std::to_string(spec.loss_target));
  out.digests["loss_trace"] = digest(first.losses);
  out.notes.push_back("loss " + std::to_string(first.losses.front()) + " -> " +
                      std::to_string(first.losses.back()) + " over " +
                      std::to_string(spec.steps) + " steps (target < " +
                      std::to_string(spec.loss_target) + ")");

  double timed_sim = 0;
  for (std::size_t i = static_cast<std::size_t>(kWarmup); i < first.step_sim_s.size(); ++i) {
    timed_sim += first.step_sim_s[i];
  }
  const double timed_steps = static_cast<double>(spec.steps - kWarmup);
  const SetupTimes setup = median_setup(setups);
  out.set("setup_s", setup.total_s, "s");
  out.set("wall_tokens_per_s", median(throughput), "tok/s");
  out.set("step_wall_ms_p50", quantile(walls, 0.50), "ms");
  out.set("step_wall_ms_p90", quantile(walls, 0.90), "ms");
  out.set("rss_peak_mb", rss_peak_mb(), "MB");
  out.set("sim_tokens_per_s", tokens_per_step * timed_steps / timed_sim, "tok/s");
  out.set("peak_mem_mb", static_cast<double>(first.report.max_peak_bytes()) / 1e6, "MB");
  out.notes.push_back(std::to_string(walls.size()) + " timed steps in " +
                      std::to_string(throughput.size()) + " trials, " +
                      std::to_string(setups.size()) + " set-ups");

  if (!spec.serial) {
    // The 2D engine re-blocks the serial oracle's math; its losses must agree
    // within the differential harness's f32 budget for this depth.
    optimus::testing::FuzzConfig fc;
    fc.dtype = optimus::testing::Dtype::kF32;
    fc.layers = spec.cfg.layers;
    const optimus::testing::Tolerance tol = optimus::testing::tolerance_for(fc);
    const std::vector<double> ref = oracle_losses(spec, batches);
    bool close = ref.size() == kOracleSteps;
    for (std::size_t i = 0; close && i < ref.size(); ++i) {
      close = tol.within(static_cast<float>(first.losses[i]), static_cast<float>(ref[i]));
    }
    out.check(close, "2D losses differ from the serial oracle beyond the f32 ULP budget");
  }

  if (!args.trace) return out;

  // Traced run: a prefix of the same steps with driver spans around each call
  // and the program's own tracer on.
  start_tracing();
  SpanLog log(spec.serial ? 1 : 4);
  const Trial traced = launch(spec, batches, spec.traced_steps, &log);
  const Capture capture = stop_tracing(traced.error.empty() ? &traced.report : nullptr);
  out.attempted += static_cast<std::uint64_t>(spec.traced_steps);
  out.failed += failed_steps(traced, spec.traced_steps);
  if (!traced.error.empty()) {
    out.check(false, "traced launch failed: " + traced.error);
    return out;
  }
  out.check(std::equal(traced.losses.begin(), traced.losses.end(), first.losses.begin()),
            "traced loss trace differs from the untraced one");

  const Attribution a =
      report_traced(out, log, capture, traced.report, traced.deltas,
                    static_cast<std::uint64_t>(spec.traced_steps), traced.step_wall_ms, walls);
  add_pool_metrics(out, last_report, untraced_steps);
  const char* prefix = spec.serial ? "model." : "core.";
  for (const char* phase : {"forward", "loss", "backward"}) {
    const std::string layer = std::string(prefix) + phase;
    out.set(layer + "_wall_ms", layer_ms(a, layer.c_str(), false), "ms");
    if (!spec.serial) out.set(layer + "_sim_ms", layer_ms(a, layer.c_str(), true), "ms");
  }
  out.set("runtime.optimizer_wall_ms", layer_ms(a, "runtime.optimizer", false), "ms");
  out.set("runtime.optimizer_sim_ms", layer_ms(a, "runtime.optimizer", true), "ms");
  out.set("comm.cluster_start_ms", setup.cluster_start_ms, "ms");
  out.set("mesh.build_ms", setup.mesh_build_ms, "ms");
  out.set(std::string(prefix) + "construct_ms", setup.construct_ms, "ms");
  out.set("core.workspace_high_water_bytes", static_cast<double>(traced.workspace_hw), "B");
  out.set("core.forward_high_water_bytes", static_cast<double>(traced.forward_hw), "B");
  out.set("core.backward_high_water_bytes", static_cast<double>(traced.backward_hw), "B");
  out.set("failed_frac", static_cast<double>(out.failed) / static_cast<double>(out.attempted),
          "ratio");
  return out;
}

}  // namespace perfbench
