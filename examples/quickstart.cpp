// Quickstart: train a small language model with Optimus 2D tensor parallelism
// on a 2×2 simulated device mesh.
//
//   ./quickstart [--steps 80] [--q 2] [--lr 0.003]
//               [--trace-out trace.json] [--metrics-out metrics.json]
//
// --trace-out enables the simulation-aware tracer and writes a Chrome
// trace-event file (load it at ui.perfetto.dev): one track per simulated
// device in simulated time, plus host-thread tracks in wall time.
// --metrics-out writes the per-rank communication/memory/pool counters.
// Neither flag changes what is printed to stdout — traced and untraced runs
// are byte-identical there (scripts/check.sh enforces this).
//
// Walks through the whole public API surface:
//   1. describe the model      (model::TransformerConfig)
//   2. launch a device cluster (comm::Cluster — one thread per device)
//   3. build the mesh + engine (mesh::Mesh2D, core::OptimusTransformer)
//   4. train                   (runtime::Adam + runtime::train_lm)
// and prints the loss trace plus per-device communication statistics.

#include <cmath>
#include <iomanip>
#include <iostream>

#include "comm/cluster.hpp"
#include "comm/obs_report.hpp"
#include "core/optimus_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "mesh/mesh.hpp"
#include "model/config.hpp"
#include "runtime/data.hpp"
#include "runtime/lr_schedule.hpp"
#include "runtime/optimizer.hpp"
#include "runtime/trainer.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace oc = optimus::comm;
namespace ort = optimus::runtime;

int main(int argc, char** argv) {
  optimus::util::Cli cli(argc, argv);
  const int steps = cli.get_int("steps", 80, /*min_value=*/1);
  const int q = cli.get_int("q", 2, /*min_value=*/1);
  const double lr = cli.get_double("lr", 3e-3);
  const std::string trace_out = cli.get_string("trace-out", "");
  const std::string metrics_out = cli.get_string("metrics-out", "");
  cli.finish();
  if (!trace_out.empty() || !metrics_out.empty()) optimus::obs::set_enabled(true);
  if (!metrics_out.empty()) optimus::obs::set_metrics_enabled(true);

  // 1. The model: a toy GPT-style stack whose dimensions divide the mesh side.
  optimus::model::TransformerConfig cfg;
  cfg.batch = 4 * q;
  cfg.seq_len = 8;
  cfg.hidden = 16 * q;
  cfg.heads = 2 * q;
  cfg.vocab = 8 * q;
  cfg.layers = 2;
  cfg.seed = 7;

  // A fully predictable periodic token stream — loss should approach zero.
  ort::PatternLmWorkload workload(cfg.batch, cfg.seq_len, cfg.vocab, /*period=*/4,
                                  /*seed=*/11);

  std::cout << "Training a " << cfg.parameter_count() << "-parameter transformer on a " << q
            << "x" << q << " Optimus mesh (" << q * q << " simulated devices)\n";

  // The workload is host-side state shared by all ranks; the cached sampler
  // draws each batch exactly once and replays it to every device.
  auto sampler = ort::make_cached_sampler([&] { return workload.next(); }, q * q);

  // 2-4. Every device runs this body; collectives keep them in lockstep.
  std::vector<double> losses;
  auto report = oc::run_cluster(q * q, [&](oc::Context& ctx) {
    optimus::mesh::Mesh2D mesh(ctx.world);
    optimus::core::OptimusTransformer<float> engine(cfg, mesh);
    ort::Adam<float> opt;
    ort::ConstantLr schedule(lr);
    auto trace = ort::train_lm(
        engine, opt, schedule, [&] { return sampler(ctx.rank); }, steps);
    if (ctx.rank == 0) losses = trace;
  });

  std::cout << "\nstep | lm loss\n-----+--------\n";
  for (std::size_t i = 0; i < losses.size(); i += std::max<std::size_t>(1, losses.size() / 10)) {
    std::cout << std::setw(4) << i << " | " << optimus::util::Table::fmt(losses[i]) << "\n";
  }
  std::cout << std::setw(4) << losses.size() - 1 << " | "
            << optimus::util::Table::fmt(losses.back()) << " (chance = "
            << optimus::util::Table::fmt(std::log(static_cast<double>(cfg.vocab)), 3) << ")\n";

  const auto& st = report.ranks[0].stats;
  std::cout << "\nper-device communication over the whole run:\n"
            << "  broadcasts     " << st.broadcast.calls << " calls, " << st.broadcast.elems
            << " scalars\n"
            << "  reduces        " << st.reduce.calls << " calls, " << st.reduce.elems
            << " scalars\n"
            << "  all-reduces    " << st.allreduce.calls << " calls, " << st.allreduce.elems
            << " scalars (layernorm/softmax statistics)\n"
            << "  simulated time " << optimus::util::Table::fmt(report.max_sim_time(), 4)
            << " s on the modelled 4-GPU node\n";

  // Observability artefacts go to their own files, never stdout.
  if (!trace_out.empty()) optimus::obs::write_chrome_trace(trace_out);
  if (!metrics_out.empty()) oc::write_metrics(metrics_out, report);
  return losses.back() < 0.5 ? 0 : 1;
}
