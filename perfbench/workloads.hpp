#pragma once

// The benchmark's workloads and the functions that run them.

#include "bench.hpp"
#include "model/config.hpp"

namespace perfbench {

struct TrainSpec {
  optimus::model::TransformerConfig cfg;
  bool serial = false;     // serial oracle on one device instead of the 2×2 mesh
  int steps = 0;           // steps per launch, warm-up included
  int traced_steps = 0;    // prefix of the steps the traced launch runs
  double loss_target = 0;  // the launch's final loss must be below this
};

struct ServeSpec {
  optimus::model::TransformerConfig cfg;
  int slots = 8;
  double rate = 0;            // offered requests per simulated second
  std::size_t requests = 0;   // per launch
  std::size_t traced_requests = 0;
  double p99_limit_ms = 0;    // latency limit for the max-rate probe ladder
  std::vector<double> ladder; // offered rates probed for serve_sim_max_rate, ascending
};

Outcome run_train(const Args& args, const TrainSpec& spec);
Outcome run_serve(const Args& args, const ServeSpec& spec);

}  // namespace perfbench
