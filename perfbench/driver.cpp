// Benchmark driver: runs one workload of the 2D training and serving stack
// through the public API and writes every metric, with its unit, to a JSON
// report.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <file>
//
// --trace 0 measures the end-to-end metrics with the program's tracer off.
// --trace 1 measures the per-layer metrics: an untraced pass for the
// baseline, then a traced pass with the driver's spans around each call into
// a layer and the program's own tracer on; the spans go to <file>.trace.json.
// Bad or unknown arguments print the usage and exit with status 2.

#include <charconv>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string_view>

#include "kernel/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr const char* kUsage =
    "usage: perfbench_driver --workload <train_2d_small|train_2d_large|train_serial_large|"
    "serve_2d_decode> --seed <n> --seconds <s> --trace <0|1> --out <file>\n";

optimus::model::TransformerConfig config(std::int64_t b, std::int64_t s, std::int64_t h,
                                         std::int64_t n, std::int64_t v) {
  optimus::model::TransformerConfig cfg;
  cfg.batch = b;
  cfg.seq_len = s;
  cfg.hidden = h;
  cfg.heads = n;
  cfg.vocab = v;
  cfg.layers = 2;
  cfg.seed = 7;
  return cfg;
}

// Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
TrainSpec train_spec(const std::string& name) {
  TrainSpec spec;
  if (name == "train_2d_small") {
    spec.cfg = config(8, 8, 32, 4, 16);
    spec.steps = 100;
    spec.traced_steps = 12;
    spec.loss_target = 0.25;
  } else {
    spec.cfg = config(8, 64, 256, 8, 512);
    spec.serial = name == "train_serial_large";
    spec.steps = 24;
    spec.traced_steps = 8;
    spec.loss_target = 1.0;
  }
  return spec;
}

ServeSpec serve_spec() {
  ServeSpec spec;
  spec.cfg = config(8, 48, 32, 4, 64);
  spec.slots = 8;
  spec.rate = 400;
  spec.requests = 1000;
  spec.traced_requests = 24;
  spec.p99_limit_ms = 25;
  spec.ladder = {400, 600, 700, 800, 900, 1000, 1200, 1600};
  return spec;
}

template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// Strict flag parser: every flag is required, takes one value and appears once.
bool parse_args(int argc, char** argv, Args& args) {
  bool have[5] = {false, false, false, false, false};
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string_view value = argv[i + 1];
    int which = -1;
    if (flag == "--workload") {
      which = 0;
      args.workload = value;
      if (args.workload != "train_2d_small" && args.workload != "train_2d_large" &&
          args.workload != "train_serial_large" && args.workload != "serve_2d_decode") {
        return false;
      }
    } else if (flag == "--seed") {
      which = 1;
      if (!parse_number(value, args.seed)) return false;
    } else if (flag == "--seconds") {
      which = 2;
      if (!parse_number(value, args.seconds) || !(args.seconds > 0 && args.seconds <= 3600)) {
        return false;
      }
    } else if (flag == "--trace") {
      which = 3;
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--out") {
      which = 4;
      args.out = value;
      if (args.out.empty()) return false;
    }
    if (which < 0 || have[which]) return false;
    have[which] = true;
  }
  for (const bool h : have) {
    if (!h) return false;
  }
  return true;
}

obs::Json report_json(const Args& args, const Outcome& out) {
  obs::Json doc = obs::Json::object();
  doc.set("workload", args.workload);
  doc.set("seed", static_cast<std::uint64_t>(args.seed));
  doc.set("trace", args.trace);
  doc.set("correct", out.failures.empty());
  doc.set("attempted", out.attempted);
  doc.set("failed", out.failed);
  obs::Json failures = obs::Json::array();
  for (const std::string& f : out.failures) failures.push_back(f);
  doc.set("failures", std::move(failures));
  obs::Json digests = obs::Json::object();
  for (const auto& [k, v] : out.digests) digests.set(k, v);
  doc.set("digests", std::move(digests));
  obs::Json metrics = obs::Json::object();
  for (const auto& [name, m] : out.metrics) {
    obs::Json j = obs::Json::object();
    j.set("value", m.value);
    j.set("unit", m.unit);
    metrics.set(name, std::move(j));
  }
  doc.set("metrics", std::move(metrics));
  obs::Json runtime = obs::Json::object();
  runtime.set("kernel_threads", optimus::kernel::configured_threads());
  runtime.set("hardware_threads", optimus::kernel::hardware_threads());
  const char* env = std::getenv("OPTIMUS_KERNEL_THREADS");
  runtime.set("OPTIMUS_KERNEL_THREADS", env ? obs::Json(env) : obs::Json());
  doc.set("runtime", std::move(runtime));
  obs::Json notes = obs::Json::array();
  for (const std::string& n : out.notes) notes.push_back(n);
  doc.set("notes", std::move(notes));
  return doc;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  return static_cast<bool>(f);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << kUsage;
    return 2;
  }
  try {
    const Outcome out = args.workload == "serve_2d_decode"
                            ? run_serve(args, serve_spec())
                            : run_train(args, train_spec(args.workload));
    for (const std::string& n : out.notes) std::cout << n << "\n";
    if (!write_file(args.out, report_json(args, out).dump(2))) {
      std::cerr << "perfbench_driver: cannot write " << args.out << "\n";
      return 1;
    }
    if (args.trace && !write_file(args.out + ".trace.json", out.trace_doc.dump())) {
      std::cerr << "perfbench_driver: cannot write " << args.out << ".trace.json\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
