// Fabric wall cost: what one simulated collective, and one cluster launch,
// costs on this host.
//
// The simulated cluster runs one thread per device, so every collective is a
// real rendezvous between host threads. This bench times, on rank 0 between
// two barriers, K back-to-back `broadcast` and `all_reduce` calls for
// p ∈ {2, 4, 16} and payloads of 16 floats and 64 KiB, and reports wall
// µs per op as the median and min of N repetitions with their spread
// (max − min and the interquartile range). It also times an empty
// `run_cluster` launch at each p. Results go to BENCH_comm.json together
// with a host and build fingerprint, so two files are comparable only when
// their fingerprints match.
//
//   bench_comm [--reps N] [--out PATH]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "comm/cluster.hpp"
#include "obs/json.hpp"
#include "util/table.hpp"

namespace {

namespace oc = optimus::comm;
using optimus::obs::Json;
using optimus::tensor::index_t;

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Summary {
  double median = 0, min = 0, max = 0, iqr = 0;
};

Summary summarise(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {at(0.5), v.front(), v.back(), at(0.75) - at(0.25)};
}

enum class Op { kBroadcast, kAllReduce };

/// Wall µs per op on rank 0: one launch, `reps` timed blocks of `calls` ops.
std::vector<double> time_collective(int p, Op op, index_t elems, int calls, int reps) {
  std::vector<double> per_op;
  oc::run_cluster(p, [&](oc::Context& ctx) {
    std::vector<float> buf(static_cast<std::size_t>(elems), 1.0f);
    const auto run = [&](int n) {
      for (int i = 0; i < n; ++i) {
        if (op == Op::kBroadcast) {
          ctx.world.broadcast(buf.data(), elems, i % p);
        } else {
          ctx.world.all_reduce(buf.data(), elems);
        }
      }
    };
    run(std::max(1, calls / 10));  // warm-up
    for (int r = 0; r < reps; ++r) {
      ctx.world.barrier();
      const double t0 = now_us();
      run(calls);
      ctx.world.barrier();
      if (ctx.rank == 0) per_op.push_back((now_us() - t0) / calls);
    }
  });
  return per_op;
}

/// Wall µs of an empty run_cluster launch, one sample per rep.
std::vector<double> time_launch(int p, int launches, int reps) {
  std::vector<double> per_launch;
  oc::run_cluster(p, [](oc::Context&) {});  // warm-up: spawns device threads
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_us();
    for (int i = 0; i < launches; ++i) oc::run_cluster(p, [](oc::Context&) {});
    per_launch.push_back((now_us() - t0) / launches);
  }
  return per_launch;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

/// HEAD of the source tree, suffixed "+dirty" when the tree has uncommitted
/// changes; "unknown" outside a git checkout.
std::string git_sha() {
  const std::string cmd = std::string("git -C \"") + OPTIMUS_SOURCE_DIR +
                          "\" describe --always --abbrev=40 --dirty=+dirty 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "unknown";
  char buf[128] = {0};
  const bool got = std::fgets(buf, sizeof(buf), pipe) != nullptr;
  pclose(pipe);
  std::string sha = got ? buf : "";
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
  return sha.empty() ? "unknown" : sha;
}

Json fingerprint() {
  Json host = Json::object();
  host.set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  host.set("cpu_model", cpu_model());
  host.set("compiler", std::string(__VERSION__));
  host.set("flags", std::string(OPTIMUS_BUILD_FLAGS));
  host.set("build_type", std::string(OPTIMUS_BUILD_TYPE));
  host.set("kernel_native_arch", OPTIMUS_NATIVE_ARCH_ON != 0);
  host.set("git_sha", git_sha());
  return host;
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " [--reps N] [--out PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 7;
  std::string out_path = "BENCH_comm.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--reps" && i + 1 < argc) {
      char* end = nullptr;
      const long v = std::strtol(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || v < 1 || v > 1000) return usage(argv[0]);
      reps = static_cast<int>(v);
    } else if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }

  struct Payload {
    const char* label;
    index_t elems;
  };
  const Payload payloads[] = {{"16f", 16}, {"64KiB", 16384}};
  const int worlds[] = {2, 4, 16};

  Json records = Json::array();
  optimus::util::Table table({"op", "p", "payload", "calls", "median us", "min us", "max us",
                              "iqr us"});
  const auto add = [&](const std::string& op, int p, const std::string& payload, int calls,
                       const std::vector<double>& samples) {
    const Summary s = summarise(samples);
    Json r = Json::object();
    r.set("op", op);
    r.set("p", p);
    r.set("payload", payload);
    r.set("calls_per_rep", calls);
    r.set("reps", static_cast<int>(samples.size()));
    r.set("median_us", s.median);
    r.set("min_us", s.min);
    r.set("max_us", s.max);
    r.set("spread_us", s.max - s.min);
    r.set("iqr_us", s.iqr);
    records.push_back(std::move(r));
    table.add_row({op, std::to_string(p), payload, std::to_string(calls),
                   optimus::util::Table::fmt(s.median, 2), optimus::util::Table::fmt(s.min, 2),
                   optimus::util::Table::fmt(s.max, 2), optimus::util::Table::fmt(s.iqr, 2)});
  };

  for (const int p : worlds) {
    for (const Payload& pl : payloads) {
      // Enough calls per rep to dwarf the barrier pair, few enough that the
      // oversubscribed p = 16 world finishes in seconds.
      const int calls = (pl.elems > 16 ? 50 : 400) / (p > 4 ? 4 : 1);
      add("broadcast", p, pl.label, calls,
          time_collective(p, Op::kBroadcast, pl.elems, calls, reps));
      add("all_reduce", p, pl.label, calls,
          time_collective(p, Op::kAllReduce, pl.elems, calls, reps));
    }
    const int launches = p > 4 ? 20 : 100;
    add("launch", p, "-", launches, time_launch(p, launches, reps));
  }

  std::cout << "fabric wall cost per op (rank 0, median of " << reps << " reps)\n\n";
  table.print(std::cout);

  Json doc = Json::object();
  doc.set("host", fingerprint());
  doc.set("records", std::move(records));
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << doc.dump(2) << "\n";
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
