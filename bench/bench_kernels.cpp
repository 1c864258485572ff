// GFLOP/s microbenchmark for the dense kernel layer (DESIGN.md §3).
//
// Compares GEMM paths on identical problems:
//   * naive        — the seed's blocked scalar loop (ops::gemm_naive_raw),
//                    built with the portable project flags; this is the
//                    baseline every optimisation is measured against.
//   * packed       — kernel::gemm_packed, the cache-blocked panel-packing
//                    microkernel on one thread.
//   * threadN      — kernel::gemm with the thread budget forced to N. Since
//                    the cooperative rewrite all threaded rows run the
//                    shared-pack schedule (one packed A/B panel per stage,
//                    workers claim MC×NR tiles); threaded rows also carry
//                    `speedup_vs_1t` = wall(threads1) / wall(threadsN) so the
//                    scaling curve is readable without manual division.
//   * shared_pack  — explicit alias row for the cooperative path at the max
//                    thread count, so the schedule named in DESIGN.md §3 has
//                    a greppable record.
//   * fused/unfused bias_gelu — gemm_ex with the BiasGelu epilogue applied
//                    tile-hot vs the same GEMM followed by separate
//                    full-tensor bias and GELU passes (the pre-fusion MLP
//                    h→4h hot loop).
//   * rank_{nn,nt,tn} — kernel::gemm_packed on the per-rank GEMMs of the
//                    perfbench train_2d_large workload (2×2 mesh, b8 s64
//                    h256 n8 v512: one SUMMA step multiplies 256-row panels
//                    of the local blocks), in the transpose form each pass
//                    uses, plus the per-head attention products (s64, d32).
//                    One thread, as each rank runs there.
//   * gelu_{fwd,bwd}_f32, tanh_libm_f32 — the activation routines of
//                    kernel/activation.hpp on the per-rank fc1 output of the
//                    same workload (256×512, one thread): bias+GELU row by
//                    row as ops::bias_gelu_ calls it, the GELU backward over
//                    the whole block, and libm tanhf per element as the
//                    reference the owned tanh replaced. These rows report
//                    `ns_per_elem` (gflops is 0).
//
// Every row is the median of kSamples (7) samples after one warm-up call; a
// sample is enough back-to-back calls to cover ~40 ms. gflops and wall_ms come from the median; min_ms, max_ms, spread_ms
// (max − min) and iqr_ms give the spread. Results go to stdout as a table
// and to BENCH_kernels.json as {"host": fingerprint, "records": [{name,
// shape, gflops, wall_ms, sim_ms, ...}]}; sim_ms is 0 here because these are
// host-only kernels with no simulated cluster in the loop. Pool wait is
// exported as `pool_aggregate_submit_wait_ms` (summed across concurrent
// submitters — can exceed wall time) plus the per-region average
// `pool_avg_region_wait_ms`.

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "kernel/activation.hpp"
#include "kernel/gemm.hpp"
#include "kernel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

namespace ok = optimus::kernel;
namespace ops = optimus::tensor::ops;
using optimus::bench::JsonWriter;
using optimus::bench::Summary;
using index_t = ok::index_t;

constexpr int kSamples = 7;

template <typename T>
std::vector<T> random_buffer(index_t n, std::uint64_t seed) {
  optimus::util::Rng rng(seed);
  std::vector<T> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<T>(rng.uniform(-1, 1));
  return v;
}

// Times `fn`: one warm-up call that also calibrates, then kSamples samples
// of `reps` back-to-back calls each, with reps sized so a sample covers
// ~40 ms (1 to 50 calls). Returns the median/min/max/IQR of ms per call.
Summary time_ms(const std::function<void()>& fn) {
  optimus::util::Stopwatch sw;
  fn();
  const double first_s = sw.elapsed_s();
  int reps = 1;
  if (first_s < 0.04) reps = static_cast<int>(0.04 / (first_s + 1e-9)) + 1;
  if (reps > 50) reps = 50;
  std::vector<double> ms;
  for (int s = 0; s < kSamples; ++s) {
    optimus::util::Stopwatch sample;
    for (int i = 0; i < reps; ++i) fn();
    ms.push_back(sample.elapsed_s() * 1000.0 / reps);
  }
  return optimus::bench::summarise(std::move(ms));
}

template <typename T>
struct Problem {
  std::string tag;  // shape string "m x n x k"
  index_t m, n, k;
};

struct Recorder {
  JsonWriter& json;
  const std::string& tag;
  double flops = 0.0;

  // Pool counters are reset per measurement so each record's worker_share /
  // chunk counts describe that kernel variant alone. A positive `base_ms`
  // (the one-thread median) adds `speedup_vs_1t` = base_ms / median.
  // Returns the median ms per call.
  double operator()(const std::string& name, const std::function<void()>& body,
                    double base_ms = 0.0) const {
    ok::reset_pool_stats();
    const Summary t = time_ms(body);
    const ok::PoolStats ps = ok::pool_stats();
    const double gflops = flops / (t.median * 1e-3) / 1e9;
    std::printf("%-26s %-18s %10.3f %10.3f %9.3f %10.2f", name.c_str(), tag.c_str(), t.median,
                t.min, t.max - t.min, gflops);
    if (base_ms > 0.0) std::printf(" %8.2fx", base_ms / t.median);
    std::printf("\n");
    std::vector<std::pair<std::string, double>> extra = {
        {"samples", static_cast<double>(kSamples)},
        {"min_ms", t.min},
        {"max_ms", t.max},
        {"spread_ms", t.max - t.min},
        {"iqr_ms", t.iqr},
        {"pool_regions", static_cast<double>(ps.regions)},
        {"pool_chunks", static_cast<double>(ps.chunks)},
        {"pool_worker_share", ps.worker_share()},
        {"pool_aggregate_submit_wait_ms", static_cast<double>(ps.submit_wait_ns) / 1e6},
        {"pool_avg_region_wait_ms", ps.avg_region_wait_ns() / 1e6},
        {"pool_barrier_crossings", static_cast<double>(ps.barrier_crossings)}};
    if (base_ms > 0.0) extra.emplace_back("speedup_vs_1t", base_ms / t.median);
    json.add(name, tag, gflops, t.median, 0.0, extra);
    return t.median;
  }
};

void print_columns() {
  std::printf("%-26s %-18s %10s %10s %9s %10s %9s\n", "name", "shape", "median_ms", "min_ms",
              "spread", "GFLOP/s", "vs_1t");
}

template <typename T>
void run_gemm_suite(const char* dtype, const std::vector<Problem<T>>& problems,
                    const std::vector<int>& thread_counts, JsonWriter& json) {
  print_columns();
  for (const auto& p : problems) {
    const index_t m = p.m, n = p.n, k = p.k;
    auto A = random_buffer<T>(m * k, 1);
    auto B = random_buffer<T>(k * n, 2);
    std::vector<T> C(static_cast<std::size_t>(m * n), T{0});
    const Recorder record{json, p.tag, 2.0 * static_cast<double>(m) * n * k};

    record(std::string("gemm_naive_") + dtype, [&] {
      ops::gemm_naive_raw(C.data(), A.data(), B.data(), m, n, k, k, n, n,
                          ops::Trans::No, ops::Trans::No, T{1}, T{0});
    });
    record(std::string("gemm_packed_") + dtype, [&] {
      ok::gemm_packed(C.data(), A.data(), B.data(), m, n, k, k, n, n,
                      ok::Trans::No, ok::Trans::No, T{1}, T{0});
    });
    double wall_1t = 0.0;
    for (int t : thread_counts) {
      ok::set_threads(t);
      const auto body = [&] {
        ok::gemm(C.data(), A.data(), B.data(), m, n, k, k, n, n, ok::Trans::No,
                 ok::Trans::No, T{1}, T{0});
      };
      const std::string name = std::string("gemm_threads") + std::to_string(t) + "_" + dtype;
      if (t <= 1) {
        wall_1t = record(name, body);
      } else {
        record(name, body, wall_1t);
      }
      ok::set_threads(0);  // back to env/hardware default
    }
  }
  std::printf("\n");
}

// The cooperative shared-pack schedule under its DESIGN.md name, plus the
// fused-epilogue rows: gemm_ex(BiasGelu) applied while each C tile is
// register/L1-hot vs the pre-fusion sequence (GEMM, then a full-tensor bias
// pass, then a full-tensor GELU pass). Same arithmetic order per element, so
// outputs are bitwise identical; only locality differs.
template <typename T>
void run_fusion_suite(const char* dtype, index_t m, index_t n, index_t k,
                      int threads, JsonWriter& json) {
  const std::string tag = std::to_string(m) + "x" + std::to_string(n) + "x" +
                          std::to_string(k);
  auto A = random_buffer<T>(m * k, 1);
  auto B = random_buffer<T>(k * n, 2);
  auto bias = random_buffer<T>(n, 3);
  std::vector<T> C(static_cast<std::size_t>(m * n), T{0});
  std::vector<T> pre(static_cast<std::size_t>(m * n), T{0});
  const Recorder record{json, tag, 2.0 * static_cast<double>(m) * n * k};

  print_columns();
  ok::set_threads(threads);
  record(std::string("gemm_shared_pack_") + dtype, [&] {
    ok::gemm(C.data(), A.data(), B.data(), m, n, k, k, n, n, ok::Trans::No,
             ok::Trans::No, T{1}, T{0});
  });

  ok::EpilogueArgs<T> ep;
  ep.op = ok::Epilogue::BiasGelu;
  ep.bias = bias.data();
  ep.pre = pre.data();
  ep.ldp = n;
  record(std::string("gemm_fused_bias_gelu_") + dtype, [&] {
    ok::gemm_ex(C.data(), A.data(), B.data(), m, n, k, k, n, n, ok::Trans::No,
                ok::Trans::No, T{1}, T{0}, ep);
  });
  record(std::string("gemm_unfused_bias_gelu_") + dtype, [&] {
    ok::gemm(C.data(), A.data(), B.data(), m, n, k, k, n, n, ok::Trans::No,
             ok::Trans::No, T{1}, T{0});
    for (index_t i = 0; i < m; ++i) {
      T* row = C.data() + i * n;
      for (index_t j = 0; j < n; ++j) row[j] += bias[j];
    }
    for (index_t i = 0; i < m; ++i) {
      T* crow = C.data() + i * n;
      ok::bias_gelu<T>(crow, nullptr, pre.data() + i * n, crow, n);
    }
  });
  ok::set_threads(0);
  std::printf("\n");
}

// One-thread packed GEMM on stored operands of the given transpose form,
// dense leading dimensions, alpha 1, beta 0.
struct RankShape {
  const char* form;  // "nn", "nt" or "tn"
  index_t m, n, k;
};

void run_rank_suite(const std::vector<RankShape>& shapes, JsonWriter& json) {
  print_columns();
  for (const RankShape& s : shapes) {
    const std::string form = s.form;
    const ok::Trans ta = form[0] == 't' ? ok::Trans::Yes : ok::Trans::No;
    const ok::Trans tb = form[1] == 't' ? ok::Trans::Yes : ok::Trans::No;
    const index_t lda = ta == ok::Trans::No ? s.k : s.m;
    const index_t ldb = tb == ok::Trans::No ? s.n : s.k;
    auto A = random_buffer<float>(s.m * s.k, 1);
    auto B = random_buffer<float>(s.k * s.n, 2);
    std::vector<float> C(static_cast<std::size_t>(s.m * s.n), 0.0f);
    const std::string tag =
        std::to_string(s.m) + "x" + std::to_string(s.n) + "x" + std::to_string(s.k);
    const Recorder record{json, tag, 2.0 * static_cast<double>(s.m) * s.n * s.k};
    record("gemm_rank_" + form + "_f32", [&] {
      ok::gemm_packed(C.data(), A.data(), B.data(), s.m, s.n, s.k, lda, ldb, s.n, ta, tb, 1.0f,
                      0.0f);
    });
  }
  std::printf("\n");
}

void run_activation_suite(JsonWriter& json) {
  const index_t rows = 256, cols = 512, n = rows * cols;
  const std::string tag = "256x512";
  std::vector<float> x = random_buffer<float>(n, 1);
  for (float& v : x) v *= 4.0f;  // pre-activations reach the saturated tails
  const std::vector<float> bias = random_buffer<float>(cols, 2);
  const std::vector<float> dy = random_buffer<float>(n, 3);
  std::vector<float> pre(static_cast<std::size_t>(n)), y(static_cast<std::size_t>(n));
  std::printf("%-26s %-18s %10s %10s %9s %10s\n", "name", "shape", "median_ms", "min_ms", "spread",
              "ns/elem");
  const auto row = [&](const std::string& name, const std::function<void()>& body) {
    const Summary t = time_ms(body);
    const double ns = t.median * 1e6 / static_cast<double>(n);
    std::printf("%-26s %-18s %10.3f %10.3f %9.3f %10.2f\n", name.c_str(), tag.c_str(), t.median,
                t.min, t.max - t.min, ns);
    json.add(name, tag, 0.0, t.median, 0.0,
             {{"samples", static_cast<double>(kSamples)},
              {"ns_per_elem", ns},
              {"min_ms", t.min},
              {"max_ms", t.max},
              {"spread_ms", t.max - t.min},
              {"iqr_ms", t.iqr}});
  };
  row("gelu_fwd_f32", [&] {
    for (index_t r = 0; r < rows; ++r) {
      ok::bias_gelu(x.data() + r * cols, bias.data(), pre.data() + r * cols, y.data() + r * cols,
                    cols);
    }
  });
  row("gelu_bwd_f32", [&] { ok::gelu_backward(x.data(), dy.data(), y.data(), n, false); });
  row("tanh_libm_f32", [&] {
    for (index_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
  });
  std::printf("\n");
}

}  // namespace

int main() {
  optimus::bench::print_header("Kernel GFLOP/s: naive vs packed vs cooperative shared-pack");
  std::printf("hardware threads: %d, default budget: %d\n\n", ok::hardware_threads(),
              ok::effective_threads());

  JsonWriter json;
  const std::vector<int> threads = {1, 2, 4};

  // f32: square problems (256³ warms caches, 1024³ is the acceptance shape),
  // a transformer forward slab (b·s=2048 rows against h=1024..4096 weights),
  // and a skinny vocab-projection shape.
  std::vector<Problem<float>> f32 = {
      {"256x256x256", 256, 256, 256},
      {"512x512x512", 512, 512, 512},
      {"1024x1024x1024", 1024, 1024, 1024},
      {"2048x1024x1024", 2048, 1024, 1024},
      {"2048x4096x1024", 2048, 4096, 1024},
      {"512x8192x512", 512, 8192, 512},
  };
  run_gemm_suite<float>("f32", f32, threads, json);

  // f64 spot checks: half the SIMD width, same blocking.
  std::vector<Problem<double>> f64 = {
      {"512x512x512", 512, 512, 512},
      {"1024x1024x1024", 1024, 1024, 1024},
  };
  run_gemm_suite<double>("f64", f64, threads, json);

  // MLP h→4h epilogue-fusion comparison on the transformer slab shape.
  run_fusion_suite<float>("f32", 2048, 4096, 1024, 4, json);

  // Per-rank GEMMs of train_2d_large: QKV / MLP-up / MLP-down forward (NN),
  // the matching input gradients (NT) and weight gradients (TN), then the
  // per-head attention scores (QKᵀ, NT) and context (PV, NN).
  run_rank_suite({{"nn", 256, 384, 128},
                  {"nn", 256, 512, 128},
                  {"nn", 256, 128, 512},
                  {"nt", 256, 128, 384},
                  {"nt", 256, 128, 512},
                  {"tn", 128, 384, 256},
                  {"tn", 512, 128, 256},
                  {"nt", 64, 64, 32},
                  {"nn", 64, 32, 64}},
                 json);

  // GELU at the per-rank fc1 shape of train_2d_large, against libm tanh.
  run_activation_suite(json);

  const optimus::obs::Json host = optimus::bench::fingerprint();
  json.write("BENCH_kernels.json", &host);
  return 0;
}
