// Tests for the dense kernel layer (src/kernel/): packed GEMM correctness
// across all transpose forms / odd shapes / alpha-beta combinations, bitwise
// determinism across thread counts, beta==0 store semantics over poisoned
// memory, the shared thread budget, and the pool itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "kernel/activation.hpp"
#include "kernel/gemm.hpp"
#include "kernel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "testing/ulp.hpp"
#include "util/rng.hpp"

namespace {

namespace ok = optimus::kernel;
namespace ops = optimus::tensor::ops;
using index_t = ok::index_t;

template <typename T>
std::vector<T> random_buffer(index_t n, std::uint64_t seed) {
  optimus::util::Rng rng(seed);
  std::vector<T> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<T>(rng.uniform(-1, 1));
  return v;
}

// Textbook reference: C = alpha·op(A)·op(B) + beta·C, beta == 0 stores.
template <typename T>
void gemm_reference(T* C, const T* A, const T* B, index_t m, index_t n, index_t k,
                    index_t lda, index_t ldb, index_t ldc, ok::Trans ta, ok::Trans tb,
                    T alpha, T beta) {
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      T acc{0};
      for (index_t p = 0; p < k; ++p) {
        const T a = ta == ok::Trans::No ? A[i * lda + p] : A[p * lda + i];
        const T b = tb == ok::Trans::No ? B[p * ldb + j] : B[j * ldb + p];
        acc += a * b;
      }
      T& c = C[i * ldc + j];
      c = beta == T{0} ? alpha * acc : alpha * acc + beta * c;
    }
  }
}

template <typename T>
T tolerance(index_t k);
template <>
float tolerance<float>(index_t k) {
  return 1e-5f * static_cast<float>(k + 1);
}
template <>
double tolerance<double>(index_t k) {
  return 1e-12 * static_cast<double>(k + 1);
}

// Unfused two-pass reference for each epilogue: gemm, then the elementwise op
// over the full C — exactly the pre-fusion model-layer sequence. The fused
// path must match it bitwise (same scalar ops, same order, just tile-hot).
// C, res and pre share the row stride `ld`.
template <typename T>
void epilogue_reference(ok::Epilogue op, T* C, const T* bias, const T* res, T* pre,
                        index_t m, index_t n, index_t ld) {
  for (index_t i = 0; i < m; ++i) {
    T* row = C + i * ld;
    switch (op) {
      case ok::Epilogue::BiasAdd:
        for (index_t j = 0; j < n; ++j) row[j] += bias[j];
        break;
      case ok::Epilogue::BiasGelu:
        for (index_t j = 0; j < n; ++j) {
          const T v = row[j] + bias[j];
          pre[i * ld + j] = v;
          row[j] = ok::gelu_scalar(v);
        }
        break;
      case ok::Epilogue::ResidualAdd:
        for (index_t j = 0; j < n; ++j) row[j] = (row[j] + bias[j]) + res[i * ld + j];
        break;
      case ok::Epilogue::None:
        break;
    }
  }
}

// Runs one (m, n, k, ta, tb, alpha, beta, epilogue) case. Every operand has
// a padded leading dimension (SUMMA passes strided panels, so the packs' row
// reads must stop at the logical width). gemm_packed must match the naive
// reference within tolerance and leave C's padding untouched; gemm_ex at
// threads 1–4 must be bitwise equal to gemm_packed followed by the unfused
// epilogue.
template <typename T>
void check_case(index_t m, index_t n, index_t k, ok::Trans ta, ok::Trans tb, T alpha, T beta,
                ok::Epilogue op = ok::Epilogue::None) {
  const index_t lda = (ta == ok::Trans::No ? k : m) + 5;
  const index_t ldb = (tb == ok::Trans::No ? n : k) + 3;
  const index_t ldc = n + 7;
  const index_t a_rows = ta == ok::Trans::No ? m : k;
  const index_t b_rows = tb == ok::Trans::No ? k : n;
  auto A = random_buffer<T>(a_rows * lda, 11);
  auto B = random_buffer<T>(b_rows * ldb, 22);
  auto C0 = random_buffer<T>(m * ldc, 33);
  auto bias = random_buffer<T>(n, 44);
  auto res = random_buffer<T>(m * ldc, 55);
  SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n << " k=" << k << " ta="
                                    << int(ta) << " tb=" << int(tb) << " op=" << int(op)
                                    << " alpha=" << alpha << " beta=" << beta);

  std::vector<T> naive = C0;
  gemm_reference(naive.data(), A.data(), B.data(), m, n, k, lda, ldb, ldc, ta, tb, alpha,
                 beta);
  std::vector<T> want = C0;
  ok::gemm_packed(want.data(), A.data(), B.data(), m, n, k, lda, ldb, ldc, ta, tb, alpha,
                  beta);
  const T tol = tolerance<T>(k) * (std::abs(alpha) + std::abs(beta) + T{1});
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j)
      ASSERT_NEAR(want[i * ldc + j], naive[i * ldc + j], tol) << "packed at " << i << "," << j;
    for (index_t j = n; j < ldc; ++j)
      ASSERT_EQ(want[i * ldc + j], C0[i * ldc + j]) << "padding clobbered at " << i << "," << j;
  }
  std::vector<T> want_pre(static_cast<std::size_t>(m * ldc), T{0});
  epilogue_reference<T>(op, want.data(), bias.data(), res.data(), want_pre.data(), m, n, ldc);

  ok::EpilogueArgs<T> ep;
  ep.op = op;
  if (op != ok::Epilogue::None) ep.bias = bias.data();
  if (op == ok::Epilogue::ResidualAdd) {
    ep.residual = res.data();
    ep.ldr = ldc;
  }
  std::vector<T> got_pre(static_cast<std::size_t>(m * ldc), T{0});
  if (op == ok::Epilogue::BiasGelu) {
    ep.pre = got_pre.data();
    ep.ldp = ldc;
  }
  for (int t : {1, 2, 3, 4}) {
    ok::set_threads(t);
    std::vector<T> got = C0;
    std::fill(got_pre.begin(), got_pre.end(), T{0});
    ok::gemm_ex(got.data(), A.data(), B.data(), m, n, k, lda, ldb, ldc, ta, tb, alpha, beta,
                ep);
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(), want.size() * sizeof(T)))
        << "threads=" << t << ": differs from gemm_packed + unfused epilogue";
    if (op == ok::Epilogue::BiasGelu) {
      EXPECT_EQ(0, std::memcmp(want_pre.data(), got_pre.data(), want_pre.size() * sizeof(T)))
          << "threads=" << t << ": pre-activation differs";
    }
  }
  ok::set_threads(0);
}

TEST(KernelGemm, SmallShapeSweepF32) {
  const index_t sizes[] = {1, 2, 3, 5, 8, 13, 17, 33};
  const ok::Trans forms[] = {ok::Trans::No, ok::Trans::Yes};
  int case_idx = 0;
  for (index_t m : sizes) {
    for (index_t n : sizes) {
      for (index_t k : sizes) {
        // Rotate through transpose forms and alpha/beta pairs so the sweep
        // stays fast but every combination appears many times across shapes.
        const ok::Trans ta = forms[case_idx % 2];
        const ok::Trans tb = forms[(case_idx / 2) % 2];
        const float alphas[] = {1.0f, -0.5f, 0.0f};
        const float betas[] = {0.0f, 1.0f, -0.5f};
        const float alpha = alphas[case_idx % 3];
        const float beta = betas[(case_idx / 3) % 3];
        check_case<float>(m, n, k, ta, tb, alpha, beta);
        ++case_idx;
      }
    }
  }
}

TEST(KernelGemm, AllTransposeFormsAllAlphaBetaF32) {
  // One fixed odd shape, the full 4×9 cross product.
  for (ok::Trans ta : {ok::Trans::No, ok::Trans::Yes}) {
    for (ok::Trans tb : {ok::Trans::No, ok::Trans::Yes}) {
      for (float alpha : {0.0f, 1.0f, -0.5f}) {
        for (float beta : {0.0f, 1.0f, -0.5f}) {
          check_case<float>(13, 19, 29, ta, tb, alpha, beta);
        }
      }
    }
  }
}

TEST(KernelGemm, AllTransposeFormsF64) {
  for (ok::Trans ta : {ok::Trans::No, ok::Trans::Yes}) {
    for (ok::Trans tb : {ok::Trans::No, ok::Trans::Yes}) {
      check_case<double>(17, 23, 31, ta, tb, 1.0, 0.0);
      check_case<double>(5, 67, 7, ta, tb, -0.5, 1.0);
    }
  }
}

TEST(KernelGemm, LargerThanOnePanel) {
  // Crosses the kMC/kKC/kNC panel boundaries (and the microkernel edge
  // handling) in one go.
  check_case<float>(131, 1031, 261, ok::Trans::No, ok::Trans::No, 1.0f, 0.0f);
  check_case<float>(70, 90, 300, ok::Trans::Yes, ok::Trans::Yes, -0.5f, 1.0f);
}

TEST(KernelGemm, DeterministicAcrossThreadCounts) {
  // Bitwise identical output for 1 vs 4 threads (DESIGN.md §5).
  const index_t m = 137, n = 93, k = 211;
  auto A = random_buffer<float>(m * k, 7);
  auto B = random_buffer<float>(k * n, 8);
  std::vector<float> c1(static_cast<std::size_t>(m * n)), c4 = c1;

  ok::set_threads(1);
  ok::gemm(c1.data(), A.data(), B.data(), m, n, k, k, n, n, ok::Trans::No, ok::Trans::No,
           1.0f, 0.0f);
  ok::set_threads(4);
  ok::gemm(c4.data(), A.data(), B.data(), m, n, k, k, n, n, ok::Trans::No, ok::Trans::No,
           1.0f, 0.0f);
  ok::set_threads(0);
  EXPECT_EQ(0, std::memcmp(c1.data(), c4.data(), c1.size() * sizeof(float)));
}

TEST(KernelGemm, CooperativeBitwiseForThreads1Through4EdgeShapes) {
  // The cooperative scheduler claims pack work and MC×NR tiles dynamically;
  // the contract is that ownership never changes arithmetic. Every thread
  // count must reproduce the 1-thread result bit for bit, including shapes
  // that are not multiples of MR (4 or 8), NR (16/32 f32, 8/16 f64) or
  // kKC=256 — the microkernel edge paths and partial K panels.
  struct Shape3 {
    index_t m, n, k;
  };
  const Shape3 shapes[] = {
      {130, 1037, 519},  // crosses kMC/kNC/kKC with remainders everywhere
      {67, 45, 300},     // partial K panel, edge tiles both dims
      {3, 17, 257},      // below one microtile in M, K just past a panel
      {257, 31, 5},      // tall & skinny, tiny K
  };
  auto run = [](auto tag, const Shape3& s) {
    using T = decltype(tag);
    auto A = random_buffer<T>(s.m * s.k, 71);
    auto B = random_buffer<T>(s.k * s.n, 72);
    std::vector<T> base(static_cast<std::size_t>(s.m * s.n));
    ok::set_threads(1);
    ok::gemm(base.data(), A.data(), B.data(), s.m, s.n, s.k, s.k, s.n, s.n,
             ok::Trans::No, ok::Trans::No, T{1}, T{0});
    for (int t : {2, 3, 4}) {
      ok::set_threads(t);
      std::vector<T> got(static_cast<std::size_t>(s.m * s.n));
      ok::gemm(got.data(), A.data(), B.data(), s.m, s.n, s.k, s.k, s.n, s.n,
               ok::Trans::No, ok::Trans::No, T{1}, T{0});
      EXPECT_EQ(0, std::memcmp(base.data(), got.data(), base.size() * sizeof(T)))
          << "threads=" << t << " m=" << s.m << " n=" << s.n << " k=" << s.k;
    }
    ok::set_threads(0);
  };
  for (const auto& s : shapes) {
    run(float{}, s);
    run(double{}, s);
  }
}

template <typename T>
void check_epilogue_bitwise(ok::Epilogue op, index_t m, index_t n, index_t k) {
  auto A = random_buffer<T>(m * k, 81);
  auto B = random_buffer<T>(k * n, 82);
  auto bias = random_buffer<T>(n, 83);
  auto res = random_buffer<T>(m * n, 84);

  std::vector<T> want(static_cast<std::size_t>(m * n));
  std::vector<T> want_pre(static_cast<std::size_t>(m * n), T{0});
  ok::set_threads(1);
  ok::gemm(want.data(), A.data(), B.data(), m, n, k, k, n, n, ok::Trans::No,
           ok::Trans::No, T{1}, T{0});
  epilogue_reference<T>(op, want.data(), bias.data(), res.data(), want_pre.data(), m, n, n);

  ok::EpilogueArgs<T> ep;
  ep.op = op;
  ep.bias = bias.data();
  if (op == ok::Epilogue::ResidualAdd) {
    ep.residual = res.data();
    ep.ldr = n;
  }
  std::vector<T> got_pre(static_cast<std::size_t>(m * n), T{0});
  if (op == ok::Epilogue::BiasGelu) {
    ep.pre = got_pre.data();
    ep.ldp = n;
  }
  for (int t : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "op=" << int(op) << " threads=" << t
                                      << " m=" << m << " n=" << n << " k=" << k);
    ok::set_threads(t);
    std::vector<T> got(static_cast<std::size_t>(m * n));
    std::fill(got_pre.begin(), got_pre.end(), T{0});
    ok::gemm_ex(got.data(), A.data(), B.data(), m, n, k, k, n, n, ok::Trans::No,
                ok::Trans::No, T{1}, T{0}, ep);
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(), want.size() * sizeof(T)))
        << "fused output differs from unfused reference";
    if (op == ok::Epilogue::BiasGelu) {
      EXPECT_EQ(0, std::memcmp(want_pre.data(), got_pre.data(),
                               want_pre.size() * sizeof(T)))
          << "pre-activation differs from unfused reference";
    }
  }
  ok::set_threads(0);
}

TEST(KernelGemmEpilogue, FusedBitwiseVsUnfusedReference) {
  const ok::Epilogue ops_[] = {ok::Epilogue::BiasAdd, ok::Epilogue::BiasGelu,
                               ok::Epilogue::ResidualAdd};
  for (ok::Epilogue op : ops_) {
    // Edge shape (no dimension a multiple of MR/NR/KC) and a multi-panel one.
    check_epilogue_bitwise<float>(op, 67, 45, 300);
    check_epilogue_bitwise<float>(op, 130, 517, 260);
    check_epilogue_bitwise<double>(op, 67, 45, 300);
  }
}

TEST(KernelGemmEpilogue, DegenerateKStillAppliesEpilogue) {
  // k == 0 with beta == 0 zero-fills C and must still run the epilogue tail
  // (bias over zeros), matching the unfused sequence.
  const index_t m = 9, n = 21;
  auto bias = random_buffer<float>(n, 5);
  ok::EpilogueArgs<float> ep;
  ep.op = ok::Epilogue::BiasAdd;
  ep.bias = bias.data();
  std::vector<float> C(static_cast<std::size_t>(m * n),
                       std::numeric_limits<float>::quiet_NaN());
  const float* null_ab = nullptr;
  ok::gemm_ex(C.data(), null_ab, null_ab, m, n, /*k=*/0, 1, n, n, ok::Trans::No,
              ok::Trans::No, 1.0f, 0.0f, ep);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j) ASSERT_EQ(C[i * n + j], bias[j]);
}

// Shapes straddling both register tiles (4×16 / 4×8 and 8×32 / 8×16, see
// gemm.cpp) and the KC = 256 panel edge: m around MR and kMC, n around one
// and two 16-wide f32 vectors, k around one panel. Each case runs one
// epilogue, rotating over all four, and one alpha/beta pair.
class KernelGemmTileEdges
    : public ::testing::TestWithParam<std::tuple<ok::Trans, ok::Trans>> {
 protected:
  template <typename T>
  void sweep() {
    const auto [ta, tb] = GetParam();
    const ok::Epilogue ops_[] = {ok::Epilogue::None, ok::Epilogue::BiasAdd,
                                 ok::Epilogue::BiasGelu, ok::Epilogue::ResidualAdd};
    const T alphas[] = {T{1}, T{-0.5}};
    const T betas[] = {T{0}, T{1}, T{-0.5}};
    int case_idx = 0;
    for (index_t m : {1, 7, 8, 9, 63, 64, 65}) {
      for (index_t n : {15, 16, 17, 31, 32, 33}) {
        for (index_t k : {1, 255, 256, 257}) {
          check_case<T>(m, n, k, ta, tb, alphas[case_idx % 2], betas[(case_idx / 2) % 3],
                        ops_[case_idx % 4]);
          if (HasFatalFailure()) return;
          ++case_idx;
        }
      }
    }
  }
};

TEST_P(KernelGemmTileEdges, F32) { sweep<float>(); }
TEST_P(KernelGemmTileEdges, F64) { sweep<double>(); }

INSTANTIATE_TEST_SUITE_P(
    AllForms, KernelGemmTileEdges,
    ::testing::Combine(::testing::Values(ok::Trans::No, ok::Trans::Yes),
                       ::testing::Values(ok::Trans::No, ok::Trans::Yes)),
    [](const ::testing::TestParamInfo<std::tuple<ok::Trans, ok::Trans>>& info) {
      return std::string(std::get<0>(info.param) == ok::Trans::No ? "N" : "T") +
             (std::get<1>(info.param) == ok::Trans::No ? "N" : "T");
    });

TEST(KernelGemm, BetaZeroStoresOverNaN) {
  // beta == 0 must *store*, never scale: a C buffer full of NaN (as carved
  // from an uninitialised Arena) must come out finite.
  const index_t m = 37, n = 41, k = 53;
  auto A = random_buffer<float>(m * k, 1);
  auto B = random_buffer<float>(k * n, 2);
  std::vector<float> want(static_cast<std::size_t>(m * n), 0.0f);
  gemm_reference(want.data(), A.data(), B.data(), m, n, k, k, n, n, ok::Trans::No,
                 ok::Trans::No, 1.0f, 0.0f);

  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (auto* path : {"packed", "threaded", "dispatch"}) {
    std::vector<float> C(static_cast<std::size_t>(m * n), nan);
    if (std::string(path) == "packed") {
      ok::gemm_packed(C.data(), A.data(), B.data(), m, n, k, k, n, n, ok::Trans::No,
                      ok::Trans::No, 1.0f, 0.0f);
    } else if (std::string(path) == "threaded") {
      ok::set_threads(4);
      ok::gemm(C.data(), A.data(), B.data(), m, n, k, k, n, n, ok::Trans::No, ok::Trans::No,
               1.0f, 0.0f);
      ok::set_threads(0);
    } else {
      ops::gemm_raw(C.data(), A.data(), B.data(), m, n, k, k, n, n, ops::Trans::No,
                    ops::Trans::No, 1.0f, 0.0f);
    }
    for (std::size_t i = 0; i < C.size(); ++i) {
      ASSERT_TRUE(std::isfinite(C[i])) << path << " left non-finite at " << i;
      ASSERT_NEAR(C[i], want[i], 1e-4f) << path << " wrong at " << i;
    }
  }
  // Degenerate k == 0 with beta == 0 must also store zeros, not NaN·0.
  std::vector<float> C(static_cast<std::size_t>(m * n), nan);
  ok::gemm_packed(C.data(), A.data(), B.data(), m, n, /*k=*/0, k, n, n, ok::Trans::No,
                  ok::Trans::No, 1.0f, 0.0f);
  for (float v : C) ASSERT_EQ(v, 0.0f);
}

TEST(KernelRowOps, DeterministicAcrossThreadCounts) {
  // Row-parallel kernels (softmax, bias+GELU), a column-parallel reduction
  // (bias_grad) and the chunked GELU backward must all be bitwise
  // thread-count independent. GELU chunks start at arbitrary offsets, so this
  // also moves elements between the vector body and the scalar remainder.
  using optimus::tensor::Shape;
  using optimus::tensor::TensorT;
  const index_t rows = 97, cols = 201;
  TensorT<float> x(Shape{rows, cols});
  TensorT<float> bias(Shape{cols});
  optimus::util::Rng rng(3);
  for (index_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.uniform(-4, 4));
  for (index_t i = 0; i < cols; ++i) bias[i] = static_cast<float>(rng.uniform(-1, 1));

  struct Out {
    TensorT<float> y, g, pre, act, dx;
  };
  const auto run = [&](int threads) {
    Out o{TensorT<float>(Shape{rows, cols}), TensorT<float>(Shape{cols}), x.clone(),
          TensorT<float>(Shape{rows, cols}), TensorT<float>(Shape{rows, cols})};
    ok::set_threads(threads);
    ops::softmax_lastdim(x, o.y);
    ops::bias_grad(x, o.g, /*accumulate=*/false);
    ops::bias_gelu_(o.pre, bias, o.act);
    ops::gelu_backward(o.pre, x, o.dx, /*accumulate=*/false);
    ok::set_threads(0);
    return o;
  };
  const Out base = run(1);
  for (int t = 2; t <= 4; ++t) {
    const Out o = run(t);
    const auto same = [](const TensorT<float>& a, const TensorT<float>& b) {
      return std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
    };
    EXPECT_TRUE(same(base.y, o.y)) << "softmax, threads " << t;
    EXPECT_TRUE(same(base.g, o.g)) << "bias_grad, threads " << t;
    EXPECT_TRUE(same(base.pre, o.pre)) << "bias_gelu_ pre, threads " << t;
    EXPECT_TRUE(same(base.act, o.act)) << "bias_gelu_ out, threads " << t;
    EXPECT_TRUE(same(base.dx, o.dx)) << "gelu_backward, threads " << t;
  }
}

// ---- GELU and its owned f32 tanh (kernel/activation.hpp) ----

// The f32 body is 16 lanes wide; lengths up to 2·16 + 1 give every mix of
// vector body and scalar remainder.
constexpr index_t kMaxActivationN = 33;
// ULP bound of tanh_f32 against the correctly rounded tanh (activation.hpp).
constexpr std::uint64_t kTanhMaxUlps = 7;

template <typename T>
bool same_bits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

std::uint64_t tanh_ulps(float x) {
  const float want = static_cast<float>(std::tanh(static_cast<double>(x)));
  return optimus::testing::ulp_distance(ok::tanh_f32(x), want);
}

// Inputs over ±12: the pass-through band, the rational band and the clamp.
template <typename T>
std::vector<T> activation_inputs(index_t n, std::uint64_t seed) {
  std::vector<T> v = random_buffer<T>(n, seed);
  for (T& x : v) x *= T{12};
  return v;
}

// bias_gelu on [off, off + n) of each buffer must give, element for element,
// the bits of gelu_scalar — out of place, in place (as the fused epilogue
// calls it) and without a bias (as gelu_forward calls it) — and write nothing
// past n.
template <typename T>
void check_bias_gelu_paths() {
  const T guard = T{-7};
  for (index_t n = 1; n <= kMaxActivationN; ++n) {
    for (index_t off = 0; off < 4; ++off) {
      const index_t len = off + n + 1;
      const std::vector<T> v = activation_inputs<T>(len, 100 + n);
      const std::vector<T> bias = random_buffer<T>(len, 200 + n);
      std::vector<T> pre(len, guard), y(len, guard), nobias(len, guard);
      std::vector<T> inplace = v;
      ok::bias_gelu(v.data() + off, bias.data() + off, pre.data() + off, y.data() + off, n);
      ok::bias_gelu(inplace.data() + off, bias.data() + off, inplace.data() + off,
                    inplace.data() + off, n);
      ok::bias_gelu<T>(v.data() + off, nullptr, nullptr, nobias.data() + off, n);
      for (index_t j = off; j < off + n; ++j) {
        const T u = v[j] + bias[j];
        ASSERT_TRUE(same_bits(pre[j], u)) << "n=" << n << " off=" << off << " j=" << j;
        ASSERT_TRUE(same_bits(y[j], ok::gelu_scalar(u))) << "n=" << n << " off=" << off;
        ASSERT_TRUE(same_bits(inplace[j], ok::gelu_scalar(u))) << "n=" << n << " off=" << off;
        ASSERT_TRUE(same_bits(nobias[j], ok::gelu_scalar(v[j]))) << "n=" << n << " off=" << off;
      }
      EXPECT_EQ(y[off + n], guard);
      EXPECT_EQ(pre[off + n], guard);
      EXPECT_EQ(nobias[off + n], guard);
    }
  }
}

// gelu_backward on [off, off + n) must give each element the bits of the
// one-element call, with and without accumulation, and write nothing else.
template <typename T>
void check_gelu_backward_paths() {
  for (index_t n = 1; n <= kMaxActivationN; ++n) {
    for (index_t off = 0; off < 4; ++off) {
      const index_t len = off + n + 1;
      const std::vector<T> x = activation_inputs<T>(len, 300 + n);
      const std::vector<T> dy = random_buffer<T>(len, 400 + n);
      const std::vector<T> dx0 = random_buffer<T>(len, 500 + n);
      for (bool acc : {false, true}) {
        std::vector<T> dx = dx0;
        ok::gelu_backward(x.data() + off, dy.data() + off, dx.data() + off, n, acc);
        for (index_t j = 0; j < len; ++j) {
          T want = dx0[j];
          if (j >= off && j < off + n) ok::gelu_backward(&x[j], &dy[j], &want, 1, acc);
          ASSERT_TRUE(same_bits(dx[j], want))
              << "n=" << n << " off=" << off << " j=" << j << " accumulate=" << acc;
        }
      }
    }
  }
}

TEST(KernelActivation, ArrayMatchesScalarAtEveryLengthAndOffsetF32) {
  check_bias_gelu_paths<float>();
  check_gelu_backward_paths<float>();
}

TEST(KernelActivation, ArrayMatchesScalarAtEveryLengthAndOffsetF64) {
  check_bias_gelu_paths<double>();
  check_gelu_backward_paths<double>();
}

TEST(KernelActivation, TanhSpecialInputs) {
  const float inf = std::numeric_limits<float>::infinity();
  const float cutoff = 4e-4f, clamp = 9.0f;
  EXPECT_TRUE(same_bits(ok::tanh_f32(0.0f), 0.0f));
  EXPECT_TRUE(same_bits(ok::tanh_f32(-0.0f), -0.0f));
  EXPECT_EQ(ok::tanh_f32(inf), 1.0f);
  EXPECT_EQ(ok::tanh_f32(-inf), -1.0f);
  EXPECT_TRUE(std::isnan(ok::tanh_f32(std::numeric_limits<float>::quiet_NaN())));
  // Subnormals and everything below the cutoff pass through unchanged.
  const float passthrough[] = {std::numeric_limits<float>::denorm_min(),
                               std::nextafter(std::numeric_limits<float>::min(), 0.0f),
                               std::numeric_limits<float>::min(),
                               std::nextafter(cutoff, 0.0f)};
  for (float x : passthrough) {
    EXPECT_TRUE(same_bits(ok::tanh_f32(x), x)) << x;
    EXPECT_TRUE(same_bits(ok::tanh_f32(-x), -x)) << -x;
  }
  // Either side of the cutoff and of the clamp: within the bound, |tanh| ≤ 1.
  const float edges[] = {std::nextafter(cutoff, 0.0f), cutoff, std::nextafter(cutoff, 1.0f),
                         std::nextafter(clamp, 0.0f),  clamp,  std::nextafter(clamp, inf)};
  for (float x : edges) {
    EXPECT_LE(tanh_ulps(x), kTanhMaxUlps) << x;
    EXPECT_LE(tanh_ulps(-x), kTanhMaxUlps) << -x;
    EXPECT_LE(std::fabs(ok::tanh_f32(x)), 1.0f) << x;
  }
  // At and past the clamp the result is exactly ±1.
  for (float x : {clamp, std::nextafter(clamp, inf), 1e30f, std::numeric_limits<float>::max()}) {
    EXPECT_EQ(ok::tanh_f32(x), 1.0f) << x;
    EXPECT_EQ(ok::tanh_f32(-x), -1.0f) << -x;
  }
}

TEST(KernelActivation, GeluSpecialInputsSameOnEveryPath) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float big = std::numeric_limits<float>::max();
  EXPECT_TRUE(same_bits(ok::gelu_scalar(0.0f), 0.0f));
  EXPECT_TRUE(same_bits(ok::gelu_scalar(-0.0f), -0.0f));
  EXPECT_EQ(ok::gelu_scalar(inf), inf);
  EXPECT_EQ(ok::gelu_scalar(big), big);
  EXPECT_EQ(ok::gelu_scalar(-1e30f), 0.0f);  // tanh saturates to exactly −1
  EXPECT_EQ(ok::gelu_scalar(-20.0f), 0.0f);
  EXPECT_TRUE(std::isnan(ok::gelu_scalar(nan)));
  const float dn = std::numeric_limits<float>::denorm_min();
  EXPECT_LE(std::fabs(ok::gelu_scalar(dn)), dn);
  EXPECT_LE(std::fabs(ok::gelu_scalar(-dn)), dn);
  float one = 1.0f, g = 0.0f;
  ok::gelu_backward(&one, &one, &g, 1, false);
  EXPECT_NEAR(g, 1.082964f, 1e-5f);  // d/dx gelu at 1
  const float zero = 0.0f;
  ok::gelu_backward(&zero, &one, &g, 1, false);
  EXPECT_EQ(g, 0.5f);
  const float far = 1e3f;
  ok::gelu_backward(&far, &one, &g, 1, false);
  EXPECT_EQ(g, 1.0f);
  const float neg_far = -1e3f;
  ok::gelu_backward(&neg_far, &one, &g, 1, false);
  EXPECT_EQ(g, 0.0f);

  // Every special input, at every position of a 2·16 + 1 row: same bits as
  // the scalar (NaN as NaN) forward and backward.
  const float specials[] = {0.0f,  -0.0f, inf,   -inf,  nan,   big,   -big,    dn,
                            -dn,   4e-4f, -4e-4f, 9.0f, -9.0f, 1e30f, -1e30f, 1.0f};
  const index_t n = kMaxActivationN;
  for (float s : specials) {
    for (index_t pos = 0; pos < n; ++pos) {
      std::vector<float> x = activation_inputs<float>(n, 7);
      x[pos] = s;
      const std::vector<float> dy(static_cast<std::size_t>(n), 1.0f);
      std::vector<float> y(static_cast<std::size_t>(n)), dx(static_cast<std::size_t>(n));
      ok::bias_gelu<float>(x.data(), nullptr, nullptr, y.data(), n);
      ok::gelu_backward(x.data(), dy.data(), dx.data(), n, false);
      float dx1 = 0.0f;
      ok::gelu_backward(&x[pos], &dy[pos], &dx1, 1, false);
      const float y1 = ok::gelu_scalar(s);
      if (std::isnan(y1)) {
        EXPECT_TRUE(std::isnan(y[pos])) << s << " at " << pos;
      } else {
        EXPECT_TRUE(same_bits(y[pos], y1)) << s << " at " << pos;
      }
      if (std::isnan(dx1)) {
        EXPECT_TRUE(std::isnan(dx[pos])) << s << " at " << pos;
      } else {
        EXPECT_TRUE(same_bits(dx[pos], dx1)) << s << " at " << pos;
      }
    }
  }
}

TEST(KernelActivation, TanhWithinUlpBoundOnStridedSweep) {
  // Every 4093rd bit pattern (≈1.05M inputs, every exponent) against the
  // correctly rounded tanh; the exhaustive sweep of the rational band is the
  // slow-label activation_sweep_test.
  std::uint64_t worst = 0;
  float worst_x = 0.0f;
  for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += 4093) {
    const auto bits = static_cast<std::uint32_t>(u);
    float x;
    std::memcpy(&x, &bits, sizeof(x));
    if (std::isnan(x)) continue;
    const std::uint64_t d = tanh_ulps(x);
    if (d > worst) {
      worst = d;
      worst_x = x;
    }
  }
  EXPECT_LE(worst, kTanhMaxUlps) << "at x = " << worst_x;
}

TEST(KernelThreadBudget, SharedWithDevices) {
  ok::set_threads(8);
  EXPECT_EQ(ok::configured_threads(), 8);
  EXPECT_EQ(ok::effective_threads(), 8);
  {
    ok::ActiveDevicesGuard guard(4);
    EXPECT_EQ(ok::active_devices(), 4);
    EXPECT_EQ(ok::effective_threads(), 2);  // 8 / 4
    {
      ok::ActiveDevicesGuard nested(12);
      EXPECT_EQ(ok::active_devices(), 16);
      EXPECT_EQ(ok::effective_threads(), 1);  // floor at 1
    }
    EXPECT_EQ(ok::active_devices(), 4);
  }
  EXPECT_EQ(ok::active_devices(), 0);
  ok::set_threads(0);
  EXPECT_GE(ok::configured_threads(), 1);
}

TEST(KernelThreadPool, CoversEveryChunkExactlyOnce) {
  ok::set_threads(4);
  const index_t n = 1000, grain = 7;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  for (auto& h : hits) h.store(0);
  ok::ThreadPool::global().parallel_for(n, grain, [&](index_t b, index_t e) {
    EXPECT_LT(b, e);
    EXPECT_LE(e - b, grain);
    for (index_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (index_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
  ok::set_threads(0);
}

TEST(KernelThreadPool, ParallelRangesCoverAndAreContiguous) {
  ok::set_threads(4);
  std::vector<std::atomic<int>> hits(103);
  for (auto& h : hits) h.store(0);
  ok::ThreadPool::global().parallel_ranges(103, 4, [&](index_t b, index_t e) {
    for (index_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1) << i;
  ok::set_threads(0);
}

TEST(KernelThreadPool, PropagatesExceptions) {
  ok::set_threads(4);
  EXPECT_THROW(
      ok::ThreadPool::global().parallel_for(100, 1,
                                            [&](index_t b, index_t) {
                                              if (b == 57) throw std::runtime_error("boom");
                                            }),
      std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<int> count{0};
  ok::ThreadPool::global().parallel_for(10, 1, [&](index_t, index_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
  ok::set_threads(0);
}

TEST(KernelThreadPool, ParallelRegionTidsAndBarrier) {
  // SPMD contract: each participant sees a distinct tid in [0, nthreads), all
  // agree on nthreads, and a barrier separates phases — every participant's
  // phase-1 write must be visible to every participant's phase-2 read.
  ok::set_threads(4);
  std::vector<std::atomic<int>> seen(8);
  for (auto& s : seen) s.store(0);
  std::atomic<int> phase1_sum{0};
  std::atomic<bool> ok_flag{true};
  const int actual =
      ok::ThreadPool::global().parallel_region(4, [&](ok::Region& r) {
        EXPECT_GE(r.tid(), 0);
        EXPECT_LT(r.tid(), r.nthreads());
        seen[static_cast<std::size_t>(r.tid())].fetch_add(1);
        phase1_sum.fetch_add(r.tid() + 1);
        r.barrier();
        // Everyone contributed before anyone passed the barrier.
        const int want = r.nthreads() * (r.nthreads() + 1) / 2;
        if (phase1_sum.load() != want) ok_flag.store(false);
        r.barrier();
      });
  EXPECT_GE(actual, 1);
  EXPECT_LE(actual, 4);
  EXPECT_TRUE(ok_flag.load());
  for (int t = 0; t < actual; ++t)
    EXPECT_EQ(seen[static_cast<std::size_t>(t)].load(), 1) << "tid " << t;
  for (std::size_t t = static_cast<std::size_t>(actual); t < seen.size(); ++t)
    EXPECT_EQ(seen[t].load(), 0) << "tid " << t;
  ok::set_threads(0);
}

TEST(KernelThreadPool, ParallelRegionReusableBackToBack) {
  // The persistent region must be cheap to re-enter: many consecutive regions
  // (the SUMMA k-loop pattern) with claim counters, all covered exactly once.
  ok::set_threads(4);
  for (int round = 0; round < 25; ++round) {
    std::vector<std::atomic<int>> hits(64);
    for (auto& h : hits) h.store(0);
    std::atomic<std::size_t> next{0};
    ok::ThreadPool::global().parallel_region(4, [&](ok::Region& r) {
      (void)r;
      for (std::size_t i = next.fetch_add(1); i < hits.size(); i = next.fetch_add(1))
        hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
  }
  ok::set_threads(0);
}

TEST(KernelThreadPool, NestedRegionsRunInline) {
  // A nested region on a worker thread may be collapsed to a single inline
  // body(0, n) call, so count *covered indices*, not invocations: the range
  // must be covered exactly once either way, with no deadlock.
  ok::set_threads(4);
  std::atomic<int> total{0};
  ok::ThreadPool::global().parallel_for(8, 1, [&](index_t, index_t) {
    ok::ThreadPool::global().parallel_for(
        5, 1, [&](index_t b, index_t e) { total += static_cast<int>(e - b); });
  });
  EXPECT_EQ(total.load(), 40);
  ok::set_threads(0);
}

}  // namespace
