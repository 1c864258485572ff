#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "kernel/activation.hpp"
#include "kernel/gemm.hpp"
#include "obs/trace.hpp"
#include "tensor/parallel.hpp"

namespace optimus::tensor::ops {

namespace {

// Blocked micro-kernel sizes for the naive reference path. The production
// path lives in src/kernel/ (packed panels + register tiling + intra-op
// threading); this blocked loop is kept as the bench baseline and the
// correctness oracle for the kernel tests.
constexpr index_t kBlockM = 32;
constexpr index_t kBlockN = 64;
constexpr index_t kBlockK = 64;

// Below this many multiplications the kernel layer's packing overhead is not
// worth it; the naive blocked loop wins. Shape-only rule, so dispatch is
// deterministic.
constexpr index_t kKernelDispatchCutoff = 16 * 16 * 16;

template <typename T>
inline T element(const T* M, index_t ld, Trans trans, index_t r, index_t c) {
  return trans == Trans::No ? M[r * ld + c] : M[c * ld + r];
}

}  // namespace

template <typename T>
void gemm_raw(T* C, const T* A, const T* B, index_t m, index_t n, index_t k, index_t lda,
              index_t ldb, index_t ldc, Trans trans_a, Trans trans_b, T alpha, T beta) {
  // Span opens before the mult charge, so its simulated duration is exactly
  // compute_time(m·n·k) via the tracer's pending-mults clock extension.
  obs::Span span("kernel", "gemm");
  if (span.armed()) span.arg("m", m).arg("n", n).arg("k", k);
  DeviceContext::current().on_mults(static_cast<std::uint64_t>(m) * n * k);
  if (m * n * k >= kKernelDispatchCutoff) {
    kernel::gemm(C, A, B, m, n, k, lda, ldb, ldc,
                 trans_a == Trans::No ? kernel::Trans::No : kernel::Trans::Yes,
                 trans_b == Trans::No ? kernel::Trans::No : kernel::Trans::Yes, alpha, beta);
    return;
  }
  gemm_naive_raw(C, A, B, m, n, k, lda, ldb, ldc, trans_a, trans_b, alpha, beta);
}

template <typename T>
void gemm_naive_raw(T* C, const T* A, const T* B, index_t m, index_t n, index_t k, index_t lda,
                    index_t ldb, index_t ldc, Trans trans_a, Trans trans_b, T alpha, T beta) {
  // Apply beta first so the accumulation loops can always +=. beta == 0
  // stores (never scales): C may legitimately hold NaN/Inf garbage, e.g. an
  // uninitialised Arena slab handed out by summa::make_temp.
  for (index_t i = 0; i < m; ++i) {
    T* c_row = C + i * ldc;
    if (beta == T{0}) {
      std::fill(c_row, c_row + n, T{0});
    } else if (beta != T{1}) {
      for (index_t j = 0; j < n; ++j) c_row[j] *= beta;
    }
  }

  if (trans_a == Trans::No && trans_b == Trans::No) {
    // Blocked i-k-j with the innermost loop streaming rows of B: cache friendly
    // and auto-vectorisable.
    for (index_t i0 = 0; i0 < m; i0 += kBlockM) {
      const index_t i1 = std::min(i0 + kBlockM, m);
      for (index_t k0 = 0; k0 < k; k0 += kBlockK) {
        const index_t k1 = std::min(k0 + kBlockK, k);
        for (index_t j0 = 0; j0 < n; j0 += kBlockN) {
          const index_t j1 = std::min(j0 + kBlockN, n);
          for (index_t i = i0; i < i1; ++i) {
            T* c_row = C + i * ldc;
            for (index_t kk = k0; kk < k1; ++kk) {
              const T a = alpha * A[i * lda + kk];
              const T* b_row = B + kk * ldb;
              for (index_t j = j0; j < j1; ++j) c_row[j] += a * b_row[j];
            }
          }
        }
      }
    }
    return;
  }

  if (trans_a == Trans::No && trans_b == Trans::Yes) {
    // C[i,j] += alpha * dot(A[i,:], B[j,:]) — both operands row-streamed.
    for (index_t i = 0; i < m; ++i) {
      const T* a_row = A + i * lda;
      T* c_row = C + i * ldc;
      for (index_t j = 0; j < n; ++j) {
        const T* b_row = B + j * ldb;
        T acc{0};
        for (index_t kk = 0; kk < k; ++kk) acc += a_row[kk] * b_row[kk];
        c_row[j] += alpha * acc;
      }
    }
    return;
  }

  if (trans_a == Trans::Yes && trans_b == Trans::No) {
    // C[i,j] += alpha * sum_k A[k,i] * B[k,j] — k-outer keeps both row-major.
    for (index_t kk = 0; kk < k; ++kk) {
      const T* a_row = A + kk * lda;
      const T* b_row = B + kk * ldb;
      for (index_t i = 0; i < m; ++i) {
        const T a = alpha * a_row[i];
        T* c_row = C + i * ldc;
        for (index_t j = 0; j < n; ++j) c_row[j] += a * b_row[j];
      }
    }
    return;
  }

  // Trans::Yes / Trans::Yes — rare; simple triple loop.
  for (index_t i = 0; i < m; ++i) {
    T* c_row = C + i * ldc;
    for (index_t j = 0; j < n; ++j) {
      T acc{0};
      for (index_t kk = 0; kk < k; ++kk) {
        acc += element(A, lda, Trans::Yes, i, kk) * element(B, ldb, Trans::Yes, kk, j);
      }
      c_row[j] += alpha * acc;
    }
  }
}

template <typename T>
TensorT<T> as_matrix(const TensorT<T>& t) {
  OPT_CHECK(t.ndim() >= 2, "as_matrix needs ndim >= 2, got " << t.shape().to_string());
  return t.reshape(Shape{t.numel() / t.shape().last(), t.shape().last()});
}

template <typename T>
void gemm(TensorT<T>& C, const TensorT<T>& A, const TensorT<T>& B, Trans trans_a, Trans trans_b,
          T alpha, T beta) {
  OPT_CHECK(A.ndim() == 2 && B.ndim() == 2 && C.ndim() == 2,
            "gemm operands must be 2-D: " << A.shape().to_string() << " x "
                                          << B.shape().to_string() << " -> "
                                          << C.shape().to_string());
  const index_t m = trans_a == Trans::No ? A.size(0) : A.size(1);
  const index_t k = trans_a == Trans::No ? A.size(1) : A.size(0);
  const index_t kb = trans_b == Trans::No ? B.size(0) : B.size(1);
  const index_t n = trans_b == Trans::No ? B.size(1) : B.size(0);
  OPT_CHECK(k == kb, "gemm inner-dim mismatch: " << k << " vs " << kb);
  OPT_CHECK(C.size(0) == m && C.size(1) == n,
            "gemm output shape " << C.shape().to_string() << ", expected [" << m << ", " << n
                                 << "]");
  gemm_raw(C.data(), A.data(), B.data(), m, n, k, A.size(1), B.size(1), C.size(1), trans_a,
           trans_b, alpha, beta);
}

template <typename T>
TensorT<T> matmul(const TensorT<T>& A, const TensorT<T>& B, Trans trans_a, Trans trans_b) {
  const index_t m = trans_a == Trans::No ? A.size(0) : A.size(1);
  const index_t n = trans_b == Trans::No ? B.size(1) : B.size(0);
  TensorT<T> C(Shape{m, n});
  gemm(C, A, B, trans_a, trans_b, T{1}, T{0});
  return C;
}

// ---------------------------------------------------------------------------
// Fused GEMM epilogues
// ---------------------------------------------------------------------------

namespace {

// The unfused reference tail, used on the naive (below-cutoff) path so fused
// wrappers stay bitwise identical to the kernel's in-tile epilogue there too.
template <typename T>
void epilogue_reference(const kernel::EpilogueArgs<T>& ep, T* C, index_t ldc, index_t m,
                        index_t n) {
  switch (ep.op) {
    case kernel::Epilogue::None:
      return;
    case kernel::Epilogue::BiasAdd:
      for (index_t i = 0; i < m; ++i) {
        T* c = C + i * ldc;
        for (index_t j = 0; j < n; ++j) c[j] += ep.bias[j];
      }
      return;
    case kernel::Epilogue::BiasGelu:
      for (index_t i = 0; i < m; ++i) {
        T* c = C + i * ldc;
        kernel::bias_gelu(c, ep.bias, ep.pre + i * ep.ldp, c, n);
      }
      return;
    case kernel::Epilogue::ResidualAdd:
      for (index_t i = 0; i < m; ++i) {
        T* c = C + i * ldc;
        const T* res = ep.residual + i * ep.ldr;
        for (index_t j = 0; j < n; ++j) c[j] = (c[j] + ep.bias[j]) + res[j];
      }
      return;
  }
}

template <typename T>
void gemm_fused_raw(T* C, const T* A, const T* B, index_t m, index_t n, index_t k, index_t lda,
                    index_t ldb, index_t ldc, Trans trans_a, Trans trans_b,
                    const kernel::EpilogueArgs<T>& ep) {
  obs::Span span("kernel", "gemm");
  if (span.armed()) span.arg("m", m).arg("n", n).arg("k", k);
  DeviceContext::current().on_mults(static_cast<std::uint64_t>(m) * n * k);
  if (m * n * k >= kKernelDispatchCutoff) {
    kernel::gemm_ex(C, A, B, m, n, k, lda, ldb, ldc,
                    trans_a == Trans::No ? kernel::Trans::No : kernel::Trans::Yes,
                    trans_b == Trans::No ? kernel::Trans::No : kernel::Trans::Yes, T{1}, T{0},
                    ep);
    return;
  }
  gemm_naive_raw(C, A, B, m, n, k, lda, ldb, ldc, trans_a, trans_b, T{1}, T{0});
  epilogue_reference(ep, C, ldc, m, n);
}

// Shape resolution shared by the fused wrappers (mirrors gemm's checks).
template <typename T>
void resolve_gemm_shapes(const TensorT<T>& C, const TensorT<T>& A, const TensorT<T>& B,
                         Trans trans_a, Trans trans_b, index_t* m, index_t* n, index_t* k) {
  OPT_CHECK(A.ndim() == 2 && B.ndim() == 2 && C.ndim() == 2,
            "fused gemm operands must be 2-D: " << A.shape().to_string() << " x "
                                                << B.shape().to_string() << " -> "
                                                << C.shape().to_string());
  *m = trans_a == Trans::No ? A.size(0) : A.size(1);
  *k = trans_a == Trans::No ? A.size(1) : A.size(0);
  const index_t kb = trans_b == Trans::No ? B.size(0) : B.size(1);
  *n = trans_b == Trans::No ? B.size(1) : B.size(0);
  OPT_CHECK(*k == kb, "fused gemm inner-dim mismatch: " << *k << " vs " << kb);
  OPT_CHECK(C.size(0) == *m && C.size(1) == *n,
            "fused gemm output shape " << C.shape().to_string() << ", expected [" << *m << ", "
                                       << *n << "]");
}

}  // namespace

template <typename T>
void gemm_bias(TensorT<T>& C, const TensorT<T>& A, const TensorT<T>& B, const TensorT<T>& bias,
               Trans trans_a, Trans trans_b) {
  index_t m = 0, n = 0, k = 0;
  resolve_gemm_shapes(C, A, B, trans_a, trans_b, &m, &n, &k);
  OPT_CHECK(bias.numel() == n, "gemm_bias bias size " << bias.numel() << " != n " << n);
  kernel::EpilogueArgs<T> ep;
  ep.op = kernel::Epilogue::BiasAdd;
  ep.bias = bias.data();
  gemm_fused_raw(C.data(), A.data(), B.data(), m, n, k, A.size(1), B.size(1), C.size(1),
                 trans_a, trans_b, ep);
}

template <typename T>
void gemm_bias_gelu(TensorT<T>& gelu_out, TensorT<T>& pre, const TensorT<T>& A,
                    const TensorT<T>& B, const TensorT<T>& bias, Trans trans_a, Trans trans_b) {
  index_t m = 0, n = 0, k = 0;
  resolve_gemm_shapes(gelu_out, A, B, trans_a, trans_b, &m, &n, &k);
  OPT_CHECK(bias.numel() == n, "gemm_bias_gelu bias size " << bias.numel() << " != n " << n);
  OPT_CHECK(pre.numel() == gelu_out.numel(), "gemm_bias_gelu pre-activation buffer mismatch");
  kernel::EpilogueArgs<T> ep;
  ep.op = kernel::Epilogue::BiasGelu;
  ep.bias = bias.data();
  ep.pre = pre.data();
  ep.ldp = n;
  gemm_fused_raw(gelu_out.data(), A.data(), B.data(), m, n, k, A.size(1), B.size(1),
                 gelu_out.size(1), trans_a, trans_b, ep);
}

template <typename T>
void gemm_bias_residual(TensorT<T>& C, const TensorT<T>& A, const TensorT<T>& B,
                        const TensorT<T>& bias, const TensorT<T>& residual, Trans trans_a,
                        Trans trans_b) {
  index_t m = 0, n = 0, k = 0;
  resolve_gemm_shapes(C, A, B, trans_a, trans_b, &m, &n, &k);
  OPT_CHECK(bias.numel() == n, "gemm_bias_residual bias size " << bias.numel() << " != n " << n);
  OPT_CHECK(residual.numel() == C.numel(), "gemm_bias_residual residual shape mismatch");
  kernel::EpilogueArgs<T> ep;
  ep.op = kernel::Epilogue::ResidualAdd;
  ep.bias = bias.data();
  ep.residual = residual.data();
  ep.ldr = n;
  gemm_fused_raw(C.data(), A.data(), B.data(), m, n, k, A.size(1), B.size(1), C.size(1),
                 trans_a, trans_b, ep);
}

namespace {

// Flat elementwise chunking: big enough to amortise pool dispatch, small
// enough to spread medium tensors across workers.
constexpr index_t kElemGrain = 1 << 14;

}  // namespace

template <typename T>
void add_(TensorT<T>& y, const TensorT<T>& x) {
  OPT_CHECK(y.numel() == x.numel(), "add_ size mismatch");
  T* yp = y.data();
  const T* xp = x.data();
  parallel_for(y.numel(), kElemGrain, [&](index_t i0, index_t i1) {
    for (index_t i = i0; i < i1; ++i) yp[i] += xp[i];
  });
}

template <typename T>
void sub_(TensorT<T>& y, const TensorT<T>& x) {
  OPT_CHECK(y.numel() == x.numel(), "sub_ size mismatch");
  T* yp = y.data();
  const T* xp = x.data();
  parallel_for(y.numel(), kElemGrain, [&](index_t i0, index_t i1) {
    for (index_t i = i0; i < i1; ++i) yp[i] -= xp[i];
  });
}

template <typename T>
void axpy_(TensorT<T>& y, T alpha, const TensorT<T>& x) {
  OPT_CHECK(y.numel() == x.numel(), "axpy_ size mismatch");
  T* yp = y.data();
  const T* xp = x.data();
  parallel_for(y.numel(), kElemGrain, [&](index_t i0, index_t i1) {
    for (index_t i = i0; i < i1; ++i) yp[i] += alpha * xp[i];
  });
}

template <typename T>
void scale_(TensorT<T>& y, T alpha) {
  T* yp = y.data();
  parallel_for(y.numel(), kElemGrain, [&](index_t i0, index_t i1) {
    for (index_t i = i0; i < i1; ++i) yp[i] *= alpha;
  });
}

template <typename T>
TensorT<T> add(const TensorT<T>& a, const TensorT<T>& b) {
  OPT_CHECK(a.shape() == b.shape(), "add shape mismatch");
  TensorT<T> y = a.clone();
  add_(y, b);
  return y;
}

template <typename T>
void add_bias_(TensorT<T>& y, const TensorT<T>& bias) {
  const index_t cols = y.shape().last();
  OPT_CHECK(bias.numel() == cols,
            "bias size " << bias.numel() << " != last dim " << cols);
  const index_t rows = y.numel() / cols;
  T* yp = y.data();
  const T* bp = bias.data();
  parallel_rows(rows, cols, [&](index_t r0, index_t r1) {
    for (index_t r = r0; r < r1; ++r) {
      T* row = yp + r * cols;
      for (index_t j = 0; j < cols; ++j) row[j] += bp[j];
    }
  });
}

template <typename T>
void bias_grad(const TensorT<T>& dy, TensorT<T>& dbias, bool accumulate) {
  const index_t cols = dy.shape().last();
  OPT_CHECK(dbias.numel() == cols, "bias_grad size mismatch");
  const index_t rows = dy.numel() / cols;
  if (!accumulate) dbias.zero();
  const T* dp = dy.data();
  T* bp = dbias.data();
  // Parallel over column blocks, rows accumulated in order inside each —
  // bitwise identical to the serial loop for any thread count.
  parallel_for(cols, /*grain=*/64, [&](index_t j0, index_t j1) {
    for (index_t r = 0; r < rows; ++r) {
      const T* row = dp + r * cols;
      for (index_t j = j0; j < j1; ++j) bp[j] += row[j];
    }
  });
}

template <typename T>
void bias_residual_(TensorT<T>& y, const TensorT<T>& bias, const TensorT<T>& residual) {
  const index_t cols = y.shape().last();
  OPT_CHECK(bias.numel() == cols,
            "bias_residual_ bias size " << bias.numel() << " != last dim " << cols);
  OPT_CHECK(residual.numel() == y.numel(), "bias_residual_ residual size mismatch");
  const index_t rows = y.numel() / cols;
  T* yp = y.data();
  const T* bp = bias.data();
  const T* rp = residual.data();
  parallel_rows(rows, cols, [&](index_t r0, index_t r1) {
    for (index_t r = r0; r < r1; ++r) {
      T* row = yp + r * cols;
      const T* res = rp + r * cols;
      for (index_t j = 0; j < cols; ++j) row[j] = (row[j] + bp[j]) + res[j];
    }
  });
}

template <typename T>
void bias_gelu_(TensorT<T>& x, const TensorT<T>& bias, TensorT<T>& y) {
  const index_t cols = x.shape().last();
  OPT_CHECK(bias.numel() == cols,
            "bias_gelu_ bias size " << bias.numel() << " != last dim " << cols);
  OPT_CHECK(y.numel() == x.numel(), "bias_gelu_ output size mismatch");
  const index_t rows = x.numel() / cols;
  T* xp = x.data();
  const T* bp = bias.data();
  T* yp = y.data();
  parallel_rows(rows, cols, [&](index_t r0, index_t r1) {
    for (index_t r = r0; r < r1; ++r) {
      kernel::bias_gelu(xp + r * cols, bp, xp + r * cols, yp + r * cols, cols);
    }
  });
}

template <typename T>
void gelu_forward(const TensorT<T>& x, TensorT<T>& y) {
  OPT_CHECK(x.numel() == y.numel(), "gelu size mismatch");
  const T* xp = x.data();
  T* yp = y.data();
  parallel_for(x.numel(), kElemGrain, [&](index_t i0, index_t i1) {
    kernel::bias_gelu<T>(xp + i0, nullptr, nullptr, yp + i0, i1 - i0);
  });
}

template <typename T>
void gelu_backward(const TensorT<T>& x, const TensorT<T>& dy, TensorT<T>& dx, bool accumulate) {
  OPT_CHECK(x.numel() == dy.numel() && x.numel() == dx.numel(), "gelu size mismatch");
  const T* xp = x.data();
  const T* dyp = dy.data();
  T* dxp = dx.data();
  parallel_for(x.numel(), kElemGrain, [&](index_t i0, index_t i1) {
    kernel::gelu_backward(xp + i0, dyp + i0, dxp + i0, i1 - i0, accumulate);
  });
}

template <typename T>
void softmax_lastdim(const TensorT<T>& x, TensorT<T>& y) {
  OPT_CHECK(x.numel() == y.numel(), "softmax size mismatch");
  const index_t cols = x.shape().last();
  const index_t rows = x.numel() / cols;
  const T* xp = x.data();
  T* yp = y.data();
  parallel_rows(rows, cols, [&](index_t r0, index_t r1) {
    for (index_t r = r0; r < r1; ++r) {
      const T* in = xp + r * cols;
      T* out = yp + r * cols;
      T mx = in[0];
      for (index_t j = 1; j < cols; ++j) mx = std::max(mx, in[j]);
      T sum{0};
      for (index_t j = 0; j < cols; ++j) {
        out[j] = std::exp(in[j] - mx);
        sum += out[j];
      }
      const T inv = T{1} / sum;
      for (index_t j = 0; j < cols; ++j) out[j] *= inv;
    }
  });
}

template <typename T>
void softmax_backward_lastdim(const TensorT<T>& y, const TensorT<T>& dy, TensorT<T>& dx) {
  OPT_CHECK(y.numel() == dy.numel() && y.numel() == dx.numel(), "softmax size mismatch");
  const index_t cols = y.shape().last();
  const index_t rows = y.numel() / cols;
  const T* yp = y.data();
  const T* dyp = dy.data();
  T* dxp = dx.data();
  parallel_rows(rows, cols, [&](index_t r0, index_t r1) {
    for (index_t r = r0; r < r1; ++r) {
      const T* yr = yp + r * cols;
      const T* dyr = dyp + r * cols;
      T* dxr = dxp + r * cols;
      T dot{0};
      for (index_t j = 0; j < cols; ++j) dot += yr[j] * dyr[j];
      for (index_t j = 0; j < cols; ++j) dxr[j] = yr[j] * (dyr[j] - dot);
    }
  });
}

template <typename T>
void layernorm_forward(const TensorT<T>& x, const TensorT<T>& gamma, const TensorT<T>& beta,
                       T eps, TensorT<T>& y, TensorT<T>& xhat, TensorT<T>& inv_std) {
  const index_t h = x.shape().last();
  const index_t rows = x.numel() / h;
  OPT_CHECK(gamma.numel() == h && beta.numel() == h, "layernorm param size mismatch");
  OPT_CHECK(y.numel() == x.numel() && xhat.numel() == x.numel(), "layernorm buffer mismatch");
  OPT_CHECK(inv_std.numel() == rows, "inv_std must have one entry per row");
  const T* xp = x.data();
  const T* gp = gamma.data();
  const T* bp = beta.data();
  T* yp = y.data();
  T* hp = xhat.data();
  T* sp = inv_std.data();
  parallel_rows(rows, h, [&](index_t r0, index_t r1) {
    for (index_t r = r0; r < r1; ++r) {
      const T* in = xp + r * h;
      T sum{0}, sum_sq{0};
      for (index_t j = 0; j < h; ++j) {
        sum += in[j];
        sum_sq += in[j] * in[j];
      }
      const T mean = sum / static_cast<T>(h);
      const T var = sum_sq / static_cast<T>(h) - mean * mean;
      const T istd = T{1} / std::sqrt(var + eps);
      sp[r] = istd;
      T* hr = hp + r * h;
      T* yr = yp + r * h;
      for (index_t j = 0; j < h; ++j) {
        hr[j] = (in[j] - mean) * istd;
        yr[j] = gp[j] * hr[j] + bp[j];
      }
    }
  });
}

template <typename T>
void layernorm_backward(const TensorT<T>& xhat, const TensorT<T>& inv_std,
                        const TensorT<T>& gamma, const TensorT<T>& dy, TensorT<T>& dx,
                        TensorT<T>& dgamma, TensorT<T>& dbeta, bool accumulate_params) {
  const index_t h = xhat.shape().last();
  const index_t rows = xhat.numel() / h;
  OPT_CHECK(dy.numel() == xhat.numel() && dx.numel() == xhat.numel(), "layernorm grad mismatch");
  OPT_CHECK(dgamma.numel() == h && dbeta.numel() == h, "layernorm param grad mismatch");
  if (!accumulate_params) {
    dgamma.zero();
    dbeta.zero();
  }
  const T* hp = xhat.data();
  const T* sp = inv_std.data();
  const T* gp = gamma.data();
  const T* dyp = dy.data();
  T* dxp = dx.data();
  T* dgp = dgamma.data();
  T* dbp = dbeta.data();
  // Pass 1 — dx, row-parallel: dxhat = dy * gamma, two row statistics, then
  // the closed form from §3.2.2.
  parallel_rows(rows, h, [&](index_t r0, index_t r1) {
    for (index_t r = r0; r < r1; ++r) {
      const T* hr = hp + r * h;
      const T* dyr = dyp + r * h;
      T* dxr = dxp + r * h;
      T sum_dxhat{0}, sum_dxhat_xhat{0};
      for (index_t j = 0; j < h; ++j) {
        const T dxh = dyr[j] * gp[j];
        sum_dxhat += dxh;
        sum_dxhat_xhat += dxh * hr[j];
      }
      const T inv_h = T{1} / static_cast<T>(h);
      for (index_t j = 0; j < h; ++j) {
        const T dxh = dyr[j] * gp[j];
        dxr[j] = sp[r] * (dxh - inv_h * sum_dxhat - inv_h * sum_dxhat_xhat * hr[j]);
      }
    }
  });
  // Pass 2 — parameter grads, column-parallel with rows accumulated in order:
  // bitwise identical to the serial loop for any thread count.
  parallel_for(h, /*grain=*/64, [&](index_t j0, index_t j1) {
    for (index_t r = 0; r < rows; ++r) {
      const T* hr = hp + r * h;
      const T* dyr = dyp + r * h;
      for (index_t j = j0; j < j1; ++j) {
        dgp[j] += dyr[j] * hr[j];
        dbp[j] += dyr[j];
      }
    }
  });
}

template <typename T>
T cross_entropy_forward(const TensorT<T>& logits, const ITensor& labels, TensorT<T>& probs) {
  const index_t v = logits.shape().last();
  const index_t rows = logits.numel() / v;
  OPT_CHECK(labels.numel() == rows, "labels size " << labels.numel() << " != rows " << rows);
  OPT_CHECK(probs.numel() == logits.numel(), "probs buffer mismatch");
  softmax_lastdim(logits, probs);
  const T* pp = probs.data();
  const std::int32_t* lp = labels.data();
  T loss{0};
  index_t active = 0;
  for (index_t r = 0; r < rows; ++r) {
    const std::int32_t label = lp[r];
    if (label < 0) continue;  // masked
    OPT_DCHECK(label < v, "label " << label << " out of vocab " << v);
    const T q = std::max(pp[r * v + label], std::numeric_limits<T>::min());
    loss -= std::log(q);
    ++active;
  }
  return active == 0 ? T{0} : loss / static_cast<T>(active);
}

template <typename T>
void cross_entropy_backward(const TensorT<T>& probs, const ITensor& labels, T scale,
                            TensorT<T>& dlogits) {
  const index_t v = probs.shape().last();
  const index_t rows = probs.numel() / v;
  OPT_CHECK(dlogits.numel() == probs.numel(), "dlogits buffer mismatch");
  const T* pp = probs.data();
  const std::int32_t* lp = labels.data();
  T* dp = dlogits.data();
  parallel_rows(rows, v, [&](index_t r0, index_t r1) {
    for (index_t r = r0; r < r1; ++r) {
      const std::int32_t label = lp[r];
      T* drow = dp + r * v;
      if (label < 0) {
        std::fill(drow, drow + v, T{0});
        continue;
      }
      const T* prow = pp + r * v;
      for (index_t j = 0; j < v; ++j) drow[j] = scale * prow[j];
      drow[label] -= scale;
    }
  });
}

template <typename T>
void embedding_forward(const TensorT<T>& table, const ITensor& tokens, TensorT<T>& y) {
  OPT_CHECK(table.ndim() == 2, "embedding table must be 2-D");
  [[maybe_unused]] const index_t v = table.size(0);
  const index_t h = table.size(1);
  const index_t rows = tokens.numel();
  OPT_CHECK(y.numel() == rows * h, "embedding output mismatch");
  const std::int32_t* tp = tokens.data();
  parallel_rows(rows, h, [&](index_t r0, index_t r1) {
    for (index_t r = r0; r < r1; ++r) {
      const std::int32_t tok = tp[r];
      OPT_DCHECK(tok >= 0 && tok < v, "token " << tok << " out of vocab " << v);
      std::memcpy(y.data() + r * h, table.data() + static_cast<index_t>(tok) * h,
                  static_cast<std::size_t>(h) * sizeof(T));
    }
  });
}

template <typename T>
void embedding_backward(const ITensor& tokens, const TensorT<T>& dy, TensorT<T>& dtable) {
  OPT_CHECK(dtable.ndim() == 2, "embedding table grad must be 2-D");
  const index_t h = dtable.size(1);
  const index_t rows = tokens.numel();
  OPT_CHECK(dy.numel() == rows * h, "embedding grad mismatch");
  const std::int32_t* tp = tokens.data();
  const T* dp = dy.data();
  for (index_t r = 0; r < rows; ++r) {
    T* target = dtable.data() + static_cast<index_t>(tp[r]) * h;
    const T* src = dp + r * h;
    for (index_t j = 0; j < h; ++j) target[j] += src[j];
  }
}

template <typename T>
T sum_all(const TensorT<T>& x) {
  const T* p = x.data();
  T acc{0};
  const index_t n = x.numel();
  for (index_t i = 0; i < n; ++i) acc += p[i];
  return acc;
}

template <typename T>
T max_abs(const TensorT<T>& x) {
  const T* p = x.data();
  T acc{0};
  const index_t n = x.numel();
  for (index_t i = 0; i < n; ++i) acc = std::max(acc, std::abs(p[i]));
  return acc;
}

template <typename T>
T max_abs_diff(const TensorT<T>& a, const TensorT<T>& b) {
  OPT_CHECK(a.numel() == b.numel(), "max_abs_diff size mismatch");
  const T* ap = a.data();
  const T* bp = b.data();
  T acc{0};
  const index_t n = a.numel();
  for (index_t i = 0; i < n; ++i) acc = std::max(acc, std::abs(ap[i] - bp[i]));
  return acc;
}

template <typename T>
T l2_norm(const TensorT<T>& x) {
  const T* p = x.data();
  T acc{0};
  const index_t n = x.numel();
  for (index_t i = 0; i < n; ++i) acc += p[i] * p[i];
  return std::sqrt(acc);
}

template <typename T>
TensorT<T> transpose2d(const TensorT<T>& x) {
  OPT_CHECK(x.ndim() == 2, "transpose2d needs 2-D");
  TensorT<T> y(Shape{x.size(1), x.size(0)});
  for (index_t i = 0; i < x.size(0); ++i) {
    for (index_t j = 0; j < x.size(1); ++j) y.at(j, i) = x.at(i, j);
  }
  return y;
}

template <typename T>
void fill_counter_uniform(TensorT<T>& block, const util::CounterRng& rng, std::uint64_t stream,
                          T scale, index_t row0, index_t col0, index_t global_cols) {
  OPT_CHECK(block.ndim() == 2, "fill_counter_uniform needs a 2-D block");
  const index_t rows = block.size(0);
  const index_t cols = block.size(1);
  OPT_CHECK(col0 + cols <= global_cols, "block exceeds global matrix width");
  // Counter-based RNG is a pure function of the global index, so rows can be
  // filled in parallel without changing a single value.
  parallel_rows(rows, cols, [&](index_t rb, index_t re) {
    for (index_t r = rb; r < re; ++r) {
      for (index_t c = 0; c < cols; ++c) {
        const std::uint64_t idx =
            static_cast<std::uint64_t>(row0 + r) * global_cols + (col0 + c);
        block.at(r, c) = static_cast<T>(rng.symmetric_at(stream, idx, scale));
      }
    }
  });
}

template <typename T, typename U>
TensorT<U> cast(const TensorT<T>& src) {
  TensorT<U> dst(src.shape());
  const T* sp = src.data();
  U* dp = dst.data();
  parallel_for(src.numel(), kElemGrain, [&](index_t i0, index_t i1) {
    for (index_t i = i0; i < i1; ++i) dp[i] = static_cast<U>(sp[i]);
  });
  return dst;
}

// ---------------------------------------------------------------------------
// Explicit instantiations
// ---------------------------------------------------------------------------

#define OPTIMUS_INSTANTIATE_OPS(T)                                                             \
  template void gemm_raw<T>(T*, const T*, const T*, index_t, index_t, index_t, index_t,       \
                            index_t, index_t, Trans, Trans, T, T);                             \
  template void gemm_naive_raw<T>(T*, const T*, const T*, index_t, index_t, index_t,          \
                                  index_t, index_t, index_t, Trans, Trans, T, T);              \
  template void gemm<T>(TensorT<T>&, const TensorT<T>&, const TensorT<T>&, Trans, Trans, T,   \
                        T);                                                                    \
  template TensorT<T> matmul<T>(const TensorT<T>&, const TensorT<T>&, Trans, Trans);          \
  template TensorT<T> as_matrix<T>(const TensorT<T>&);                                        \
  template void add_<T>(TensorT<T>&, const TensorT<T>&);                                      \
  template void sub_<T>(TensorT<T>&, const TensorT<T>&);                                      \
  template void axpy_<T>(TensorT<T>&, T, const TensorT<T>&);                                  \
  template void scale_<T>(TensorT<T>&, T);                                                    \
  template TensorT<T> add<T>(const TensorT<T>&, const TensorT<T>&);                           \
  template void add_bias_<T>(TensorT<T>&, const TensorT<T>&);                                 \
  template void bias_grad<T>(const TensorT<T>&, TensorT<T>&, bool);                           \
  template void bias_residual_<T>(TensorT<T>&, const TensorT<T>&, const TensorT<T>&);         \
  template void bias_gelu_<T>(TensorT<T>&, const TensorT<T>&, TensorT<T>&);                   \
  template void gemm_bias<T>(TensorT<T>&, const TensorT<T>&, const TensorT<T>&,               \
                             const TensorT<T>&, Trans, Trans);                                \
  template void gemm_bias_gelu<T>(TensorT<T>&, TensorT<T>&, const TensorT<T>&,                \
                                  const TensorT<T>&, const TensorT<T>&, Trans, Trans);        \
  template void gemm_bias_residual<T>(TensorT<T>&, const TensorT<T>&, const TensorT<T>&,      \
                                      const TensorT<T>&, const TensorT<T>&, Trans, Trans);    \
  template void gelu_forward<T>(const TensorT<T>&, TensorT<T>&);                              \
  template void gelu_backward<T>(const TensorT<T>&, const TensorT<T>&, TensorT<T>&, bool);    \
  template void softmax_lastdim<T>(const TensorT<T>&, TensorT<T>&);                           \
  template void softmax_backward_lastdim<T>(const TensorT<T>&, const TensorT<T>&,             \
                                            TensorT<T>&);                                     \
  template void layernorm_forward<T>(const TensorT<T>&, const TensorT<T>&, const TensorT<T>&, \
                                     T, TensorT<T>&, TensorT<T>&, TensorT<T>&);               \
  template void layernorm_backward<T>(const TensorT<T>&, const TensorT<T>&, const TensorT<T>&,\
                                      const TensorT<T>&, TensorT<T>&, TensorT<T>&,            \
                                      TensorT<T>&, bool);                                     \
  template T cross_entropy_forward<T>(const TensorT<T>&, const ITensor&, TensorT<T>&);        \
  template void cross_entropy_backward<T>(const TensorT<T>&, const ITensor&, T, TensorT<T>&); \
  template void embedding_forward<T>(const TensorT<T>&, const ITensor&, TensorT<T>&);         \
  template void embedding_backward<T>(const ITensor&, const TensorT<T>&, TensorT<T>&);        \
  template T sum_all<T>(const TensorT<T>&);                                                   \
  template T max_abs<T>(const TensorT<T>&);                                                   \
  template T max_abs_diff<T>(const TensorT<T>&, const TensorT<T>&);                           \
  template T l2_norm<T>(const TensorT<T>&);                                                   \
  template TensorT<T> transpose2d<T>(const TensorT<T>&);                                      \
  template void fill_counter_uniform<T>(TensorT<T>&, const util::CounterRng&, std::uint64_t,  \
                                        T, index_t, index_t, index_t);

OPTIMUS_INSTANTIATE_OPS(float)
OPTIMUS_INSTANTIATE_OPS(double)

template TensorT<double> cast<float, double>(const TensorT<float>&);
template TensorT<float> cast<double, float>(const TensorT<double>&);

#undef OPTIMUS_INSTANTIATE_OPS

}  // namespace optimus::tensor::ops
