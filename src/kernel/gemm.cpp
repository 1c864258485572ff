#include "kernel/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "kernel/activation.hpp"
#include "kernel/thread_pool.hpp"

namespace optimus::kernel {

namespace {

// Register tile: MR×NR accumulators, NR a whole number of 64-byte vectors.
// The shape is fixed at compile time by the target ISA:
//   * AVX-512 (32 zmm registers): 8×32 f32 / 8×16 f64 — two zmm per row, so
//     16 accumulators, enough independent FMA chains to cover the FMA latency
//     on two ports, plus two B vectors and one A broadcast without spilling.
//   * everything else (AVX2 with 16 ymm, the sanitizer presets built without
//     -march=native, non-x86): 4×16 f32 / 4×8 f64 — one 64-byte line per row,
//     which the 16-register files hold without spilling.
// The tile shape does not change any element's arithmetic: every C element
// is still C + Σ_l over one KC panel in l order (see coop_body), so both
// tiles produce the same bits.
template <typename T>
struct Tile;
#ifdef __AVX512F__
template <>
struct Tile<float> {
  static constexpr index_t MR = 8;
  static constexpr index_t NR = 32;
};
template <>
struct Tile<double> {
  static constexpr index_t MR = 8;
  static constexpr index_t NR = 16;
};
#else
template <>
struct Tile<float> {
  static constexpr index_t MR = 4;
  static constexpr index_t NR = 16;
};
template <>
struct Tile<double> {
  static constexpr index_t MR = 4;
  static constexpr index_t NR = 8;
};
#endif

// Elements per 64-byte vector: NR must be a whole number of them.
template <typename T>
constexpr index_t kLanes = 64 / static_cast<index_t>(sizeof(T));
static_assert(Tile<float>::NR % kLanes<float> == 0);
static_assert(Tile<double>::NR % kLanes<double> == 0);

// Cache blocking: the packed A panel (MC×KC) targets L2, the packed B panel
// (KC×NC) L3, and one B strip (KC×NR) stays L1-resident across an MC sweep.
// kKC alone of these fixes the output bits: each C element takes one C + Σ_l
// per KC panel, so changing it changes rounding; MC, NC and the tile do not.
constexpr index_t kMC = 64;
constexpr index_t kKC = 256;
constexpr index_t kNC = 1024;

// Cap on the M extent packed per cooperative stage, so the shared packed-A
// buffer stays bounded (kMOuter×KC elements) for arbitrarily tall inputs.
// Must be a multiple of kMC, and kMC of MR: coop_body locates each A block at
// (row offset / MR) strips into the packed panel.
constexpr index_t kMOuter = 2048;
static_assert(kMOuter % kMC == 0);
static_assert(kMC % Tile<float>::MR == 0 && kMC % Tile<double>::MR == 0);

// Packs op(A)[i0:i0+mc, k0:k0+kc], scaled by alpha, into MR-row strips:
// strip s holds columns k in order, MR consecutive rows per column, rows past
// mc zero-padded so the microkernel never branches on the edge. Both forms
// read the stored matrix along its rows (contiguous) and scatter into the
// strip; the only arithmetic is the one alpha multiply per element.
template <typename T>
void pack_a(const T* A, index_t lda, Trans ta, index_t i0, index_t k0, index_t mc, index_t kc,
            T alpha, T* Ap) {
  constexpr index_t MR = Tile<T>::MR;
  for (index_t is = 0; is < mc; is += MR) {
    const index_t mr = std::min(MR, mc - is);
    if (ta == Trans::Yes) {
      // op(A)(i, k) = A[k, i]: stored row k holds the strip's MR rows.
      for (index_t l = 0; l < kc; ++l) {
        const T* src = A + (k0 + l) * lda + i0 + is;
        for (index_t i = 0; i < mr; ++i) Ap[l * MR + i] = alpha * src[i];
      }
    } else {
      // Stored row i holds strip row i along k: one pass down the strip each.
      for (index_t i = 0; i < mr; ++i) {
        const T* src = A + (i0 + is + i) * lda + k0;
        for (index_t l = 0; l < kc; ++l) Ap[l * MR + i] = alpha * src[l];
      }
    }
    if (mr < MR) {
      for (index_t l = 0; l < kc; ++l)
        for (index_t i = mr; i < MR; ++i) Ap[l * MR + i] = T{0};
    }
    Ap += kc * MR;
  }
}

// Packs op(B)[k0:k0+kc, j0:j0+nc] into NR-column strips: strip s holds rows k
// in order, NR consecutive columns per row, columns past nc zero-padded. As in
// pack_a, both forms read stored rows contiguously.
template <typename T>
void pack_b(const T* B, index_t ldb, Trans tb, index_t k0, index_t j0, index_t kc, index_t nc,
            T* Bp) {
  constexpr index_t NR = Tile<T>::NR;
  for (index_t js = 0; js < nc; js += NR) {
    const index_t nr = std::min(NR, nc - js);
    if (tb == Trans::No) {
      for (index_t l = 0; l < kc; ++l) {
        const T* src = B + (k0 + l) * ldb + j0 + js;
        for (index_t j = 0; j < nr; ++j) Bp[l * NR + j] = src[j];
      }
    } else {
      // op(B)(k, j) = B[j, k]: stored row j is packed column j along k.
      for (index_t j = 0; j < nr; ++j) {
        const T* src = B + (j0 + js + j) * ldb + k0;
        for (index_t l = 0; l < kc; ++l) Bp[l * NR + j] = src[l];
      }
    }
    if (nr < NR) {
      for (index_t l = 0; l < kc; ++l)
        for (index_t j = nr; j < NR; ++j) Bp[l * NR + j] = T{0};
    }
    Bp += kc * NR;
  }
}

// The register-tiled core: acc[MR][NR] += sum_l Ap[l][·] ⊗ Bp[l][·].
//
// Written with GNU vector extensions (GCC/Clang): each accumulator row is NR/
// kLanes native 64-byte vectors (1 zmm each, 2 ymm, 4 xmm, or plain scalars
// elsewhere), and each B vector is loaded once per l and reused down the MR
// rows. One 128-byte vector per row instead runs ~3.5× slower under GCC 12,
// so the row is spelled out as separate 64-byte vectors. Auto-
// vectorization of the equivalent scalar loop is not reliable across types —
// GCC 12 vectorizes the f64 instantiation but leaves f32 scalar — so the
// vector form is spelled out, with a scalar fallback for other compilers.
#if defined(__GNUC__) || defined(__clang__)
#define OPTIMUS_KERNEL_VECTOR_EXT 1
#endif

#ifdef OPTIMUS_KERNEL_VECTOR_EXT
// aligned(alignof(T)): the packed buffers are only element-aligned; may_alias
// because these lvalues access plain T arrays.
typedef float vec_f32 __attribute__((vector_size(64), aligned(4), may_alias));
typedef double vec_f64 __attribute__((vector_size(64), aligned(8), may_alias));
template <typename T>
struct VecOf;
template <>
struct VecOf<float> {
  using type = vec_f32;
};
template <>
struct VecOf<double> {
  using type = vec_f64;
};

template <typename T>
inline void micro_kernel(index_t kc, const T* __restrict Ap, const T* __restrict Bp,
                         T* __restrict acc) {
  constexpr index_t MR = Tile<T>::MR;
  constexpr index_t NR = Tile<T>::NR;
  constexpr index_t NV = NR / kLanes<T>;
  using vec = typename VecOf<T>::type;
  static_assert(sizeof(vec) == kLanes<T> * sizeof(T));
  vec vacc[MR][NV];
  for (index_t i = 0; i < MR; ++i)
    for (index_t v = 0; v < NV; ++v) vacc[i][v] = vec{};
  for (index_t l = 0; l < kc; ++l) {
    vec b[NV];
    for (index_t v = 0; v < NV; ++v)
      b[v] = *reinterpret_cast<const vec*>(Bp + l * NR + v * kLanes<T>);
    const T* a = Ap + l * MR;
    for (index_t i = 0; i < MR; ++i)
      for (index_t v = 0; v < NV; ++v) vacc[i][v] += a[i] * b[v];
  }
  for (index_t i = 0; i < MR; ++i)
    for (index_t v = 0; v < NV; ++v)
      *reinterpret_cast<vec*>(acc + i * NR + v * kLanes<T>) = vacc[i][v];
}
#else
template <typename T>
inline void micro_kernel(index_t kc, const T* __restrict Ap, const T* __restrict Bp,
                         T* __restrict acc) {
  constexpr index_t MR = Tile<T>::MR;
  constexpr index_t NR = Tile<T>::NR;
  for (index_t i = 0; i < MR * NR; ++i) acc[i] = T{0};
  for (index_t l = 0; l < kc; ++l) {
    const T* a = Ap + l * MR;
    const T* b = Bp + l * NR;
    for (index_t i = 0; i < MR; ++i) {
      const T ai = a[i];
      for (index_t j = 0; j < NR; ++j) acc[i * NR + j] += ai * b[j];
    }
  }
}
#endif

// Writes an mr×nr corner of the accumulator tile back into C. The first K
// panel applies beta (beta == 0 stores, never scales — NaN/Inf in C must not
// survive); later panels accumulate.
template <typename T>
void write_tile(T* C, index_t ldc, const T* acc, index_t mr, index_t nr, T beta,
                bool first_panel) {
  constexpr index_t NR = Tile<T>::NR;
  for (index_t i = 0; i < mr; ++i) {
    T* c = C + i * ldc;
    const T* a = acc + i * NR;
    if (!first_panel || beta == T{1}) {
      for (index_t j = 0; j < nr; ++j) c[j] += a[j];
    } else if (beta == T{0}) {
      for (index_t j = 0; j < nr; ++j) c[j] = a[j];
    } else {
      for (index_t j = 0; j < nr; ++j) c[j] = beta * c[j] + a[j];
    }
  }
}

// C = beta·C (beta == 0 stores zeros) — the k == 0 / alpha == 0 degenerate.
template <typename T>
void scale_c(T* C, index_t ldc, index_t m, index_t n, T beta) {
  for (index_t i = 0; i < m; ++i) {
    T* c = C + i * ldc;
    if (beta == T{0}) {
      std::fill(c, c + n, T{0});
    } else if (beta != T{1}) {
      for (index_t j = 0; j < n; ++j) c[j] *= beta;
    }
  }
}

// Applies a fused epilogue to the mr×nr block of C whose top-left element is
// C(gi, gj) globally. Each case performs the same scalar operations in the
// same order as the unfused two-pass reference (gemm, then the elementwise
// pass over C) — that is the bitwise-identity contract.
template <typename T>
void apply_epilogue_block(const EpilogueArgs<T>& ep, T* C, index_t ldc, index_t gi, index_t gj,
                          index_t mr, index_t nr) {
  switch (ep.op) {
    case Epilogue::None:
      return;
    case Epilogue::BiasAdd: {
      const T* bias = ep.bias + gj;
      for (index_t i = 0; i < mr; ++i) {
        T* c = C + i * ldc;
        for (index_t j = 0; j < nr; ++j) c[j] += bias[j];
      }
      return;
    }
    case Epilogue::BiasGelu: {
      const T* bias = ep.bias + gj;
      for (index_t i = 0; i < mr; ++i) {
        T* c = C + i * ldc;
        T* pre = ep.pre != nullptr ? ep.pre + (gi + i) * ep.ldp + gj : nullptr;
        bias_gelu(c, bias, pre, c, nr);
      }
      return;
    }
    case Epilogue::ResidualAdd: {
      for (index_t i = 0; i < mr; ++i) {
        T* c = C + i * ldc;
        const T* res = ep.residual + (gi + i) * ep.ldr + gj;
        if (ep.bias != nullptr) {
          const T* bias = ep.bias + gj;
          for (index_t j = 0; j < nr; ++j) c[j] = (c[j] + bias[j]) + res[j];
        } else {
          for (index_t j = 0; j < nr; ++j) c[j] += res[j];
        }
      }
      return;
    }
  }
}

template <typename T>
std::vector<T>& pack_buffer_a() {
  thread_local std::vector<T> buf;
  return buf;
}

template <typename T>
std::vector<T>& pack_buffer_b() {
  thread_local std::vector<T> buf;
  return buf;
}

// One cache line per claim counter so concurrent fetch_adds on different
// stages never false-share.
struct alignas(64) ClaimCell {
  std::atomic<index_t> v{0};
};

struct ClaimCells {
  std::unique_ptr<ClaimCell[]> cells;
  index_t cap = 0;
  ClaimCell* get(index_t n) {
    if (n > cap) {
      cells = std::make_unique<ClaimCell[]>(static_cast<std::size_t>(n));
      cap = n;
    } else {
      for (index_t i = 0; i < n; ++i) cells[i].v.store(0, std::memory_order_relaxed);
    }
    return cells.get();
  }
};

ClaimCells& claim_cells() {
  thread_local ClaimCells cells;
  return cells;
}

// Everything a cooperative GEMM region needs, owned by the submitting thread.
// `apack`/`bpack` are shared across the whole team; `counters` holds two
// fresh claim counters per (jc, pc, mo) stage (pack tasks, then C tiles), so
// no counter is ever reset mid-flight.
template <typename T>
struct CoopCtx {
  T* C;
  const T* A;
  const T* B;
  index_t m, n, k, lda, ldb, ldc;
  Trans ta, tb;
  T alpha, beta;
  EpilogueArgs<T> ep;
  T* apack;
  T* bpack;
  ClaimCell* counters;
};

// The cooperative schedule, executed SPMD by every thread of a region (a
// serial Region reduces it to the classic single-thread packed loop nest).
//
// Per (jc, pc) panel, per M chunk `mo`:
//   1. pack stage — tasks [0, a_blocks) pack one MC×KC block of A each;
//      on the first M chunk, tasks [a_blocks, a_blocks+n_strips) pack one
//      KC×NR strip of B each. Claimed dynamically from the stage counter.
//   2. barrier — publishes the shared panels.
//   3. tile stage — units of one MC×NR block of C (an MC sweep over one B
//      strip), claimed dynamically; each unit runs the fixed serial
//      microkernel loop, and applies the fused epilogue after the final K
//      panel while the block is register/L1-hot.
//   4. barrier — the next stage may repack the shared buffers.
//
// Every C element is produced by exactly one claimed unit and the K order is
// the serial one, so the result is bitwise identical for any thread count.
template <typename T>
void coop_body(Region& r, const CoopCtx<T>& cx) {
  constexpr index_t MR = Tile<T>::MR;
  constexpr index_t NR = Tile<T>::NR;
  const index_t m = cx.m, n = cx.n, k = cx.k;
  index_t stage = 0;
  for (index_t jc = 0; jc < n; jc += kNC) {
    const index_t nc = std::min(kNC, n - jc);
    const index_t n_strips = (nc + NR - 1) / NR;
    for (index_t pc = 0; pc < k; pc += kKC) {
      const index_t kc = std::min(kKC, k - pc);
      const bool first_panel = pc == 0;
      const bool last_panel = pc + kc >= k;
      for (index_t mo = 0; mo < m; mo += kMOuter, ++stage) {
        const index_t mlen = std::min(kMOuter, m - mo);
        const index_t a_blocks = (mlen + kMC - 1) / kMC;
        // B belongs to the whole (jc, pc) panel: packed on the first M chunk.
        const index_t pack_tasks = a_blocks + (mo == 0 ? n_strips : 0);
        std::atomic<index_t>& pack_ctr = cx.counters[2 * stage].v;
        std::atomic<index_t>& tile_ctr = cx.counters[2 * stage + 1].v;

        for (;;) {
          const index_t t = pack_ctr.fetch_add(1, std::memory_order_relaxed);
          if (t >= pack_tasks) break;
          if (t < a_blocks) {
            const index_t ic = mo + t * kMC;
            const index_t mc = std::min(kMC, m - ic);
            pack_a(cx.A, cx.lda, cx.ta, ic, pc, mc, kc, cx.alpha,
                   cx.apack + (t * kMC / MR) * kc * MR);
          } else {
            const index_t js = t - a_blocks;
            const index_t jr = js * NR;
            pack_b(cx.B, cx.ldb, cx.tb, pc, jc + jr, kc, std::min(NR, nc - jr),
                   cx.bpack + js * kc * NR);
          }
        }
        r.barrier();

        const index_t units = a_blocks * n_strips;
        for (;;) {
          const index_t t = tile_ctr.fetch_add(1, std::memory_order_relaxed);
          if (t >= units) break;
          const index_t ic = mo + (t / n_strips) * kMC;
          const index_t mc = std::min(kMC, m - ic);
          const index_t js = t % n_strips;
          const index_t jr = js * NR;
          const index_t nr = std::min(NR, nc - jr);
          const T* bp = cx.bpack + js * kc * NR;
          const T* ablock = cx.apack + ((t / n_strips) * kMC / MR) * kc * MR;
          for (index_t ir = 0; ir < mc; ir += MR) {
            const index_t mr = std::min(MR, mc - ir);
            const T* ap = ablock + (ir / MR) * kc * MR;
            // micro_kernel fully writes acc (it owns the zero-init).
            alignas(64) T acc[Tile<T>::MR * Tile<T>::NR];
            micro_kernel<T>(kc, ap, bp, acc);
            T* ct = cx.C + (ic + ir) * cx.ldc + jc + jr;
            write_tile(ct, cx.ldc, acc, mr, nr, cx.beta, first_panel);
            if (last_panel) apply_epilogue_block(cx.ep, ct, cx.ldc, ic + ir, jc + jr, mr, nr);
          }
        }
        // The next stage overwrites the shared packed buffers; nobody may
        // still be reading them.
        r.barrier();
      }
    }
  }
}

// Builds the shared workspace + per-stage counters and runs the body with
// `threads` cooperating threads. The buffers live in the submitting thread's
// thread_locals (workers only see raw pointers), so concurrent device
// threads never share workspace.
template <typename T>
void gemm_ex_impl(T* C, const T* A, const T* B, index_t m, index_t n, index_t k, index_t lda,
                  index_t ldb, index_t ldc, Trans ta, Trans tb, T alpha, T beta,
                  const EpilogueArgs<T>& ep, int threads) {
  constexpr index_t MR = Tile<T>::MR;
  if (m <= 0 || n <= 0) return;
  if (k <= 0 || alpha == T{0}) {
    scale_c(C, ldc, m, n, beta);
    apply_epilogue_block(ep, C, ldc, 0, 0, m, n);
    return;
  }

  const index_t n_jc = (n + kNC - 1) / kNC;
  const index_t n_pc = (k + kKC - 1) / kKC;
  const index_t n_mo = (m + kMOuter - 1) / kMOuter;
  const index_t n_stages = n_jc * n_pc * n_mo;

  const index_t a_rows = ((std::min(m, kMOuter) + MR - 1) / MR) * MR;
  std::vector<T>& abuf = pack_buffer_a<T>();
  std::vector<T>& bbuf = pack_buffer_b<T>();
  abuf.resize(static_cast<std::size_t>(a_rows * kKC));
  bbuf.resize(static_cast<std::size_t>(kKC * kNC));

  CoopCtx<T> cx{C,  A,  B,     m,     n,  k,           lda,         ldb, ldc, ta, tb,
                alpha, beta, ep, abuf.data(), bbuf.data(), claim_cells().get(2 * n_stages)};

  if (threads <= 1 || ThreadPool::on_worker_thread()) {
    Region r = Region::serial();
    coop_body(r, cx);
    return;
  }
  ThreadPool::global().parallel_region(threads, [&](Region& r) { coop_body(r, cx); });
}

}  // namespace

template <typename T>
void gemm_packed(T* C, const T* A, const T* B, index_t m, index_t n, index_t k, index_t lda,
                 index_t ldb, index_t ldc, Trans trans_a, Trans trans_b, T alpha, T beta) {
  gemm_ex_impl(C, A, B, m, n, k, lda, ldb, ldc, trans_a, trans_b, alpha, beta,
               EpilogueArgs<T>{}, /*threads=*/1);
}

template <typename T>
void gemm_ex(T* C, const T* A, const T* B, index_t m, index_t n, index_t k, index_t lda,
             index_t ldb, index_t ldc, Trans trans_a, Trans trans_b, T alpha, T beta,
             const EpilogueArgs<T>& epilogue) {
  // Below ~two MC sweeps of work per thread the region overhead dominates.
  constexpr double kMinWorkPerThread = 64.0 * 64.0 * 64.0;
  const double work = static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k);
  int threads = effective_threads();
  if (threads > 1) {
    threads = static_cast<int>(
        std::min<double>(threads, std::max(1.0, work / kMinWorkPerThread)));
  }
  gemm_ex_impl(C, A, B, m, n, k, lda, ldb, ldc, trans_a, trans_b, alpha, beta, epilogue,
               threads);
}

template <typename T>
void gemm(T* C, const T* A, const T* B, index_t m, index_t n, index_t k, index_t lda,
          index_t ldb, index_t ldc, Trans trans_a, Trans trans_b, T alpha, T beta) {
  gemm_ex(C, A, B, m, n, k, lda, ldb, ldc, trans_a, trans_b, alpha, beta, EpilogueArgs<T>{});
}

#define OPTIMUS_INSTANTIATE_KERNEL_GEMM(T)                                                   \
  template void gemm<T>(T*, const T*, const T*, index_t, index_t, index_t, index_t, index_t, \
                        index_t, Trans, Trans, T, T);                                        \
  template void gemm_ex<T>(T*, const T*, const T*, index_t, index_t, index_t, index_t,       \
                           index_t, index_t, Trans, Trans, T, T, const EpilogueArgs<T>&);    \
  template void gemm_packed<T>(T*, const T*, const T*, index_t, index_t, index_t, index_t,   \
                               index_t, index_t, Trans, Trans, T, T);

OPTIMUS_INSTANTIATE_KERNEL_GEMM(float)
OPTIMUS_INSTANTIATE_KERNEL_GEMM(double)

#undef OPTIMUS_INSTANTIATE_KERNEL_GEMM

}  // namespace optimus::kernel
