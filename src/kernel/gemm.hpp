#pragma once

// Cache-blocked, panel-packed GEMM with a register-tiled microkernel.
//
// This is the dense-compute floor under every engine in the repo: the BLIS
// decomposition (NC → KC → MC panels, packed A/B, an MR×NR register tile)
// written in C++ with GNU vector extensions for the microkernel. The tile is
// chosen at compile time by the target ISA: 8×32 f32 / 8×16 f64 under
// AVX-512, 4×16 / 4×8 everywhere else. All four transpose forms are handled
// in the packing routines, so one microkernel serves NN/NT/TN/TT.
//
// Threading (gemm / gemm_ex): one GEMM is computed *cooperatively* by a
// single parallel region. For each (jc, pc) panel the packed A blocks and
// packed B strips are produced once into shared buffers (packing itself is
// claimed in parallel), a barrier publishes them, and then workers claim
// MC×NR tile blocks of C dynamically from an atomic counter. Tile ownership
// is dynamic but every output element is produced by exactly one claim with
// the serial loop structure inside, and the K accumulation order is fixed by
// the KC panel size — results are bitwise identical to the serial packed
// path for every thread count. The tile shape does not enter the arithmetic
// either, so both tiles give the same bits.
//
// Semantics: C = alpha·op(A)·op(B) + beta·C on row-major buffers with row
// strides lda/ldb/ldc (of the *stored* matrices, pre-transpose). beta == 0
// *stores* — C may hold NaN/Inf garbage (e.g. an uninitialised Arena slab)
// and must still come out clean.
//
// Epilogues (gemm_ex): an optional fused elementwise tail applied to each
// C tile right after its last K panel is accumulated, while the tile is
// register/L1-hot, instead of a separate full-tensor pass. The contract is
// *bitwise identity with the unfused reference*: each epilogue applies the
// same scalar operations in the same order as the two-pass formulation
// (gemm, then the elementwise op over C), so fused and unfused paths — and
// any thread count — agree to 0 ULPs.

#include <cmath>
#include <cstdint>

namespace optimus::kernel {

using index_t = std::int64_t;

enum class Trans : std::uint8_t { No, Yes };

/// Fused elementwise tails applied per C tile after its final K panel.
enum class Epilogue : std::uint8_t {
  None,         ///< plain GEMM
  BiasAdd,      ///< C[i,j] += bias[j]
  BiasGelu,     ///< v = C[i,j] + bias[j]; pre[i,j] = v (if given); C[i,j] = gelu(v),
                ///< by kernel::bias_gelu (activation.hpp) per tile row
  ResidualAdd,  ///< C[i,j] = (C[i,j] + bias[j]) + residual[i,j]  (bias optional)
};

/// Operands for the fused epilogue. `bias` is a length-n row vector
/// broadcast over rows; `residual` is an m×n matrix with row stride ldr;
/// `pre` (BiasGelu only) receives the biased pre-activation A·B+bias with row
/// stride ldp — the backward pass needs it, and writing it here replaces the
/// separate bias pass over the pre-activation tensor.
template <typename T>
struct EpilogueArgs {
  Epilogue op = Epilogue::None;
  const T* bias = nullptr;
  const T* residual = nullptr;
  index_t ldr = 0;
  T* pre = nullptr;
  index_t ldp = 0;
};

/// Threaded entry point: cooperative packed GEMM over up to
/// effective_threads() workers. Bitwise identical to gemm_packed.
template <typename T>
void gemm(T* C, const T* A, const T* B, index_t m, index_t n, index_t k, index_t lda,
          index_t ldb, index_t ldc, Trans trans_a, Trans trans_b, T alpha, T beta);

/// gemm plus a fused epilogue (see Epilogue). The epilogue is applied to each
/// C tile immediately after its last K panel, in unfused reference order.
template <typename T>
void gemm_ex(T* C, const T* A, const T* B, index_t m, index_t n, index_t k, index_t lda,
             index_t ldb, index_t ldc, Trans trans_a, Trans trans_b, T alpha, T beta,
             const EpilogueArgs<T>& epilogue);

/// Single-thread packed path (the serial reference schedule). Exposed for the
/// bench harness and the kernel tests.
template <typename T>
void gemm_packed(T* C, const T* A, const T* B, index_t m, index_t n, index_t k, index_t lda,
                 index_t ldb, index_t ldc, Trans trans_a, Trans trans_b, T alpha, T beta);

}  // namespace optimus::kernel
