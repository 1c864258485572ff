#pragma once

// GELU forward and backward as array routines: the one definition of the
// activation that every engine, the fused GEMM epilogue and the tensor ops
// call, so serial, Megatron and Optimus stay at 0 ULPs to each other.
//
// GELU uses the tanh approximation 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³))).
// For f32 the tanh is an owned, branch-free rational minimax form (odd 13th
// over even 6th degree, clamped to ±9, identity below |x| < 4e-4) that
// vectorises; it is within 7 ULPs of the correctly rounded tanh over every
// f32 input. f64 keeps std::tanh: the f64 gradient checks need its accuracy.
//
// Bits do not depend on the path. activation.cpp is built with
// -ffp-contract=off and uses only IEEE-exact +, −, ×, ÷ and compare/select,
// so an element's result is a function of its inputs alone: not of n, offset,
// alignment, the vector body or the scalar remainder, the thread count, or
// whether the kernel was built with -march=native.

#include <cstdint>

namespace optimus::kernel {

using index_t = std::int64_t;

/// The owned f32 tanh behind GELU: within 7 ULPs of the correctly rounded
/// tanh for every f32 input, x itself for |x| < 4e-4, and ±1 for |x| ≥ 9.
float tanh_f32(float x);

/// gelu(x) for one element: the n == 1 case of bias_gelu, so it is bitwise
/// equal to every element the array routines produce.
float gelu_scalar(float x);
double gelu_scalar(double x);

/// One contiguous row: u = v[j] + bias[j] (no add when bias is null);
/// pre[j] = u when pre is non-null; y[j] = gelu(u). `pre` and `y` may alias
/// `v` element for element (in-place), but must not overlap it otherwise.
template <typename T>
void bias_gelu(const T* v, const T* bias, T* pre, T* y, index_t n);

/// dx[j] = gelu'(x[j])·dy[j], or dx[j] += gelu'(x[j])·dy[j] when accumulating.
template <typename T>
void gelu_backward(const T* x, const T* dy, T* dx, index_t n, bool accumulate);

}  // namespace optimus::kernel
