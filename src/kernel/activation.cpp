#include "kernel/activation.hpp"

#include <cmath>
#include <type_traits>

// Built with -ffp-contract=off (src/kernel/CMakeLists.txt): a fused
// multiply-add rounds once where the separate ops round twice, so contraction
// would make the bits depend on which loop, and which ISA, computed them.

namespace optimus::kernel {

namespace {

// Sixteen f32 lanes, one 64-byte vector; GCC lowers it to two ymm or four xmm
// operations without AVX-512. Values are vec_f32; memory is read and written
// through vec_f32_mem, whose alignment of 4 allows any float address.
typedef float vec_f32 __attribute__((vector_size(64)));
typedef float vec_f32_mem __attribute__((vector_size(64), aligned(4), may_alias));
constexpr index_t kLanes = 16;

// tanh over f32 lanes (V is float or vec_f32; both evaluate the same
// expressions, so a lane and a scalar give the same bits). Eigen's rational
// minimax form: p(x)/q(x) with p odd of degree 13 and q even of degree 6, on
// x clamped to ±9, where p/q rounds to exactly ±1 (so tanh(±inf) = ±1, and
// gelu of a large finite negative input is exactly −0). Below |x| < 4e-4 it
// returns x, which is within one ULP of tanh there; the rational form alone
// loses up to ~100 ULPs on subnormals. NaN propagates through the clamp and
// the division.
//
// The helpers pass lanes by reference: a 64-byte vector passed or returned by
// value has a different ABI with and without AVX-512, which GCC warns about.
template <typename V>
inline void tanh_rational(const V& x, V& t) {
  const V clamp = V{} + 9.0f;
  const V tiny = V{} + 4e-4f;
  V xc = x > clamp ? clamp : x;
  xc = xc < -clamp ? -clamp : xc;
  const V x2 = xc * xc;
  V p = x2 * -2.76076847742355e-16f + 2.00018790482477e-13f;
  p = x2 * p + -8.60467152213735e-11f;
  p = x2 * p + 5.12229709037114e-08f;
  p = x2 * p + 1.48572235717979e-05f;
  p = x2 * p + 6.37261928875436e-04f;
  p = x2 * p + 4.89352455891786e-03f;
  p = xc * p;
  V q = x2 * 1.19825839466702e-06f + 1.18534705686654e-04f;
  q = x2 * q + 2.26843463243900e-03f;
  q = x2 * q + 4.89352518554385e-03f;
  const V r = p / q;
  t = ((x < tiny) & (x > -tiny)) ? x : r;
}

inline void tanh_lanes(const float& x, float& t) { tanh_rational(x, t); }
inline void tanh_lanes(const vec_f32& x, vec_f32& t) { tanh_rational(x, t); }
inline void tanh_lanes(const double& x, double& t) { t = std::tanh(x); }

// S is the element type of V. The expressions below keep the operation order
// of the former scalar definitions, so f64 results are bitwise what they were.
template <typename S, typename V>
inline void gelu_lanes(const V& x, V& y) {
  const S c = S(0.7978845608028654);  // sqrt(2/pi)
  const V inner = c * (x + S(0.044715) * x * x * x);
  V t;
  tanh_lanes(inner, t);
  y = S(0.5) * x * (S(1) + t);
}

template <typename S, typename V>
inline void gelu_grad_lanes(const V& x, V& g) {
  const S c = S(0.7978845608028654);
  const V x3 = x * x * x;
  const V inner = c * (x + S(0.044715) * x3);
  V t;
  tanh_lanes(inner, t);
  const V dinner = c * (S(1) + S(3) * S(0.044715) * x * x);
  g = S(0.5) * (S(1) + t) + S(0.5) * x * (S(1) - t * t) * dinner;
}

}  // namespace

template <typename T>
void bias_gelu(const T* v, const T* bias, T* pre, T* y, index_t n) {
  index_t j = 0;
  if constexpr (std::is_same_v<T, float>) {
    for (; j + kLanes <= n; j += kLanes) {
      vec_f32 u = *reinterpret_cast<const vec_f32_mem*>(v + j);
      if (bias != nullptr) u = u + *reinterpret_cast<const vec_f32_mem*>(bias + j);
      if (pre != nullptr) *reinterpret_cast<vec_f32_mem*>(pre + j) = u;
      vec_f32 out;
      gelu_lanes<float>(u, out);
      *reinterpret_cast<vec_f32_mem*>(y + j) = out;
    }
  }
  for (; j < n; ++j) {
    T u = v[j];
    if (bias != nullptr) u = u + bias[j];
    if (pre != nullptr) pre[j] = u;
    gelu_lanes<T>(u, y[j]);
  }
}

template <typename T>
void gelu_backward(const T* x, const T* dy, T* dx, index_t n, bool accumulate) {
  index_t j = 0;
  if constexpr (std::is_same_v<T, float>) {
    for (; j + kLanes <= n; j += kLanes) {
      const vec_f32 xv = *reinterpret_cast<const vec_f32_mem*>(x + j);
      vec_f32 g;
      gelu_grad_lanes<float>(xv, g);
      g = g * *reinterpret_cast<const vec_f32_mem*>(dy + j);
      vec_f32_mem* d = reinterpret_cast<vec_f32_mem*>(dx + j);
      *d = accumulate ? *d + g : g;
    }
  }
  for (; j < n; ++j) {
    T g;
    gelu_grad_lanes<T>(x[j], g);
    g = g * dy[j];
    dx[j] = accumulate ? dx[j] + g : g;
  }
}

float tanh_f32(float x) {
  float t;
  tanh_rational(x, t);
  return t;
}

float gelu_scalar(float x) {
  float y;
  bias_gelu<float>(&x, nullptr, nullptr, &y, 1);
  return y;
}

double gelu_scalar(double x) {
  double y;
  bias_gelu<double>(&x, nullptr, nullptr, &y, 1);
  return y;
}

template void bias_gelu<float>(const float*, const float*, float*, float*, index_t);
template void bias_gelu<double>(const double*, const double*, double*, double*, index_t);
template void gelu_backward<float>(const float*, const float*, float*, index_t, bool);
template void gelu_backward<double>(const double*, const double*, double*, index_t, bool);

}  // namespace optimus::kernel
