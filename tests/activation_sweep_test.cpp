// Exhaustive check of the owned f32 tanh (kernel/activation.hpp) over the band
// its rational form covers: every f32 with 4e-4 ≤ |x| ≤ 9.1, both signs
// (≈243M inputs), against the correctly rounded tanh. Below the band tanh_f32
// returns x and above it ±1; kernel_test checks those regions and a strided
// sweep of all 2³² bit patterns.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "kernel/activation.hpp"
#include "testing/ulp.hpp"

namespace {

namespace ok = optimus::kernel;

std::uint32_t bits_of(float x) {
  std::uint32_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

TEST(KernelActivationSweep, TanhWithinSevenUlpsOverTheWholeRationalBand) {
  const std::uint32_t lo = bits_of(4e-4f);
  const std::uint32_t hi = bits_of(9.1f);
  std::uint64_t worst = 0, checked = 0;
  float worst_x = 0.0f;
  for (std::uint32_t sign : {0u, 0x80000000u}) {
    for (std::uint32_t u = lo; u <= hi; ++u) {
      float x;
      const std::uint32_t b = u | sign;
      std::memcpy(&x, &b, sizeof(x));
      const float want = static_cast<float>(std::tanh(static_cast<double>(x)));
      const std::uint64_t d = optimus::testing::ulp_distance(ok::tanh_f32(x), want);
      ++checked;
      if (d > worst) {
        worst = d;
        worst_x = x;
      }
    }
  }
  EXPECT_EQ(checked, 2 * (std::uint64_t{hi} - lo + 1));
  EXPECT_LE(worst, 7u) << "at x = " << worst_x;
  std::printf("tanh_f32: %llu inputs, max %llu ULPs at x = %.9g\n",
              static_cast<unsigned long long>(checked), static_cast<unsigned long long>(worst),
              static_cast<double>(worst_x));
}

}  // namespace
