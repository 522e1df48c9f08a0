// GEMM kernels checked against a naive triple-loop reference, across layout
// variants, alpha/beta combinations, and a parameterized shape sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "base/error.h"
#include "base/rng.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace antidote {
namespace {

// Naive reference: C = alpha * op(A) * op(B) + beta * C.
void ref_gemm(bool ta, bool tb, int m, int n, int k, float alpha,
              const std::vector<float>& a, const std::vector<float>& b,
              float beta, std::vector<float>& c) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0;
      for (int p = 0; p < k; ++p) {
        const float av = ta ? a[static_cast<size_t>(p) * m + i]
                            : a[static_cast<size_t>(i) * k + p];
        const float bv = tb ? b[static_cast<size_t>(j) * k + p]
                            : b[static_cast<size_t>(p) * n + j];
        acc += double(av) * bv;
      }
      auto& cv = c[static_cast<size_t>(i) * n + j];
      cv = alpha * static_cast<float>(acc) + beta * cv;
    }
  }
}

std::vector<float> random_vec(size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

struct GemmShape {
  int m, n, k;
};

class GemmShapeTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmShapeTest, NnMatchesReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(17);
  const auto a = random_vec(static_cast<size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<size_t>(k) * n, rng);
  std::vector<float> c(static_cast<size_t>(m) * n, 0.f), ref = c;
  gemm_nn(m, n, k, 1.f, a.data(), b.data(), 0.f, c.data());
  ref_gemm(false, false, m, n, k, 1.f, a, b, 0.f, ref);
  for (size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-3f);
}

TEST_P(GemmShapeTest, NtMatchesReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(18);
  const auto a = random_vec(static_cast<size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<size_t>(n) * k, rng);
  std::vector<float> c(static_cast<size_t>(m) * n, 0.f), ref = c;
  gemm_nt(m, n, k, 1.f, a.data(), b.data(), 0.f, c.data());
  ref_gemm(false, true, m, n, k, 1.f, a, b, 0.f, ref);
  for (size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-3f);
}

TEST_P(GemmShapeTest, TnMatchesReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(19);
  const auto a = random_vec(static_cast<size_t>(k) * m, rng);
  const auto b = random_vec(static_cast<size_t>(k) * n, rng);
  std::vector<float> c(static_cast<size_t>(m) * n, 0.f), ref = c;
  gemm_tn(m, n, k, 1.f, a.data(), b.data(), 0.f, c.data());
  ref_gemm(true, false, m, n, k, 1.f, a, b, 0.f, ref);
  for (size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{1, 7, 3},
                      GemmShape{5, 1, 4}, GemmShape{4, 4, 4},
                      GemmShape{16, 16, 16}, GemmShape{17, 5, 9},
                      GemmShape{33, 65, 31}, GemmShape{64, 128, 27},
                      GemmShape{128, 64, 100},
                      // Odd shapes straddling the blocked kernel's tile
                      // (4x16) and K-slab (256) boundaries, plus panel
                      // edge remainders in every dimension.
                      GemmShape{67, 129, 255}, GemmShape{66, 113, 256},
                      GemmShape{65, 97, 257}, GemmShape{3, 300, 300},
                      GemmShape{130, 15, 301}, GemmShape{41, 513, 64}),
    [](const ::testing::TestParamInfo<GemmShape>& info) {
      return "m" + std::to_string(info.param.m) + "n" +
             std::to_string(info.param.n) + "k" + std::to_string(info.param.k);
    });

// Alpha/beta sweep over all three layout variants at a blocked-path size
// with edge tiles, including aliased beta=1 accumulation into a live C.
struct AlphaBeta {
  float alpha, beta;
};

class GemmAlphaBetaTest : public ::testing::TestWithParam<AlphaBeta> {};

TEST_P(GemmAlphaBetaTest, AllVariantsMatchReference) {
  const auto [alpha, beta] = GetParam();
  const int m = 37, n = 53, k = 270;  // blocked path, ragged edges
  Rng rng(31);
  const auto a_nn = random_vec(static_cast<size_t>(m) * k, rng);
  const auto b_nn = random_vec(static_cast<size_t>(k) * n, rng);
  const auto b_nt = random_vec(static_cast<size_t>(n) * k, rng);
  const auto a_tn = random_vec(static_cast<size_t>(k) * m, rng);
  const auto c0 = random_vec(static_cast<size_t>(m) * n, rng);

  auto c = c0, ref = c0;
  gemm_nn(m, n, k, alpha, a_nn.data(), b_nn.data(), beta, c.data());
  ref_gemm(false, false, m, n, k, alpha, a_nn, b_nn, beta, ref);
  for (size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 2e-3f);

  c = c0;
  ref = c0;
  gemm_nt(m, n, k, alpha, a_nn.data(), b_nt.data(), beta, c.data());
  ref_gemm(false, true, m, n, k, alpha, a_nn, b_nt, beta, ref);
  for (size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 2e-3f);

  c = c0;
  ref = c0;
  gemm_tn(m, n, k, alpha, a_tn.data(), b_nn.data(), beta, c.data());
  ref_gemm(true, false, m, n, k, alpha, a_tn, b_nn, beta, ref);
  for (size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    AlphaBetas, GemmAlphaBetaTest,
    ::testing::Values(AlphaBeta{1.f, 0.f}, AlphaBeta{1.f, 1.f},
                      AlphaBeta{0.5f, 2.f}, AlphaBeta{-1.25f, 1.f},
                      AlphaBeta{2.f, -0.5f}, AlphaBeta{0.f, 1.f}),
    [](const ::testing::TestParamInfo<AlphaBeta>& info) {
      return "case" + std::to_string(info.index);
    });

// gemm_nn's bitwise contract, which the plan-vs-module-walk memcmp gates
// rest on: every C element starts from beta*C (beta 0 clears it, beta 1
// leaves it) and then takes, in ascending k, the product (alpha*a)*b
// added as a separate step. This reference spells that order out in
// float; with contraction off (the library's kernel TUs force it, and
// ISO C++ mode leaves it off here) the results must match to the bit.
void kernel_order_gemm_nn(int m, int n, int k, float alpha, const float* a,
                          const float* b, float beta, float* c) {
  if (beta == 0.f) std::fill(c, c + static_cast<int64_t>(m) * n, 0.f);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = c[static_cast<int64_t>(i) * n + j];
      for (int p = 0; p < k; ++p) {
        const float av = alpha * a[static_cast<int64_t>(i) * k + p];
        const float prod = av * b[static_cast<int64_t>(p) * n + j];
        acc = acc + prod;
      }
      c[static_cast<int64_t>(i) * n + j] = acc;
    }
  }
}

// Every n below, at every k, is run at m = 2304 (the spatial shift-GEMM's
// m), so each lands above the packed-kernel cutoff; n < 16 is nothing but
// ragged edge tiles, and k = 257 spans two K slabs. The smaller m also
// cover the short-row edge and the simple kernel, held to the same order.
TEST(Gemm, NnBitwiseMatchesKernelOrder) {
  Rng rng(41);
  for (int n : {1, 3, 8, 12, 15, 17, 33}) {
    for (int m : {1, 3, 5, 2304}) {
      for (int k : {22, 200, 257}) {
        for (float beta : {0.f, 1.f}) {
          const float alpha = 1.f;
          const auto a = random_vec(static_cast<size_t>(m) * k, rng);
          const auto b = random_vec(static_cast<size_t>(k) * n, rng);
          const auto c0 = random_vec(static_cast<size_t>(m) * n, rng);
          auto c = c0, ref = c0;
          gemm_nn(m, n, k, alpha, a.data(), b.data(), beta, c.data());
          kernel_order_gemm_nn(m, n, k, alpha, a.data(), b.data(), beta,
                               ref.data());
          ASSERT_EQ(std::memcmp(c.data(), ref.data(), c.size() * sizeof(float)),
                    0)
              << "m" << m << " n" << n << " k" << k << " beta " << beta;
        }
      }
    }
  }
}

// alpha is folded into A before the product; a non-unit alpha must round
// exactly as (alpha*a)*b, not alpha*(a*b).
TEST(Gemm, NnBitwiseMatchesKernelOrderWithAlpha) {
  Rng rng(43);
  for (int n : {3, 17}) {
    const int m = 2304, k = 200;
    const float alpha = 1.3f;
    const auto a = random_vec(static_cast<size_t>(m) * k, rng);
    const auto b = random_vec(static_cast<size_t>(k) * n, rng);
    const auto c0 = random_vec(static_cast<size_t>(m) * n, rng);
    auto c = c0, ref = c0;
    gemm_nn(m, n, k, alpha, a.data(), b.data(), 1.f, c.data());
    kernel_order_gemm_nn(m, n, k, alpha, a.data(), b.data(), 1.f, ref.data());
    ASSERT_EQ(std::memcmp(c.data(), ref.data(), c.size() * sizeof(float)), 0)
        << "n" << n;
  }
}

// Repeated beta=1 accumulation into the same C (the weight-gradient
// pattern: dW += dY * cols^T across batch samples) for every variant.
TEST(Gemm, RepeatedAccumulationAllVariants) {
  Rng rng(33);
  const int m = 19, n = 23, k = 68;
  auto c_nn = random_vec(static_cast<size_t>(m) * n, rng);
  auto c_nt = c_nn, c_tn = c_nn;
  auto ref_nn = c_nn, ref_nt = c_nn, ref_tn = c_nn;
  for (int step = 0; step < 3; ++step) {
    const auto a = random_vec(static_cast<size_t>(m) * k, rng);
    const auto b = random_vec(static_cast<size_t>(k) * n, rng);
    const auto bt = random_vec(static_cast<size_t>(n) * k, rng);
    const auto at = random_vec(static_cast<size_t>(k) * m, rng);
    gemm_nn(m, n, k, 1.f, a.data(), b.data(), 1.f, c_nn.data());
    ref_gemm(false, false, m, n, k, 1.f, a, b, 1.f, ref_nn);
    gemm_nt(m, n, k, 1.f, a.data(), bt.data(), 1.f, c_nt.data());
    ref_gemm(false, true, m, n, k, 1.f, a, bt, 1.f, ref_nt);
    gemm_tn(m, n, k, 1.f, at.data(), b.data(), 1.f, c_tn.data());
    ref_gemm(true, false, m, n, k, 1.f, at, b, 1.f, ref_tn);
  }
  for (size_t i = 0; i < c_nn.size(); ++i) {
    EXPECT_NEAR(c_nn[i], ref_nn[i], 2e-3f);
    EXPECT_NEAR(c_nt[i], ref_nt[i], 2e-3f);
    EXPECT_NEAR(c_tn[i], ref_tn[i], 2e-3f);
  }
}

TEST(Gemm, AlphaBetaAccumulation) {
  Rng rng(21);
  const int m = 6, n = 7, k = 5;
  const auto a = random_vec(static_cast<size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<size_t>(k) * n, rng);
  auto c = random_vec(static_cast<size_t>(m) * n, rng);
  auto ref = c;
  gemm_nn(m, n, k, 0.5f, a.data(), b.data(), 2.f, c.data());
  ref_gemm(false, false, m, n, k, 0.5f, a, b, 2.f, ref);
  for (size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-3f);
}

TEST(Gemm, BetaOneAccumulatesNt) {
  Rng rng(22);
  const int m = 4, n = 5, k = 6;
  const auto a = random_vec(static_cast<size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<size_t>(n) * k, rng);
  auto c = random_vec(static_cast<size_t>(m) * n, rng);
  auto ref = c;
  gemm_nt(m, n, k, 1.f, a.data(), b.data(), 1.f, c.data());
  ref_gemm(false, true, m, n, k, 1.f, a, b, 1.f, ref);
  for (size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-3f);
}

TEST(Gemm, MatmulWrapper) {
  Tensor a = Tensor::from_values({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_values({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.shape(), (std::vector<int>{2, 2}));
  EXPECT_FLOAT_EQ(c.at({0, 0}), 58.f);
  EXPECT_FLOAT_EQ(c.at({1, 1}), 154.f);
}

TEST(Gemm, MatmulShapeMismatchThrows) {
  Tensor a({2, 3}), b({4, 2});
  EXPECT_THROW(matmul(a, b), Error);
}

}  // namespace
}  // namespace antidote
