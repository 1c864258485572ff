// Tests for the three SUMMA product forms: distributed results must equal the
// serial product of the gathered global matrices, across mesh sides 1..4,
// with and without the pre-allocated workspace, and the differentiation
// closure (eqs. 1–3 of the paper) must hold end-to-end.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "comm/cluster.hpp"
#include "mesh/mesh.hpp"
#include "perfmodel/memory.hpp"
#include "perfmodel/validation.hpp"
#include "summa/summa.hpp"
#include "tensor/distribution.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"

namespace oc = optimus::comm;
namespace om = optimus::mesh;
namespace os = optimus::summa;
namespace ot = optimus::tensor;
namespace ops = optimus::tensor::ops;
using ot::DTensor;
using ot::Shape;

namespace {

// gtest names each case by hex-dumping this struct, so it has no padding
// bytes (q is as wide as the dims, the tail is a named zeroed member): padding
// holds whatever the stack held and the test names would change from run to
// run.
struct SummaCase {
  ot::index_t q;
  ot::index_t m, k, n;  // global dims, all divisible by q
  bool use_workspace;
  std::uint8_t zero_pad[7]{};
};
static_assert(std::has_unique_object_representations_v<SummaCase>);

// Runs a distributed op on a q×q cluster where each device gets its block of
// the global inputs, then gathers every device's C block into a global
// result on the host for comparison.
template <typename DistributedOp>
DTensor run_summa_case(const SummaCase& c, const DTensor& A_global, const DTensor& B_global,
                       Shape c_global_shape, const DistributedOp& op) {
  DTensor C_global = DTensor::zeros(c_global_shape);
  std::mutex mu;
  oc::run_cluster(static_cast<int>(c.q * c.q), [&](oc::Context& ctx) {
    om::Mesh2D mesh(ctx.world);
    DTensor A = ot::matrix_block(A_global, c.q, mesh.row(), mesh.col());
    DTensor B = ot::matrix_block(B_global, c.q, mesh.row(), mesh.col());
    DTensor C(Shape{c_global_shape[0] / c.q, c_global_shape[1] / c.q});
    C.zero();
    std::unique_ptr<ot::Arena> workspace;
    if (c.use_workspace) {
      workspace = std::make_unique<ot::Arena>(
          "ws", os::workspace_bytes(A.numel(), B.numel(), C.numel(), sizeof(double)));
    }
    op(mesh, A, B, C, workspace.get());
    std::lock_guard<std::mutex> lock(mu);
    ot::set_matrix_block(C_global, c.q, mesh.row(), mesh.col(), C);
  });
  return C_global;
}

class SummaSweep : public ::testing::TestWithParam<SummaCase> {};

}  // namespace

TEST_P(SummaSweep, AbMatchesSerialProduct) {
  const SummaCase c = GetParam();
  optimus::util::Rng rng(17);
  DTensor A = optimus::testing::random_dtensor(Shape{c.m, c.k}, rng);
  DTensor B = optimus::testing::random_dtensor(Shape{c.k, c.n}, rng);
  DTensor C = run_summa_case(
      c, A, B, Shape{c.m, c.n},
      [](om::Mesh2D& mesh, const DTensor& a, const DTensor& b, DTensor& out, ot::Arena* ws) {
        os::summa_ab(mesh, a, b, out, false, ws);
      });
  DTensor ref = ops::matmul(A, B);
  EXPECT_LT(ops::max_abs_diff(C, ref), 1e-11);
}

TEST_P(SummaSweep, AbtMatchesSerialProduct) {
  const SummaCase c = GetParam();
  optimus::util::Rng rng(18);
  // C[m, k] = A[m, n] · B[k, n]ᵀ — reuse (m, k, n) as (rows of A, rows of B, shared dim).
  DTensor A = optimus::testing::random_dtensor(Shape{c.m, c.n}, rng);
  DTensor B = optimus::testing::random_dtensor(Shape{c.k, c.n}, rng);
  DTensor C = run_summa_case(
      c, A, B, Shape{c.m, c.k},
      [](om::Mesh2D& mesh, const DTensor& a, const DTensor& b, DTensor& out, ot::Arena* ws) {
        os::summa_abt(mesh, a, b, out, false, ws);
      });
  DTensor ref = ops::matmul(A, B, ops::Trans::No, ops::Trans::Yes);
  EXPECT_LT(ops::max_abs_diff(C, ref), 1e-11);
}

TEST_P(SummaSweep, AtbMatchesSerialProduct) {
  const SummaCase c = GetParam();
  optimus::util::Rng rng(19);
  // C[n, k] = A[m, n]ᵀ · B[m, k].
  DTensor A = optimus::testing::random_dtensor(Shape{c.m, c.n}, rng);
  DTensor B = optimus::testing::random_dtensor(Shape{c.m, c.k}, rng);
  DTensor C = run_summa_case(
      c, A, B, Shape{c.n, c.k},
      [](om::Mesh2D& mesh, const DTensor& a, const DTensor& b, DTensor& out, ot::Arena* ws) {
        os::summa_atb(mesh, a, b, out, false, ws);
      });
  DTensor ref = ops::matmul(A, B, ops::Trans::Yes, ops::Trans::No);
  EXPECT_LT(ops::max_abs_diff(C, ref), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    MeshAndShapes, SummaSweep,
    ::testing::Values(SummaCase{1, 4, 6, 8, false}, SummaCase{2, 4, 6, 8, false},
                      SummaCase{2, 4, 6, 8, true}, SummaCase{3, 6, 9, 12, false},
                      SummaCase{3, 6, 9, 12, true}, SummaCase{4, 8, 12, 16, true},
                      SummaCase{2, 16, 8, 24, true}));

TEST(Summa, AccumulateAddsIntoExistingC) {
  const int q = 2;
  optimus::util::Rng rng(20);
  DTensor A = optimus::testing::random_dtensor(Shape{4, 6}, rng);
  DTensor B = optimus::testing::random_dtensor(Shape{6, 8}, rng);
  DTensor C_global = DTensor::zeros(Shape{4, 8});
  std::mutex mu;
  oc::run_cluster(q * q, [&](oc::Context& ctx) {
    om::Mesh2D mesh(ctx.world);
    DTensor a = ot::matrix_block(A, q, mesh.row(), mesh.col());
    DTensor b = ot::matrix_block(B, q, mesh.row(), mesh.col());
    DTensor c = DTensor::full(Shape{2, 4}, 1.0);
    os::summa_ab(mesh, a, b, c, /*accumulate=*/true);
    std::lock_guard<std::mutex> lock(mu);
    ot::set_matrix_block(C_global, q, mesh.row(), mesh.col(), c);
  });
  DTensor ref = ops::matmul(A, B);
  for (ot::index_t i = 0; i < ref.numel(); ++i) EXPECT_NEAR(C_global[i], ref[i] + 1.0, 1e-11);
}

TEST(Summa, DifferentiationClosureGradCheck) {
  // Forward C = A·B distributed; backward dA = dC·Bᵀ (Alg 2), dB = Aᵀ·dC
  // (Alg 3). The assembled gradients must match finite differences of the
  // scalar loss  L = Σ (A·B) ⊙ G  computed serially.
  const int q = 2;
  optimus::util::Rng rng(21);
  DTensor A = optimus::testing::random_dtensor(Shape{4, 6}, rng);
  DTensor B = optimus::testing::random_dtensor(Shape{6, 4}, rng);
  DTensor G = optimus::testing::random_dtensor(Shape{4, 4}, rng);

  DTensor dA_global = DTensor::zeros(A.shape());
  DTensor dB_global = DTensor::zeros(B.shape());
  std::mutex mu;
  oc::run_cluster(q * q, [&](oc::Context& ctx) {
    om::Mesh2D mesh(ctx.world);
    DTensor a = ot::matrix_block(A, q, mesh.row(), mesh.col());
    DTensor b = ot::matrix_block(B, q, mesh.row(), mesh.col());
    DTensor g = ot::matrix_block(G, q, mesh.row(), mesh.col());
    DTensor da(a.shape()), db(b.shape());
    da.zero();
    db.zero();
    os::summa_abt(mesh, g, b, da);  // dA = dC·Bᵀ
    os::summa_atb(mesh, a, g, db);  // dB = Aᵀ·dC
    std::lock_guard<std::mutex> lock(mu);
    ot::set_matrix_block(dA_global, q, mesh.row(), mesh.col(), da);
    ot::set_matrix_block(dB_global, q, mesh.row(), mesh.col(), db);
  });

  auto loss = [&] {
    DTensor C = ops::matmul(A, B);
    double acc = 0;
    for (ot::index_t i = 0; i < C.numel(); ++i) acc += C[i] * G[i];
    return acc;
  };
  optimus::testing::check_gradient(A, loss, dA_global, 1e-6, 1e-7);
  optimus::testing::check_gradient(B, loss, dB_global, 1e-6, 1e-7);
}

TEST(Summa, WorkspaceIsFullyReleasedAfterCall) {
  const int q = 2;
  oc::run_cluster(q * q, [&](oc::Context& ctx) {
    om::Mesh2D mesh(ctx.world);
    DTensor a = DTensor::zeros(Shape{2, 3});
    DTensor b = DTensor::zeros(Shape{3, 4});
    DTensor c = DTensor::zeros(Shape{2, 4});
    ot::Arena ws("ws", os::workspace_bytes(a.numel(), b.numel(), c.numel(), sizeof(double)));
    os::summa_ab(mesh, a, b, c, false, &ws);
    ASSERT_EQ(ws.used(), 0u);
    ASSERT_GT(ws.high_water(), 0u);
    // Repeated calls reuse the same slab without growth.
    os::summa_ab(mesh, a, b, c, false, &ws);
    os::summa_abt(mesh, c, b, a, false, &ws);
    ASSERT_EQ(ws.used(), 0u);
  });
}

TEST(Summa, CommunicationVolumeMatchesAlgorithm1Accounting) {
  // Per device, summa_ab moves q broadcasts of A blocks in rows and q of B
  // blocks in columns; weighted units must equal log2(q)·q·(|A|+|B|)/... —
  // checked directly against the stats counters.
  const int q = 2;
  auto report = oc::run_cluster(q * q, [&](oc::Context& ctx) {
    om::Mesh2D mesh(ctx.world);
    DTensor a = DTensor::zeros(Shape{4, 6});
    DTensor b = DTensor::zeros(Shape{6, 8});
    DTensor c = DTensor::zeros(Shape{4, 8});
    os::summa_ab(mesh, a, b, c);
  });
  const auto& s = report.ranks[0].stats;
  // q row-broadcasts of 24 elements + q column-broadcasts of 48 elements.
  EXPECT_EQ(s.broadcast.calls, static_cast<std::uint64_t>(2 * q));
  EXPECT_EQ(s.broadcast.elems, static_cast<std::uint64_t>(q * 24 + q * 48));
  // log2(2) = 1 per broadcast in a group of 2.
  EXPECT_DOUBLE_EQ(s.broadcast.weighted, q * 24.0 + q * 48.0);
  EXPECT_EQ(s.reduce.calls, 0u);
}

TEST(Summa, NanPoisonedWorkspaceIsHarmless) {
  // Regression for beta semantics in the kernel layer: with accumulate=false
  // the first SUMMA step runs beta == 0, which must *store* into C and into
  // any workspace-carved temporaries — never scale them. Poison the whole
  // arena slab with NaN first; any read-before-write of workspace memory (or
  // a beta path that multiplies stale C) surfaces as NaN in the result.
  const int q = 2;
  const ot::index_t m = 8, k = 12, n = 16;
  optimus::util::Rng rng(29);
  DTensor A_global = optimus::testing::random_dtensor(Shape{m, k}, rng);
  DTensor B_global = optimus::testing::random_dtensor(Shape{k, n}, rng);
  DTensor C_global = DTensor::zeros(Shape{m, n});
  std::mutex mu;
  oc::run_cluster(q * q, [&](oc::Context& ctx) {
    om::Mesh2D mesh(ctx.world);
    DTensor A = ot::matrix_block(A_global, q, mesh.row(), mesh.col());
    DTensor B = ot::matrix_block(B_global, q, mesh.row(), mesh.col());
    const std::uint64_t cap =
        os::workspace_bytes(A.numel(), B.numel(), (m / q) * (n / q), sizeof(double));
    ot::Arena ws("poisoned", cap);
    {
      // Fill the entire slab with NaN, then reset so SUMMA re-carves it.
      DTensor poison = ws.alloc<double>(Shape{static_cast<ot::index_t>(cap / sizeof(double))});
      const double nan = std::numeric_limits<double>::quiet_NaN();
      for (ot::index_t i = 0; i < poison.numel(); ++i) poison[i] = nan;
      ws.reset();
    }
    // C itself is also NaN-poisoned: accumulate=false must overwrite it.
    DTensor C(Shape{m / q, n / q});
    for (ot::index_t i = 0; i < C.numel(); ++i) C[i] = std::numeric_limits<double>::quiet_NaN();
    os::summa_ab(mesh, A, B, C, /*accumulate=*/false, &ws);
    std::lock_guard<std::mutex> lock(mu);
    ot::set_matrix_block(C_global, q, mesh.row(), mesh.col(), C);
  });
  for (ot::index_t i = 0; i < C_global.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(C_global[i])) << "NaN leaked into C at " << i;
  }
  DTensor ref = ops::matmul(A_global, B_global);
  EXPECT_LT(ops::max_abs_diff(C_global, ref), 1e-11);
}

// ---------------------------------------------------------------------------
// Pipelined schedule: bitwise identity and the overlap clock model
// ---------------------------------------------------------------------------

namespace {

// Gathers the global C of one form under the given pipeline mode.
template <typename FormOp>
DTensor run_form(int q, const DTensor& A_global, const DTensor& B_global,
                 Shape c_global_shape, bool pipelined, bool accumulate, const FormOp& op) {
  DTensor C_global = DTensor::zeros(c_global_shape);
  std::mutex mu;
  oc::run_cluster(q * q, [&](oc::Context& ctx) {
    os::PipelineGuard guard(pipelined);
    om::Mesh2D mesh(ctx.world);
    DTensor A = ot::matrix_block(A_global, q, mesh.row(), mesh.col());
    DTensor B = ot::matrix_block(B_global, q, mesh.row(), mesh.col());
    DTensor C(Shape{c_global_shape[0] / q, c_global_shape[1] / q});
    // Deterministic nonzero C start so accumulate=true is exercised for real.
    for (ot::index_t i = 0; i < C.numel(); ++i) {
      C[i] = accumulate ? 0.125 * static_cast<double>(i + mesh.row() + mesh.col()) : 0.0;
    }
    ot::Arena ws("ws", os::workspace_bytes(A.numel(), B.numel(), C.numel(), sizeof(double)));
    op(mesh, A, B, C, accumulate, &ws);
    std::lock_guard<std::mutex> lock(mu);
    ot::set_matrix_block(C_global, q, mesh.row(), mesh.col(), C);
  });
  return C_global;
}

}  // namespace

TEST(SummaPipeline, AllFormsBitwiseIdenticalToBlocking) {
  // The pipelined schedule moves identical payloads from identical roots and
  // accumulates in the identical order — results must match to the bit
  // (0 ULPs), for every form, mesh side and accumulate mode.
  const auto ab = [](om::Mesh2D& m, const DTensor& a, const DTensor& b, DTensor& c,
                     bool acc, ot::Arena* ws) { os::summa_ab(m, a, b, c, acc, ws); };
  const auto abt = [](om::Mesh2D& m, const DTensor& a, const DTensor& b, DTensor& c,
                      bool acc, ot::Arena* ws) { os::summa_abt(m, a, b, c, acc, ws); };
  const auto atb = [](om::Mesh2D& m, const DTensor& a, const DTensor& b, DTensor& c,
                      bool acc, ot::Arena* ws) { os::summa_atb(m, a, b, c, acc, ws); };
  for (int q : {2, 3, 4}) {
    const ot::index_t m = 2 * q, k = 3 * q, n = 4 * q;
    optimus::util::Rng rng(60 + q);
    for (const bool accumulate : {false, true}) {
      {
        DTensor A = optimus::testing::random_dtensor(Shape{m, k}, rng);
        DTensor B = optimus::testing::random_dtensor(Shape{k, n}, rng);
        DTensor blocking = run_form(q, A, B, Shape{m, n}, false, accumulate, ab);
        DTensor pipelined = run_form(q, A, B, Shape{m, n}, true, accumulate, ab);
        for (ot::index_t i = 0; i < blocking.numel(); ++i) {
          ASSERT_EQ(pipelined[i], blocking[i]) << "ab q=" << q << " i=" << i;
        }
      }
      {
        DTensor A = optimus::testing::random_dtensor(Shape{m, n}, rng);
        DTensor B = optimus::testing::random_dtensor(Shape{k, n}, rng);
        DTensor blocking = run_form(q, A, B, Shape{m, k}, false, accumulate, abt);
        DTensor pipelined = run_form(q, A, B, Shape{m, k}, true, accumulate, abt);
        for (ot::index_t i = 0; i < blocking.numel(); ++i) {
          ASSERT_EQ(pipelined[i], blocking[i]) << "abt q=" << q << " i=" << i;
        }
      }
      {
        DTensor A = optimus::testing::random_dtensor(Shape{m, n}, rng);
        DTensor B = optimus::testing::random_dtensor(Shape{m, k}, rng);
        DTensor blocking = run_form(q, A, B, Shape{n, k}, false, accumulate, atb);
        DTensor pipelined = run_form(q, A, B, Shape{n, k}, true, accumulate, atb);
        for (ot::index_t i = 0; i < blocking.numel(); ++i) {
          ASSERT_EQ(pipelined[i], blocking[i]) << "atb q=" << q << " i=" << i;
        }
      }
    }
  }
}

TEST(SummaPipeline, BlockingScheduleBucketsCollectiveTimeAsTransfer) {
  // Under the blocking schedule every collective entry aligns (align_wait)
  // and then advances by exactly its modelled dt (transfer), so a rank's
  // transfer bucket is the sum of its broadcast and reduce times. That holds
  // on q×q×d meshes too: the depth fold's reduce and broadcast are blocking.
  // The bucket adds the dts in call order and the stats per op kind, so the
  // interleaved reduce forms may differ in the last bits.
  struct MeshCase {
    int q, d;
    ot::index_t mb, kb, nb;  // at d > 1, multiples of d so each contraction splits
  };
  const MeshCase cases[] = {{2, 1, 2, 3, 4}, {3, 1, 2, 3, 4}, {4, 1, 2, 3, 4},
                            {2, 2, 4, 8, 12}, {1, 4, 4, 8, 12}};
  for (const MeshCase& mc : cases) {
    const int q = mc.q, d = mc.d;
    const ot::index_t mb = mc.mb, kb = mc.kb, nb = mc.nb;
    for (const char* form : {"ab", "abt", "atb"}) {
      const std::string f = form;
      const auto report = oc::run_cluster(q * q * d, [&](oc::Context& ctx) {
        os::PipelineGuard guard(false);
        om::Mesh2D mesh(ctx.world, d);
        if (f == "ab") {
          DTensor A = DTensor::zeros(Shape{mb, kb});
          DTensor B = DTensor::zeros(Shape{kb, nb});
          DTensor C = DTensor::zeros(Shape{mb, nb});
          os::summa_ab(mesh, A, B, C);
        } else if (f == "abt") {
          DTensor A = DTensor::zeros(Shape{mb, nb});
          DTensor B = DTensor::zeros(Shape{kb, nb});
          DTensor C = DTensor::zeros(Shape{mb, kb});
          os::summa_abt(mesh, A, B, C);
        } else {
          DTensor A = DTensor::zeros(Shape{mb, nb});
          DTensor B = DTensor::zeros(Shape{mb, kb});
          DTensor C = DTensor::zeros(Shape{nb, kb});
          os::summa_atb(mesh, A, B, C);
        }
      });
      for (std::size_t r = 0; r < report.ranks.size(); ++r) {
        const auto& rank = report.ranks[r];
        EXPECT_GT(rank.util.transfer, 0.0) << f << " q=" << q << " d=" << d << " rank " << r;
        EXPECT_DOUBLE_EQ(rank.util.transfer,
                         rank.stats.broadcast.time + rank.stats.reduce.time)
            << f << " q=" << q << " d=" << d << " rank " << r;
        if (d > 1) {
          EXPECT_GT(rank.stats.reduce.time, 0.0) << f << " q=" << q << " d=" << d << " rank " << r;
        } else if (f == "ab") {
          EXPECT_EQ(rank.util.transfer, rank.stats.broadcast.time) << "q=" << q << " rank " << r;
        }
      }
    }
  }
}

TEST(Summa, WorkspaceEnvelopePinnedAcrossDepths) {
  // One envelope formula serves every depth; its depth-only terms (the
  // packed fixed operand, the captured and folded C partials) vanish at
  // d = 1. Literal byte counts for the three block roles: a qkv-like product
  // (C largest), an fc2-like one (A largest) and a small unaligned f64 one
  // that exercises the 64-byte rounding of every temporary.
  struct Role {
    std::uint64_t a, b, c;
    std::size_t elem;
    std::uint64_t want[3];  // d = 1, 2, 4
  };
  const Role roles[] = {
      {32768, 49152, 98304, sizeof(float), {1572864, 1835008, 1703936}},
      {131072, 65536, 32768, sizeof(float), {1572864, 1179648, 851968}},
      {120, 200, 240, sizeof(double), {8960, 9856, 8832}},
  };
  const int depths[] = {1, 2, 4};
  for (const Role& role : roles) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(os::workspace_bytes(role.a, role.b, role.c, role.elem, depths[i]), role.want[i])
          << "a=" << role.a << " d=" << depths[i];
    }
  }
  // The memory model's envelope is the same formula over the engine's roles.
  namespace opm = optimus::perfmodel;
  opm::Workload w;
  w.b = 8;
  w.s = 64;
  w.h = 256;
  w.n = 4;
  w.v = 512;
  w.layers = 2;
  const std::uint64_t want_small[3] = {1572864, 1835008, 1703936};
  const std::uint64_t want_default[3] = {52428800, 59047936, 55738368};
  for (int i = 0; i < 3; ++i) {
    const int d = depths[i];
    EXPECT_EQ(opm::optimus_memory(w, 4 * d, sizeof(float), d).workspace, want_small[i])
        << "d=" << d;
    EXPECT_EQ(opm::optimus_memory(opm::Workload{}, 16 * d, sizeof(float), d).workspace,
              want_default[i])
        << "d=" << d;
  }
}

// ---------------------------------------------------------------------------
// 2.5D (Tesseract) schedule: depth meshes, replica identity and the clock model
// ---------------------------------------------------------------------------

namespace {

/// Runs one form on a q×q×d mesh, asserts every depth replica of C is bitwise
/// identical to layer 0's, and gathers layer 0's blocks into the global C.
template <typename FormOp>
DTensor run_form_25d(int q, int d, const DTensor& A_global, const DTensor& B_global,
                     Shape c_global_shape, bool pipelined, bool accumulate,
                     const FormOp& op) {
  DTensor C_global = DTensor::zeros(c_global_shape);
  std::vector<DTensor> per_rank(static_cast<std::size_t>(q * q * d));
  std::mutex mu;
  oc::run_cluster(q * q * d, [&](oc::Context& ctx) {
    os::PipelineGuard guard(pipelined);
    om::Mesh2D mesh(ctx.world, d);
    DTensor A = ot::matrix_block(A_global, q, mesh.row(), mesh.col());
    DTensor B = ot::matrix_block(B_global, q, mesh.row(), mesh.col());
    DTensor C(Shape{c_global_shape[0] / q, c_global_shape[1] / q});
    // Same per-block seeding as run_form so the 2D run is directly comparable.
    for (ot::index_t i = 0; i < C.numel(); ++i) {
      C[i] = accumulate ? 0.125 * static_cast<double>(i + mesh.row() + mesh.col()) : 0.0;
    }
    ot::Arena ws("ws",
                 os::workspace_bytes(A.numel(), B.numel(), C.numel(), sizeof(double), d));
    op(mesh, A, B, C, accumulate, &ws);
    std::lock_guard<std::mutex> lock(mu);
    per_rank[static_cast<std::size_t>(ctx.rank)] = C.clone();
    if (mesh.depth_idx() == 0) {
      ot::set_matrix_block(C_global, q, mesh.row(), mesh.col(), C);
    }
  });
  // Replica discipline: after the final depth broadcast, every layer's C must
  // hold exactly the layer-0 bits (rank = z·q² + cell, depth-major).
  for (int z = 1; z < d; ++z) {
    for (int cell = 0; cell < q * q; ++cell) {
      const DTensor& ref = per_rank[static_cast<std::size_t>(cell)];
      const DTensor& rep = per_rank[static_cast<std::size_t>(z * q * q + cell)];
      EXPECT_EQ(ref.numel(), rep.numel());
      for (ot::index_t i = 0; i < ref.numel(); ++i) {
        EXPECT_EQ(rep[i], ref[i])
            << "depth replica diverged: layer " << z << " cell " << cell << " elem " << i;
      }
    }
  }
  return C_global;
}

// No padding bytes, for the same reason as SummaCase.
struct Summa25dCase {
  int q, d;
  bool pipelined;
  bool accumulate;
  std::uint8_t zero_pad[2]{};
};
static_assert(std::has_unique_object_representations_v<Summa25dCase>);

class Summa25dSweep : public ::testing::TestWithParam<Summa25dCase> {};

}  // namespace

TEST_P(Summa25dSweep, AllFormsMatchSerialWithBitwiseDepthReplicas) {
  const Summa25dCase& param = GetParam();
  const int q = param.q, d = param.d;
  const bool pipelined = param.pipelined, accumulate = param.accumulate;
  // Contraction dims must divide q·d: base every global dim on lcm-ish 2q·d·3.
  const ot::index_t m = static_cast<ot::index_t>(2 * q * d);
  const ot::index_t k = static_cast<ot::index_t>(3 * q * d);
  const ot::index_t n = static_cast<ot::index_t>(4 * q * d);
  optimus::util::Rng rng(70 + 8 * q + d);
  const auto ab = [](om::Mesh2D& mm, const DTensor& a, const DTensor& b, DTensor& c,
                     bool acc, ot::Arena* ws) { os::summa_ab(mm, a, b, c, acc, ws); };
  const auto abt = [](om::Mesh2D& mm, const DTensor& a, const DTensor& b, DTensor& c,
                      bool acc, ot::Arena* ws) { os::summa_abt(mm, a, b, c, acc, ws); };
  const auto atb = [](om::Mesh2D& mm, const DTensor& a, const DTensor& b, DTensor& c,
                      bool acc, ot::Arena* ws) { os::summa_atb(mm, a, b, c, acc, ws); };
  {
    DTensor A = optimus::testing::random_dtensor(Shape{m, k}, rng);
    DTensor B = optimus::testing::random_dtensor(Shape{k, n}, rng);
    DTensor got = run_form_25d(q, d, A, B, Shape{m, n}, pipelined, accumulate, ab);
    DTensor want = run_form(q, A, B, Shape{m, n}, pipelined, accumulate, ab);
    EXPECT_LT(ops::max_abs_diff(got, want), 1e-12) << "ab vs 2D";
    if (!accumulate) {
      EXPECT_LT(ops::max_abs_diff(got, ops::matmul(A, B)), 1e-11) << "ab vs serial";
    }
  }
  {
    DTensor A = optimus::testing::random_dtensor(Shape{m, n}, rng);
    DTensor B = optimus::testing::random_dtensor(Shape{k, n}, rng);
    DTensor got = run_form_25d(q, d, A, B, Shape{m, k}, pipelined, accumulate, abt);
    DTensor want = run_form(q, A, B, Shape{m, k}, pipelined, accumulate, abt);
    EXPECT_LT(ops::max_abs_diff(got, want), 1e-12) << "abt vs 2D";
  }
  {
    DTensor A = optimus::testing::random_dtensor(Shape{m, n}, rng);
    DTensor B = optimus::testing::random_dtensor(Shape{m, k}, rng);
    DTensor got = run_form_25d(q, d, A, B, Shape{n, k}, pipelined, accumulate, atb);
    DTensor want = run_form(q, A, B, Shape{n, k}, pipelined, accumulate, atb);
    EXPECT_LT(ops::max_abs_diff(got, want), 1e-12) << "atb vs 2D";
  }
}

INSTANTIATE_TEST_SUITE_P(
    DepthMeshes, Summa25dSweep,
    ::testing::Values(Summa25dCase{1, 2, false, false}, Summa25dCase{1, 2, true, true},
                      Summa25dCase{2, 2, false, false}, Summa25dCase{2, 2, false, true},
                      Summa25dCase{2, 2, true, false}, Summa25dCase{2, 2, true, true},
                      Summa25dCase{2, 3, true, false}, Summa25dCase{3, 2, true, true}));

TEST(Summa25d, CommunicationVolumeMatchesDepthAccounting) {
  // At q = 2, d = 2 summa_ab moves q row-broadcasts of half A blocks and q
  // column-broadcasts of half B blocks (the /d Table-1 terms), then exactly
  // one depth tree-reduce and one depth broadcast of the C block.
  const int q = 2, d = 2;
  auto report = oc::run_cluster(q * q * d, [&](oc::Context& ctx) {
    om::Mesh2D mesh(ctx.world, d);
    DTensor a = DTensor::zeros(Shape{4, 6});
    DTensor b = DTensor::zeros(Shape{6, 8});
    DTensor c = DTensor::zeros(Shape{4, 8});
    os::summa_ab(mesh, a, b, c);
  });
  const auto& s = report.ranks[0].stats;
  // Sub-panels: A 4×3 = 12 elems, B 3×8 = 24 elems; C block 32 elems.
  EXPECT_EQ(s.broadcast.calls, static_cast<std::uint64_t>(2 * q + 1));
  EXPECT_EQ(s.broadcast.elems, static_cast<std::uint64_t>(q * 12 + q * 24 + 32));
  EXPECT_EQ(s.reduce.calls, 1u);
  EXPECT_EQ(s.reduce.elems, 32u);
}

TEST(Summa25d, SimTimeMatchesDepthPredictor) {
  // The simulator's clock on a q×q×d mesh must reproduce the 2.5D closed form
  // — Table-1 terms /d plus the depth-reduction term — exactly, under both
  // schedules.
  namespace opm = optimus::perfmodel;
  const int q = 2;
  const ot::index_t nb = 96 / q;
  for (int d : {2, 4}) {
    const auto run_mode = [&](bool pipelined) {
      const auto report = oc::run_cluster(q * q * d, [&](oc::Context& ctx) {
        os::PipelineGuard guard(pipelined);
        om::Mesh2D mesh(ctx.world, d);
        DTensor A = DTensor::zeros(Shape{nb, nb});
        DTensor B = DTensor::zeros(Shape{nb, nb});
        DTensor C = DTensor::zeros(Shape{nb, nb});
        os::summa_ab(mesh, A, B, C);
      });
      return report.max_sim_time();
    };
    const double blocking = run_mode(false);
    const double pipelined = run_mode(true);
    const oc::Topology topo(q * q * d, /*gpus_per_node=*/4, oc::Arrangement::kBunched, 0);
    const oc::CostModel cost(topo, oc::MachineParams{});
    const auto pred = opm::predict_summa_ab_times(cost, q, d, 96, 96, 96, sizeof(double));
    EXPECT_NEAR(blocking, pred.blocking_s, 1e-9 * pred.blocking_s) << "d=" << d;
    EXPECT_NEAR(pipelined, pred.pipelined_s, 1e-9 * pred.pipelined_s) << "d=" << d;
    EXPECT_LT(pipelined, blocking) << "d=" << d;
  }
}

TEST(SummaPipeline, SimTimeMatchesOverlapPredictorAndBeatsBlocking) {
  // The simulator's clock under each schedule must reproduce the closed-form
  // predictor exactly, and the pipelined schedule must hide at least 25% of
  // the blocking step time at q = 2 and q = 4 (comm-bound Table-1 regime).
  namespace opm = optimus::perfmodel;
  for (int q : {2, 4}) {
    const ot::index_t nb = 96 / q;  // 96×96×96 global product
    const auto run_mode = [&](bool pipelined) {
      const auto report = oc::run_cluster(q * q, [&](oc::Context& ctx) {
        os::PipelineGuard guard(pipelined);
        om::Mesh2D mesh(ctx.world);
        DTensor A = DTensor::zeros(Shape{nb, nb});
        DTensor B = DTensor::zeros(Shape{nb, nb});
        DTensor C = DTensor::zeros(Shape{nb, nb});
        os::summa_ab(mesh, A, B, C);
      });
      return report.max_sim_time();
    };
    const double blocking = run_mode(false);
    const double pipelined = run_mode(true);
    const oc::Topology topo(q * q, /*gpus_per_node=*/4, oc::Arrangement::kBunched, 0);
    const oc::CostModel cost(topo, oc::MachineParams{});
    const auto pred = opm::predict_summa_ab_times(cost, q, 1, 96, 96, 96, sizeof(double));
    EXPECT_NEAR(blocking, pred.blocking_s, 1e-9 * pred.blocking_s) << "q=" << q;
    EXPECT_NEAR(pipelined, pred.pipelined_s, 1e-9 * pred.pipelined_s) << "q=" << q;
    EXPECT_LE(pipelined, 0.75 * blocking) << "q=" << q;
  }
}
