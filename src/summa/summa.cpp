#include "summa/summa.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "comm/communicator.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace optimus::summa {

namespace {

using tensor::Arena;
using tensor::ArenaScope;
using tensor::Shape;
using tensor::TensorT;
namespace ops = tensor::ops;

// −1 = unresolved (read OPTIMUS_SUMMA_PIPELINE on first use), 0 = off, 1 = on.
std::atomic<int> g_pipeline_mode{-1};

/// Allocates a temporary either from the workspace arena or the heap.
template <typename T>
TensorT<T> make_temp(Arena* workspace, Shape shape) {
  if (workspace != nullptr) return workspace->alloc<T>(shape);
  return TensorT<T>(shape);
}

}  // namespace

bool pipeline_enabled() {
  int mode = g_pipeline_mode.load(std::memory_order_acquire);
  if (mode < 0) {
    const char* env = std::getenv("OPTIMUS_SUMMA_PIPELINE");
    const int from_env = (env != nullptr && std::strcmp(env, "0") == 0) ? 0 : 1;
    int expected = -1;
    if (g_pipeline_mode.compare_exchange_strong(expected, from_env)) {
      mode = from_env;
    } else {
      mode = expected;  // another thread resolved it first
    }
  }
  return mode != 0;
}

void set_pipeline_enabled(bool enabled) {
  g_pipeline_mode.store(enabled ? 1 : 0, std::memory_order_release);
}

namespace {

// -- the k-loop --------------------------------------------------------------
//
// One loop serves every form, depth and schedule. Lookahead 1 (pipelined)
// double-buffers the panels: while the GEMM for step l runs, the broadcasts
// (and, in the reduce forms, the reduce) for the adjacent step are already in
// flight on the row/column links. Lookahead 0 issues through the blocking
// collectives. Payloads, roots and reduction order are identical either way,
// so results are bitwise identical; only the clock arithmetic changes
// (Request::wait advances to max(clock, completion) instead of summing).
//
// At depth d > 1 (Tesseract, arXiv:2105.14500) every contraction block splits
// into d sub-panels of extent k_b/d; depth layer z broadcasts and multiplies
// only sub-range z, so per-step broadcast volume and GEMM work both drop by d.
// After the q steps each layer holds a pure partial of its C block restricted
// to its sub-range; a depth-d tree reduction to layer 0 (ascending-depth
// fold — the same ascending-k order a serial sweep of the sub-ranges would
// use), the accumulate epilogue at layer 0, and a replica broadcast of the
// finished block complete the product with every depth replica bitwise
// identical. At d = 1 the sub-panel is the whole panel, the reduce forms use
// their fixed operand in place, and the loop writes into C directly.

/// Runs the q k-steps of one call: `fetch(l, slot)` starts step l's panel
/// transfers into buffer `slot`, `step(l, slot)` completes them and computes.
/// Pipelined, step l + 1 is fetched before step l computes.
template <typename Fetch, typename Step>
void k_loop(int q, bool pipelined, Fetch&& fetch, Step&& step) {
  const int ahead = pipelined ? 1 : 0;
  const int slots = ahead + 1;
  for (int l = 0; l < ahead && l < q; ++l) fetch(l, l % slots);
  for (int l = 0; l < q; ++l) {
    obs::Span step_span("summa", "k_step");
    if (step_span.armed()) {
      step_span.arg("l", l);
      if (pipelined) step_span.arg("pipelined", 1);
    }
    if (l + ahead < q) fetch(l + ahead, (l + ahead) % slots);
    step(l, l % slots);
  }
}

/// Broadcasts `buf` from `root`: issued when pipelined, else blocking (the
/// returned Request is then inert).
template <typename T>
comm::Request broadcast(comm::Communicator& c, TensorT<T>& buf, int root, bool pipelined) {
  if (pipelined) return c.ibroadcast(buf.data(), buf.numel(), root);
  c.broadcast(buf.data(), buf.numel(), root);
  return {};
}

/// Sum-reduces `buf` toward `root`, issued or blocking as broadcast() above.
template <typename T>
comm::Request reduce(comm::Communicator& c, TensorT<T>& buf, int root, TensorT<T>& scratch,
                     bool pipelined) {
  if (pipelined) return c.ireduce(buf.data(), buf.numel(), root, scratch.data());
  c.reduce(buf.data(), buf.numel(), root, scratch.data());
  return {};
}

/// Copies the `dst.size(1)`-wide column range starting at `c0` out of `src`.
template <typename T>
void pack_col_range(TensorT<T>& dst, const TensorT<T>& src, tensor::index_t c0) {
  const tensor::index_t rows = src.size(0);
  const tensor::index_t cols = src.size(1);
  const tensor::index_t w = dst.size(1);
  if (w == cols) {
    std::memcpy(dst.data(), src.data(), static_cast<std::size_t>(dst.numel()) * sizeof(T));
    return;
  }
  for (tensor::index_t i = 0; i < rows; ++i) {
    std::memcpy(dst.data() + i * w, src.data() + i * cols + c0,
                static_cast<std::size_t>(w) * sizeof(T));
  }
}

/// Copies the `dst.size(0)`-tall row range starting at `r0` out of `src`.
template <typename T>
void pack_row_range(TensorT<T>& dst, const TensorT<T>& src, tensor::index_t r0) {
  std::memcpy(dst.data(), src.data() + r0 * src.size(1),
              static_cast<std::size_t>(dst.numel()) * sizeof(T));
}

/// C = src, or C += src when accumulating.
template <typename T>
void land(TensorT<T>& C, const TensorT<T>& src, bool accumulate) {
  if (accumulate) {
    ops::add_(C, src);
  } else {
    C.copy_from(src);
  }
}

/// Tree-reduces the per-depth C partials to depth layer 0, applies the
/// accumulate semantics there, and broadcasts the finished block back down the
/// depth group so every replica ends bitwise identical. Both collectives are
/// blocking: nothing overlaps them, so their modelled time is transfer.
template <typename T>
void depth_fold(mesh::Mesh2D& mesh, TensorT<T>& partial, TensorT<T>& C, TensorT<T>& scratch,
                bool accumulate) {
  comm::Communicator& dc = mesh.depth_comm();
  dc.reduce(partial.data(), partial.numel(), /*root=*/0, scratch.data());
  if (mesh.depth_idx() == 0) land(C, partial, accumulate);
  dc.broadcast(C.data(), C.numel(), /*root=*/0);
}

/// Checks that the contraction extent `k` splits over the mesh depth and
/// annotates the call's span. Returns whether to pipeline.
bool open_call(obs::Span& op_span, mesh::Mesh2D& mesh, tensor::index_t k, const char* form) {
  OPT_CHECK(k % mesh.depth() == 0, form << " contraction block " << k
                                        << " not divisible by mesh depth " << mesh.depth());
  const bool pipelined = mesh.q() > 1 && pipeline_enabled();
  if (op_span.armed()) {
    op_span.arg("q", mesh.q());
    if (mesh.depth() > 1) op_span.arg("d", mesh.depth());
    if (pipelined) op_span.arg("pipelined", 1);
  }
  return pipelined;
}

}  // namespace

template <typename T>
void summa_ab(mesh::Mesh2D& mesh, const TensorT<T>& A, const TensorT<T>& B, TensorT<T>& C,
              bool accumulate, Arena* workspace) {
  OPT_CHECK(A.ndim() == 2 && B.ndim() == 2 && C.ndim() == 2, "summa_ab needs 2-D blocks");
  OPT_CHECK(A.size(0) == C.size(0) && B.size(1) == C.size(1) && A.size(1) == B.size(0),
            "summa_ab block shapes: A " << A.shape().to_string() << " B "
                                        << B.shape().to_string() << " C "
                                        << C.shape().to_string());
  obs::Span op_span("summa", "summa_ab");
  const bool pipelined = open_call(op_span, mesh, A.size(1), "summa_ab");
  std::optional<ArenaScope> scope;
  if (workspace != nullptr) scope.emplace(*workspace);
  const int d = mesh.depth();
  const tensor::index_t ks = A.size(1) / d;
  const tensor::index_t z0 = static_cast<tensor::index_t>(mesh.depth_idx()) * ks;
  // Depth layers accumulate a partial of C over their sub-range, folded after
  // the loop; at d = 1 the loop accumulates into C itself.
  TensorT<T> c_part, d_scratch;
  if (d > 1) {
    c_part = make_temp<T>(workspace, C.shape());
    d_scratch = make_temp<T>(workspace, C.shape());
  }
  TensorT<T>& acc = d > 1 ? c_part : C;
  const bool acc_in = d == 1 && accumulate;
  TensorT<T> a_sub[2], b_sub[2];
  comm::Request a_req[2], b_req[2];
  for (int s = 0; s < (pipelined ? 2 : 1); ++s) {
    a_sub[s] = make_temp<T>(workspace, Shape{A.size(0), ks});
    b_sub[s] = make_temp<T>(workspace, Shape{ks, B.size(1)});
  }
  k_loop(
      mesh.q(), pipelined,
      [&](int l, int s) {
        // Column l of the mesh owns the A blocks for this outer-product step;
        // row l owns the B blocks (paper Fig. 3).
        if (mesh.col() == l) pack_col_range(a_sub[s], A, z0);
        a_req[s] = broadcast(mesh.row_comm(), a_sub[s], l, pipelined);
        if (mesh.row() == l) pack_row_range(b_sub[s], B, z0);
        b_req[s] = broadcast(mesh.col_comm(), b_sub[s], l, pipelined);
      },
      [&](int l, int s) {
        a_req[s].wait();
        b_req[s].wait();
        const T beta = (l == 0 && !acc_in) ? T{0} : T{1};
        ops::gemm(acc, a_sub[s], b_sub[s], ops::Trans::No, ops::Trans::No, T{1}, beta);
      });
  if (d > 1) depth_fold(mesh, c_part, C, d_scratch, accumulate);
}

template <typename T>
void summa_abt(mesh::Mesh2D& mesh, const TensorT<T>& A, const TensorT<T>& B, TensorT<T>& C,
               bool accumulate, Arena* workspace) {
  OPT_CHECK(A.ndim() == 2 && B.ndim() == 2 && C.ndim() == 2, "summa_abt needs 2-D blocks");
  OPT_CHECK(A.size(0) == C.size(0) && A.size(1) == B.size(1) && B.size(0) == C.size(1),
            "summa_abt block shapes: A " << A.shape().to_string() << " B "
                                         << B.shape().to_string() << " C "
                                         << C.shape().to_string());
  obs::Span op_span("summa", "summa_abt");
  const bool pipelined = open_call(op_span, mesh, A.size(1), "summa_abt");
  std::optional<ArenaScope> scope;
  if (workspace != nullptr) scope.emplace(*workspace);
  const int d = mesh.depth();
  const tensor::index_t ns = A.size(1) / d;
  const tensor::index_t z0 = static_cast<tensor::index_t>(mesh.depth_idx()) * ns;
  // The A operand is the same in every step: at d > 1 pack this layer's
  // sub-panel once and capture the row reduces into a partial for the fold.
  TensorT<T> a_pack, c_part;
  if (d > 1) {
    a_pack = make_temp<T>(workspace, Shape{A.size(0), ns});
    pack_col_range(a_pack, A, z0);
    c_part = make_temp<T>(workspace, C.shape());
  }
  const TensorT<T>& a_fixed = d > 1 ? a_pack : A;
  TensorT<T>& dst = d > 1 ? c_part : C;
  const bool acc_in = d == 1 && accumulate;
  // Persistent reduce receive buffer: serves every step and the depth fold.
  TensorT<T> r_scratch = make_temp<T>(workspace, C.shape());
  TensorT<T> b_sub[2], c_tmp[2];
  for (int s = 0; s < (pipelined ? 2 : 1); ++s) {
    b_sub[s] = make_temp<T>(workspace, Shape{B.size(0), ns});
    c_tmp[s] = make_temp<T>(workspace, C.shape());
  }
  comm::Request b_req[2], r_req;
  // At most one reduce is outstanding, so one scratch serves them all; a
  // slot's partial is never overwritten before its reduce retires.
  int r_root = -1, r_slot = -1;
  const auto retire = [&] {
    if (r_root < 0) return;
    r_req.wait();
    if (mesh.col() == r_root) land(dst, c_tmp[r_slot], acc_in);
    r_root = -1;
  };
  k_loop(
      mesh.q(), pipelined,
      [&](int l, int s) {
        if (mesh.row() == l) pack_col_range(b_sub[s], B, z0);
        b_req[s] = broadcast(mesh.col_comm(), b_sub[s], l, pipelined);
      },
      [&](int l, int s) {
        // Step l computes column-block l of C: multiply locally, reduce the
        // partial C blocks across the row to column l.
        b_req[s].wait();
        ops::gemm(c_tmp[s], a_fixed, b_sub[s], ops::Trans::No, ops::Trans::Yes, T{1}, T{0});
        // Pipelined, step l-1's reduce lands after this GEMM; blocking, step
        // l's lands at once.
        retire();
        r_req = reduce(mesh.row_comm(), c_tmp[s], l, r_scratch, pipelined);
        r_root = l;
        r_slot = s;
        if (!pipelined) retire();
      });
  retire();
  if (d > 1) depth_fold(mesh, c_part, C, r_scratch, accumulate);
}

template <typename T>
void summa_atb(mesh::Mesh2D& mesh, const TensorT<T>& A, const TensorT<T>& B, TensorT<T>& C,
               bool accumulate, Arena* workspace) {
  OPT_CHECK(A.ndim() == 2 && B.ndim() == 2 && C.ndim() == 2, "summa_atb needs 2-D blocks");
  OPT_CHECK(A.size(1) == C.size(0) && B.size(1) == C.size(1) && A.size(0) == B.size(0),
            "summa_atb block shapes: A " << A.shape().to_string() << " B "
                                         << B.shape().to_string() << " C "
                                         << C.shape().to_string());
  obs::Span op_span("summa", "summa_atb");
  const bool pipelined = open_call(op_span, mesh, A.size(0), "summa_atb");
  std::optional<ArenaScope> scope;
  if (workspace != nullptr) scope.emplace(*workspace);
  const int d = mesh.depth();
  const tensor::index_t ms = A.size(0) / d;
  const tensor::index_t z0 = static_cast<tensor::index_t>(mesh.depth_idx()) * ms;
  // The B operand is the same in every step: at d > 1 pack this layer's
  // sub-panel once and capture the column reduces into a partial for the fold.
  TensorT<T> b_pack, c_part;
  if (d > 1) {
    b_pack = make_temp<T>(workspace, Shape{ms, B.size(1)});
    pack_row_range(b_pack, B, z0);
    c_part = make_temp<T>(workspace, C.shape());
  }
  const TensorT<T>& b_fixed = d > 1 ? b_pack : B;
  TensorT<T>& dst = d > 1 ? c_part : C;
  const bool acc_in = d == 1 && accumulate;
  // Persistent reduce receive buffer: serves every step and the depth fold.
  TensorT<T> r_scratch = make_temp<T>(workspace, C.shape());
  TensorT<T> a_sub[2], c_tmp[2];
  for (int s = 0; s < (pipelined ? 2 : 1); ++s) {
    a_sub[s] = make_temp<T>(workspace, Shape{ms, A.size(1)});
    c_tmp[s] = make_temp<T>(workspace, C.shape());
  }
  comm::Request a_req[2], r_req;
  int r_root = -1, r_slot = -1;
  const auto retire = [&] {
    if (r_root < 0) return;
    r_req.wait();
    if (mesh.row() == r_root) land(dst, c_tmp[r_slot], acc_in);
    r_root = -1;
  };
  k_loop(
      mesh.q(), pipelined,
      [&](int l, int s) {
        if (mesh.col() == l) pack_row_range(a_sub[s], A, z0);
        a_req[s] = broadcast(mesh.row_comm(), a_sub[s], l, pipelined);
      },
      [&](int l, int s) {
        // Step l computes row-block l of C: multiply locally, reduce the
        // partial C blocks down the column to row l.
        a_req[s].wait();
        ops::gemm(c_tmp[s], a_sub[s], b_fixed, ops::Trans::Yes, ops::Trans::No, T{1}, T{0});
        // Pipelined, step l-1's reduce lands after this GEMM; blocking, step
        // l's lands at once.
        retire();
        r_req = reduce(mesh.col_comm(), c_tmp[s], l, r_scratch, pipelined);
        r_root = l;
        r_slot = s;
        if (!pipelined) retire();
      });
  retire();
  if (d > 1) depth_fold(mesh, c_part, C, r_scratch, accumulate);
}

template <typename T>
void cannon_ab(mesh::Mesh2D& mesh, const TensorT<T>& A, const TensorT<T>& B, TensorT<T>& C,
               bool accumulate, Arena* workspace) {
  const int q = mesh.q();
  OPT_CHECK(mesh.depth() == 1, "cannon_ab supports depth-1 meshes only");
  OPT_CHECK(A.ndim() == 2 && B.ndim() == 2 && C.ndim() == 2, "cannon_ab needs 2-D blocks");
  OPT_CHECK(A.size(0) == C.size(0) && B.size(1) == C.size(1) && A.size(1) == B.size(0),
            "cannon_ab block shapes: A " << A.shape().to_string() << " B "
                                         << B.shape().to_string() << " C "
                                         << C.shape().to_string());
  if (q == 1) {
    ops::gemm(C, A, B, ops::Trans::No, ops::Trans::No, T{1},
              accumulate ? T{1} : T{0});
    return;
  }
  obs::Span op_span("summa", "cannon_ab");
  if (op_span.armed()) op_span.arg("q", q);
  std::optional<ArenaScope> scope;
  if (workspace != nullptr) scope.emplace(*workspace);
  TensorT<T> a_buf = make_temp<T>(workspace, A.shape());
  TensorT<T> b_buf = make_temp<T>(workspace, B.shape());
  a_buf.copy_from(A);
  b_buf.copy_from(B);

  const int i = mesh.row();
  const int j = mesh.col();
  comm::Communicator& row = mesh.row_comm();
  comm::Communicator& col = mesh.col_comm();
  // Tags: 0/1 alignment, 2/3 shifting rounds. FIFO matching per (src, tag)
  // makes reuse across calls and rounds safe.
  const auto shift_left = [&](TensorT<T>& buf, int steps, int tag) {
    if (steps % q == 0) return;
    const int dst = ((j - steps) % q + q) % q;
    const int src = (j + steps) % q;
    row.send(dst, tag, buf.data(), buf.numel());   // payload copied at send
    row.recv(src, tag, buf.data(), buf.numel());
  };
  const auto shift_up = [&](TensorT<T>& buf, int steps, int tag) {
    if (steps % q == 0) return;
    const int dst = ((i - steps) % q + q) % q;
    const int src = (i + steps) % q;
    col.send(dst, tag, buf.data(), buf.numel());
    col.recv(src, tag, buf.data(), buf.numel());
  };

  // Initial alignment: A_ij moves i steps left, B_ij moves j steps up, so
  // device (i, j) starts with A_{i,(i+j) mod q} · B_{(i+j) mod q, j}.
  shift_left(a_buf, i, /*tag=*/0);
  shift_up(b_buf, j, /*tag=*/1);

  for (int l = 0; l < q; ++l) {
    obs::Span step_span("summa", "k_step");
    if (step_span.armed()) step_span.arg("l", l);
    const T beta = (l == 0 && !accumulate) ? T{0} : T{1};
    ops::gemm(C, a_buf, b_buf, ops::Trans::No, ops::Trans::No, T{1}, beta);
    if (l + 1 < q) {
      shift_left(a_buf, 1, /*tag=*/2);
      shift_up(b_buf, 1, /*tag=*/3);
    }
  }
}

std::uint64_t workspace_bytes(std::uint64_t a_block_elems, std::uint64_t b_block_elems,
                              std::uint64_t c_block_elems, std::size_t elem_size,
                              int depth) {
  const auto align = [](std::uint64_t n) { return (n + 63) & ~std::uint64_t{63}; };
  const std::uint64_t d = static_cast<std::uint64_t>(depth);
  const std::uint64_t as = align(a_block_elems / d * elem_size);
  const std::uint64_t bs = align(b_block_elems / d * elem_size);
  const std::uint64_t c = align(c_block_elems * elem_size);
  // Terms only depth > 1 allocates: summa_ab's C partial and fold scratch,
  // the reduce forms' packed fixed operand and captured C partial.
  const std::uint64_t fold = depth > 1 ? 1 : 0;
  // Pipelined worst case per form (the blocking schedule fits inside):
  //   summa_ab  : 2·A/d + 2·B/d sub-panels
  //   summa_abt : 2·B/d sub-panels + 2 in-flight partials + reduce scratch
  //   summa_atb : 2·A/d sub-panels + 2 in-flight partials + reduce scratch
  const std::uint64_t ab = 2 * as + 2 * bs + fold * 2 * c;
  const std::uint64_t bc = 2 * bs + 3 * c + fold * (as + c);
  const std::uint64_t ac = 2 * as + 3 * c + fold * (bs + c);
  return std::max({ab, bc, ac});
}

#define OPTIMUS_INSTANTIATE_SUMMA(T)                                                     \
  template void summa_ab<T>(mesh::Mesh2D&, const TensorT<T>&, const TensorT<T>&,         \
                            TensorT<T>&, bool, Arena*);                                  \
  template void summa_abt<T>(mesh::Mesh2D&, const TensorT<T>&, const TensorT<T>&,        \
                             TensorT<T>&, bool, Arena*);                                 \
  template void summa_atb<T>(mesh::Mesh2D&, const TensorT<T>&, const TensorT<T>&,        \
                             TensorT<T>&, bool, Arena*);                                 \
  template void cannon_ab<T>(mesh::Mesh2D&, const TensorT<T>&, const TensorT<T>&,        \
                             TensorT<T>&, bool, Arena*);

OPTIMUS_INSTANTIATE_SUMMA(float)
OPTIMUS_INSTANTIATE_SUMMA(double)

#undef OPTIMUS_INSTANTIATE_SUMMA

}  // namespace optimus::summa
