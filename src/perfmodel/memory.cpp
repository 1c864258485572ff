#include "perfmodel/memory.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace optimus::perfmodel {

namespace {

using tensor::index_t;

std::uint64_t to_bytes(double elems, std::size_t elem_size) {
  return static_cast<std::uint64_t>(elems * static_cast<double>(elem_size));
}

}  // namespace

MemoryBreakdown megatron_memory(const Workload& w, int p, std::size_t elem_size) {
  const double b = w.b, s = w.s, h = w.h, n = w.n, v = w.v, N = w.layers;
  const double c = 2;  // classifier classes — negligible either way
  MemoryBreakdown mem;

  // Parameters: 1/p weight shards + replicated layernorms/biases/pos table.
  const double param_elems = N * (12.0 * h * h + 7.0 * h) / p + v * h / p + s * h +
                             N * 6.0 * h + 2.0 * h + h * c + c;
  mem.params = to_bytes(param_elems, elem_size);
  mem.grads = mem.params;

  // Replicated activations: N checkpointed layer inputs + stem output, final
  // layernorm state and hidden states — the §3.1.1 bottleneck.
  mem.checkpoints = to_bytes((N + 3.0) * b * s * h + b * s, elem_size);

  // One layer's transient working set during backward-with-recompute.
  const double working_elems =
      10.0 * b * s * h + 24.0 * b * s * h / p + b * n * s * s / p + 2.0 * b * s;
  mem.working = to_bytes(working_elems, elem_size);

  // Vocab-parallel lm-head state (exp buffer + dlogits) and the d_hidden.
  mem.loss_head = to_bytes(2.0 * b * s * v / p + b * s * h + 4.0 * b * s, elem_size);
  mem.workspace = 0;
  return mem;
}

MemoryBreakdown optimus_memory(const Workload& w, int p, std::size_t elem_size, int depth) {
  OPT_CHECK(depth >= 1 && p % depth == 0, "optimus needs p divisible by depth");
  const int area = p / depth;
  const int q = static_cast<int>(std::lround(std::sqrt(static_cast<double>(area))));
  OPT_CHECK(q * q == area, "optimus needs square p (per depth layer)");
  const double b = w.b, s = w.s, h = w.h, n = w.n, v = w.v, N = w.layers;
  const double c = 2;
  MemoryBreakdown mem;
  // Every depth layer holds the same q×q blocks (the d-fold replication is
  // 2.5D's memory price): per-device state divides by the layer area q², not
  // by the world size q²·d. Only the SUMMA workspace shrinks with d.
  p = area;

  // Everything is a q×q block; row-0 devices additionally host the bias/LN
  // slices (worst case modelled).
  const double param_elems = N * 12.0 * h * h / p + v * h / p + s * h / q +
                             N * 13.0 * h / q + 2.0 * h / q + h * c / q + c;
  mem.params = to_bytes(param_elems, elem_size);
  mem.grads = mem.params;

  // Checkpointed inputs and final-layernorm state — all 1/p.
  mem.checkpoints = to_bytes((N + 3.0) * b * s * h / p + b * s / q, elem_size);

  // One layer's arenas (§3.2.3): 17 forward + 16 backward bsh/p-sized blocks,
  // the local attention probabilities, plus the transient recompute output.
  const double working_elems = (17.0 + 16.0 + 1.0) * b * s * h / p +
                               b * n * s * s / p + 4.0 * b * s / q + 30.0 * h / q;
  mem.working = to_bytes(working_elems, elem_size);

  // SUMMA workspace: worst single call under the pipelined schedule —
  // double-buffered panels (/d sub-panels at depth d) plus, for the reduce
  // forms, two C partials and a persistent reduce scratch (max of 2A+2B,
  // 2B+3C, 2A+3C per call). Only depth > 1 adds summa_ab's C partial and fold
  // scratch and the reduce forms' packed fixed operand and captured partial
  // (mirrors summa::workspace_bytes).
  const auto ws3 = [depth](double a, double bb, double cc) {
    const double dd = static_cast<double>(depth);
    const double fold = depth > 1 ? 1.0 : 0.0;
    const double as = a / dd, bs = bb / dd;
    return std::max({2.0 * as + 2.0 * bs + fold * 2.0 * cc,
                     fold * as + 2.0 * bs + (3.0 + fold) * cc,
                     2.0 * as + fold * bs + (3.0 + fold) * cc});
  };
  const double ws_elems = std::max({
      ws3(b * s * h / p, 3.0 * h * h / p, 3.0 * b * s * h / p),  // qkv
      ws3(4.0 * b * s * h / p, 4.0 * h * h / p, b * s * h / p),  // fc family
      ws3(b * s * h / p, v * h / p, b * s * v / p),              // lm-head
      ws3(b * s * v / p, b * s * h / p, v * h / p),              // d_embedding
      v * h / p + s * h / q,                                     // embedding scope
  });
  mem.workspace = to_bytes(ws_elems, elem_size);

  mem.loss_head = to_bytes(2.0 * b * s * v / p + b * s * h / p + 4.0 * b * s / q, elem_size);
  return mem;
}

index_t max_batch(Scheme scheme, Workload w, int p, std::uint64_t budget_bytes,
                  index_t granularity) {
  OPT_CHECK(granularity >= 1, "granularity");
  const auto fits = [&](index_t b) {
    if (b <= 0) return true;
    w.b = b;
    const MemoryBreakdown mem =
        scheme == Scheme::kMegatron ? megatron_memory(w, p) : optimus_memory(w, p);
    return mem.total() <= budget_bytes;
  };
  if (!fits(granularity)) return 0;
  // Exponential probe then binary search on multiples of `granularity`.
  index_t lo = 1, hi = 1;
  while (fits(hi * granularity)) {
    lo = hi;
    hi *= 2;
    if (hi > (index_t{1} << 40)) break;  // absurd guard
  }
  while (lo + 1 < hi) {
    const index_t mid = lo + (hi - lo) / 2;
    if (fits(mid * granularity)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo * granularity;
}

}  // namespace optimus::perfmodel
