#pragma once

// MPI-style communicator over the simulated fabric.
//
// A Communicator names an ordered group of world ranks. Collectives are
// blocking, must be entered by every member in the same order (standard MPI
// contract), move real bytes through the fabric, and advance the simulated
// clock by the CostModel's closed-form time for the operation:
//
//   broadcast / reduce     — binomial tree  (paper eq. 4: log₂(g)·β·B)
//   all_reduce             — ring reduce-scatter + ring all-gather
//                            (paper eq. 5: 2(g−1)/g·β·B)
//   all_gather / reduce_scatter — ring
//   barrier                — dissemination (latency only)
//
// Reduction order is deterministic for a fixed group, so distributed runs are
// bit-reproducible; they differ from serial execution only by floating-point
// association.

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "comm/fabric.hpp"
#include "comm/sim_clock.hpp"
#include "comm/topology.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "tensor/tensor.hpp"

namespace optimus::comm {

/// Simulated-time breakdown of one collective entry: every participant drains
/// local compute (clock → entry_local), aligns to the slowest member
/// (entry_aligned) and advances by the modelled operation time dt. The
/// align-wait (entry_aligned − entry_local) is this rank's idle time — the
/// tracer exports it separately from the transfer time.
struct CollectiveTiming {
  double entry_local = 0;
  double entry_aligned = 0;
  double dt = 0;

  double wait() const { return entry_aligned - entry_local; }
  double completion() const { return entry_aligned + dt; }
};

class Communicator;

/// Handle for a non-blocking collective (ibroadcast/ireduce). The operation's
/// cost was modelled at issue time; wait() performs any deferred data
/// movement, then advances this rank's clock only if it is still behind the
/// modelled completion — compute done in between overlaps for free, so a
/// pipelined step costs max(comm, compute) instead of their sum.
///
/// Every issued request must be waited exactly once (unless unwinding from a
/// fabric abort). Move-only; default-constructed requests are inert.
class Request {
 public:
  Request() = default;
  Request(Request&&) = default;
  Request& operator=(Request&&) = default;
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  /// Completes the collective on this rank; may throw FaultError /
  /// FabricAborted if the fabric died while the payload was in flight.
  void wait();

 private:
  friend class Communicator;
  struct State {
    Communicator* comm = nullptr;
    const char* wait_op = "";  // string literal (obs::Span lifetime contract)
    double completion = 0;
    std::uint64_t bytes = 0;
    std::function<void()> finish;  // deferred receives/forwards/accumulates
  };
  explicit Request(std::unique_ptr<State> st) : st_(std::move(st)) {}
  std::unique_ptr<State> st_;
};

class Communicator {
 public:
  Communicator(Fabric& fabric, std::uint64_t comm_id, std::vector<int> group, int world_rank,
               SimClock& clock, const CostModel& cost, CommStats& stats);

  /// Human-readable role of this communicator in traces/metrics ("world",
  /// "row", "col", ...). Split results start unnamed; Mesh2D names its own.
  const std::string& label() const { return label_; }
  void set_label(std::string label) { label_ = std::move(label); }

  int rank() const { return rank_; }
  int size() const { return static_cast<int>(group_.size()); }
  int world_rank() const { return group_[rank_]; }
  int world_rank_of(int r) const { return group_[r]; }
  const std::vector<int>& group() const { return group_; }
  const CostModel& cost() const { return *cost_; }
  SimClock& clock() { return *clock_; }
  CommStats& stats() { return *stats_; }

  /// MPI_Comm_split: members with equal `color` form a new communicator,
  /// ordered by (key, world rank). Collective over this communicator.
  Communicator split(int color, int key);

  // -- point-to-point (user tag space; also advances the clock by α+βB) -----

  template <typename T>
  void send(int dst, int tag, const T* data, tensor::index_t n);

  template <typename T>
  void recv(int src, int tag, T* data, tensor::index_t n);

  // -- collectives ----------------------------------------------------------

  template <typename T>
  void broadcast(T* data, tensor::index_t n, int root) {
    (void)tree_broadcast(data, n, root, /*blocking=*/true);
  }

  /// In-place sum-reduce; the result is valid only at `root` afterwards.
  /// `scratch` (n elements) avoids the per-call receive buffer allocation;
  /// pass nullptr to let the call allocate its own.
  template <typename T>
  void reduce(T* data, tensor::index_t n, int root, T* scratch = nullptr) {
    (void)tree_reduce(data, n, root, scratch, /*blocking=*/true);
  }

  // -- non-blocking collectives ---------------------------------------------
  //
  // Issue now, complete at Request::wait(). The modelled cost, clock
  // alignment and stats are identical to the blocking forms (recorded at
  // issue); only this rank's clock advance is deferred, which is what lets a
  // SUMMA step overlap the next panel's transfer with the current GEMM. Must
  // be issued by every member in the same order, like any collective.

  /// Async broadcast. `data` must stay valid (and, on non-root ranks,
  /// untouched) until wait() returns.
  template <typename T>
  Request ibroadcast(T* data, tensor::index_t n, int root) {
    return tree_broadcast(data, n, root, /*blocking=*/false);
  }

  /// Async sum-reduce toward `root`. The local partial in `data` must be
  /// final at issue; the reduced result is valid at root after wait().
  /// `scratch` (n elements, optional) must stay valid until wait().
  template <typename T>
  Request ireduce(T* data, tensor::index_t n, int root, T* scratch = nullptr) {
    return tree_reduce(data, n, root, scratch, /*blocking=*/false);
  }

  /// In-place ring all-reduce (sum).
  template <typename T>
  void all_reduce(T* data, tensor::index_t n);

  /// Element-wise max all-reduce (used by the distributed softmax).
  template <typename T>
  void all_reduce_max(T* data, tensor::index_t n);

  /// Sum all-reduce with a payload-size-independent fold order: every element
  /// is accumulated rank 0 → g−1. The ring all_reduce folds each chunk
  /// starting at a rank derived from the chunk *layout*, so two payloads of
  /// different length reassociate differently; incremental decode needs the
  /// single-row reduction to match the full-prefix one bitwise, which this
  /// guarantees. Modelled/recorded with the same ring cost as all_reduce.
  template <typename T>
  void all_reduce_ordered(T* data, tensor::index_t n);

  /// Gathers each rank's `n` elements into `out` (size n·g), rank order.
  template <typename T>
  void all_gather(const T* mine, tensor::index_t n, T* out);

  /// data has n·g elements; rank r's `out` receives the sum-reduced chunk r.
  template <typename T>
  void reduce_scatter(const T* data, tensor::index_t n, T* out);

  /// Personalised exchange (MPI_Alltoall): `send` holds g chunks of n
  /// elements, chunk c destined for rank c; on return `out[c·n..)` holds the
  /// chunk rank c addressed to this rank. Pairwise exchange; modelled as
  /// (g−1) simultaneous chunk transfers: (g−1)·(α + β·chunk_bytes).
  template <typename T>
  void all_to_all(const T* send, tensor::index_t n, T* out);

  /// Gathers each rank's `n` elements at `root` (out size n·g there, ignored
  /// elsewhere). Flat fan-in; modelled like a ring all-gather.
  template <typename T>
  void gather(const T* mine, tensor::index_t n, T* out, int root);

  /// Inverse of gather: root's `data` (n·g elements) is distributed so rank r
  /// receives chunk r into `out` (n elements).
  template <typename T>
  void scatter(const T* data, tensor::index_t n, T* out, int root);

  void barrier();

  // -- tensor conveniences --------------------------------------------------

  template <typename T>
  void broadcast(tensor::TensorT<T>& t, int root) {
    broadcast(t.data(), t.numel(), root);
  }
  template <typename T>
  void reduce(tensor::TensorT<T>& t, int root) {
    reduce(t.data(), t.numel(), root);
  }
  template <typename T>
  void all_reduce(tensor::TensorT<T>& t) {
    all_reduce(t.data(), t.numel());
  }
  template <typename T>
  void all_reduce_max(tensor::TensorT<T>& t) {
    all_reduce_max(t.data(), t.numel());
  }
  template <typename T>
  void all_reduce_ordered(tensor::TensorT<T>& t) {
    all_reduce_ordered(t.data(), t.numel());
  }

 private:
  // Internal tags: [comm_id : 32][seq : 24][phase : 8]. User p2p tags live in
  // a reserved high-seq band so they can never collide with collectives.
  std::uint64_t collective_tag(std::uint64_t seq, int phase) const {
    return (comm_id_ << 32) | (seq << 8) | static_cast<std::uint64_t>(phase);
  }
  std::uint64_t user_tag(int tag) const {
    OPT_CHECK(tag >= 0 && tag < (1 << 24), "user tag " << tag << " out of range");
    return (comm_id_ << 32) | (0xFFull << 24 << 8) | static_cast<std::uint64_t>(tag);
  }
  std::uint64_t next_seq() {
    const std::uint64_t s = seq_++;
    OPT_CHECK(s < (1ull << 24) - (1ull << 16), "collective sequence space exhausted");
    return s;
  }

  /// Drains local compute into the clock, aligns clocks across the group and
  /// advances by `dt`. Returns the entry timing breakdown.
  CollectiveTiming begin_collective(std::uint64_t seq, double dt);

  /// begin_collective without the final clock advance: models issuing a
  /// non-blocking collective. Entry still aligns on max(slowest member's
  /// clock, this communicator's link availability); the link is then reserved
  /// through the transfer, so back-to-back collectives on one communicator
  /// serialise even when issued without waiting (one link per communicator —
  /// row and column links are distinct and genuinely overlap).
  CollectiveTiming begin_async(std::uint64_t seq, double dt);

  /// This rank's position in the binomial tree rooted at group rank `root`:
  /// parent (or −1 at the root) and children in descending-mask order — the
  /// order the broadcast forwards in; reverse it for the reduce's
  /// ascending-mask accumulation order.
  struct TreeTopo {
    int parent = -1;
    std::vector<int> children;
  };
  TreeTopo tree_topo(int root) const;

  struct Chunk {
    tensor::index_t begin = 0;
    tensor::index_t count = 0;
  };
  /// Splits [0, n) into `chunks` contiguous runs (sizes differ by ≤ 1).
  static std::vector<Chunk> chunk_layout(tensor::index_t n, int chunks);

  /// One tree collective as entered on this rank: its entry timing, its
  /// place in the tree and the payload's chunk layout.
  struct TreeCall {
    CollectiveTiming timing;
    TreeTopo topo;
    std::vector<Chunk> chunks;
  };

  /// Shared entry of the tree collectives: plans the n-element, `bytes`-byte
  /// transfer, enters it (blocking: align and advance the clock, exactly as
  /// begin_collective; issued: begin_async) and annotates `span`.
  TreeCall begin_tree(std::uint64_t seq, tensor::index_t n, std::uint64_t bytes, int root,
                      bool blocking, obs::Span& span);

  /// The single binomial-tree broadcast and reduce behind broadcast/reduce
  /// and ibroadcast/ireduce. The blocking form completes inline and returns
  /// an inert Request (no state is allocated); the issued form defers a
  /// rank's receives, and everything after them, to Request::wait().
  template <typename T>
  Request tree_broadcast(T* data, tensor::index_t n, int root, bool blocking);
  template <typename T>
  Request tree_reduce(T* data, tensor::index_t n, int root, T* scratch, bool blocking);

  /// Runs `relay(topo, chunks)` — this rank's receives, accumulates and
  /// forwards — inline, or stores it in the returned Request for wait().
  template <typename Relay>
  Request complete_tree(TreeCall call, std::uint64_t bytes, bool blocking, bool receives,
                        const char* wait_op, Relay relay);

  /// Attaches the standard collective args (communicator label, group size,
  /// payload bytes, align-wait vs transfer split) to an armed span.
  void annotate_span(obs::Span& span, std::uint64_t bytes, const CollectiveTiming& t) const {
    if (!span.armed()) return;
    if (!label_.empty()) span.arg("comm", label_);
    span.arg("g", size());
    span.arg("bytes", bytes);
    span.arg("wait_s", t.wait());
    span.arg("transfer_s", t.dt);
  }

  template <typename T>
  void send_internal(int dst_group_rank, std::uint64_t tag, const T* data, tensor::index_t n);
  template <typename T>
  void recv_internal(int src_group_rank, std::uint64_t tag, T* data, tensor::index_t n);

  Fabric* fabric_;
  std::uint64_t comm_id_;
  Fabric::SyncGroup* sync_;  // this communicator's rendezvous state in the fabric
  std::vector<int> group_;  // world ranks
  int rank_;                // my index within group_
  SimClock* clock_;
  const CostModel* cost_;
  CommStats* stats_;
  std::uint64_t seq_ = 0;
  std::string label_;
  // Simulated time until which this communicator's link is occupied by
  // already-issued (possibly un-waited) collectives. Identical across ranks
  // by induction: every member issues the same collectives in the same order
  // and entry alignment is a group-wide max.
  double link_busy_until_ = 0;

  friend class Request;
};

// ===========================================================================
// Template implementations
// ===========================================================================

template <typename T>
void Communicator::send_internal(int dst_group_rank, std::uint64_t tag, const T* data,
                                 tensor::index_t n) {
  // Collective-internal transfer: bytes are accounted by the collective's Op
  // record, timing by its closed-form cost; no timestamp is carried.
  fabric_->send(world_rank(), group_[dst_group_rank], tag, data,
                static_cast<std::size_t>(n) * sizeof(T));
}

template <typename T>
void Communicator::recv_internal(int src_group_rank, std::uint64_t tag, T* data,
                                 tensor::index_t n) {
  (void)fabric_->recv(world_rank(), group_[src_group_rank], tag, data,
                      static_cast<std::size_t>(n) * sizeof(T));
}

template <typename T>
void Communicator::send(int dst, int tag, const T* data, tensor::index_t n) {
  Fabric::OpScope op_scope("send");
  obs::Span span("comm", "send");
  clock_->drain_compute(*cost_);
  const std::uint64_t bytes = static_cast<std::uint64_t>(n) * sizeof(T);
  const double dt = cost_->p2p_time(world_rank(), group_[dst], bytes);
  if (obs::flight_enabled()) {
    obs::flight_note("comm", "send", clock_->now(),
                     "dst=" + std::to_string(group_[dst]) + " bytes=" + std::to_string(bytes));
  }
  clock_->advance_transfer(dt);
  stats_->p2p_messages += 1;
  stats_->p2p_bytes += bytes;
  stats_->p2p_time += dt;
  if (span.armed()) {
    if (!label_.empty()) span.arg("comm", label_);
    span.arg("dst", group_[dst]);
    span.arg("bytes", bytes);
    span.arg("transfer_s", dt);
  }
  // The timestamp carries the post-transfer clock so the receiver observes
  // causality (it cannot have the data before the sender finished sending).
  fabric_->send(world_rank(), group_[dst], user_tag(tag), data,
                static_cast<std::size_t>(n) * sizeof(T), clock_->now());
}

template <typename T>
void Communicator::recv(int src, int tag, T* data, tensor::index_t n) {
  Fabric::OpScope op_scope("recv");
  obs::Span span("comm", "recv");
  clock_->drain_compute(*cost_);
  if (obs::flight_enabled()) {
    obs::flight_note("comm", "recv", clock_->now(),
                     "src=" + std::to_string(group_[src]) + " bytes=" +
                         std::to_string(static_cast<std::uint64_t>(n) * sizeof(T)));
  }
  const double sender_ts = fabric_->recv(world_rank(), group_[src], user_tag(tag), data,
                                         static_cast<std::size_t>(n) * sizeof(T));
  clock_->align_to(sender_ts);
  if (span.armed()) {
    if (!label_.empty()) span.arg("comm", label_);
    span.arg("src", group_[src]);
    span.arg("bytes", static_cast<std::uint64_t>(n) * sizeof(T));
  }
}

template <typename T>
Request Communicator::tree_broadcast(T* data, tensor::index_t n, int root, bool blocking) {
  const std::uint64_t seq = next_seq();
  if (size() == 1) return Request();
  const std::uint64_t bytes = static_cast<std::uint64_t>(n) * sizeof(T);
  const char* op = blocking ? "broadcast" : "ibroadcast";
  Fabric::OpScope op_scope(op);
  obs::Span span("comm", op);
  TreeCall call = begin_tree(seq, n, bytes, root, blocking, span);
  stats_->broadcast.record(n, bytes, static_cast<double>(n) * log2_ceil(size()), call.timing.dt);

  // MPICH-style binomial tree rooted at `root`; large payloads stream down
  // the tree in chunks (the plan's pipelined schedule). Chunks move in order
  // on each edge, so FIFO matching per (src, tag) keeps them aligned.
  const std::uint64_t tag = collective_tag(seq, 0);
  const bool receives = call.topo.parent >= 0;
  return complete_tree(std::move(call), bytes, blocking, receives, "ibroadcast.wait",
                       [this, tag, data](const TreeTopo& topo, const std::vector<Chunk>& chunks) {
                         for (const Chunk& ck : chunks) {
                           if (topo.parent >= 0) {
                             recv_internal(topo.parent, tag, data + ck.begin, ck.count);
                           }
                           for (int child : topo.children) {
                             send_internal(child, tag, data + ck.begin, ck.count);
                           }
                         }
                       });
}

template <typename T>
Request Communicator::tree_reduce(T* data, tensor::index_t n, int root, T* scratch,
                                  bool blocking) {
  const std::uint64_t seq = next_seq();
  if (size() == 1) return Request();
  const std::uint64_t bytes = static_cast<std::uint64_t>(n) * sizeof(T);
  const char* op = blocking ? "reduce" : "ireduce";
  Fabric::OpScope op_scope(op);
  obs::Span span("comm", op);
  TreeCall call = begin_tree(seq, n, bytes, root, blocking, span);
  stats_->reduce.record(n, bytes, static_cast<double>(n) * log2_ceil(size()), call.timing.dt);

  // Reverse binomial tree: children send partial sums toward the root,
  // chunk by chunk. Children are accumulated in ascending-mask order per
  // chunk, so every element sees the same addition order regardless of the
  // chunk count — chunked and un-chunked reduces are bitwise identical. The
  // receives complete strictly in order, so they share one scratch buffer.
  const std::uint64_t tag = collective_tag(seq, 1);
  const bool receives = !call.topo.children.empty();
  std::shared_ptr<std::vector<T>> owned;
  if (receives && scratch == nullptr) {
    owned = std::make_shared<std::vector<T>>(static_cast<std::size_t>(n));
    scratch = owned->data();
  }
  return complete_tree(
      std::move(call), bytes, blocking, receives, "ireduce.wait",
      [this, tag, data, scratch, owned](const TreeTopo& topo, const std::vector<Chunk>& chunks) {
        for (const Chunk& ck : chunks) {
          for (auto it = topo.children.rbegin(); it != topo.children.rend(); ++it) {
            recv_internal(*it, tag, scratch, ck.count);
            T* target = data + ck.begin;
            for (tensor::index_t i = 0; i < ck.count; ++i) target[i] += scratch[i];
          }
          if (topo.parent >= 0) send_internal(topo.parent, tag, data + ck.begin, ck.count);
        }
      });
}

template <typename Relay>
Request Communicator::complete_tree(TreeCall call, std::uint64_t bytes, bool blocking,
                                    bool receives, const char* wait_op, Relay relay) {
  // Fabric sends are buffered and never block, so a rank with nothing to
  // receive relays its whole part at issue in either form.
  if (blocking || !receives) relay(call.topo, call.chunks);
  if (blocking) return Request();
  auto st = std::make_unique<Request::State>();
  st->comm = this;
  st->wait_op = wait_op;
  st->completion = call.timing.completion();
  st->bytes = bytes;
  if (receives) {
    st->finish = [relay, topo = std::move(call.topo), chunks = std::move(call.chunks)] {
      relay(topo, chunks);
    };
  }
  return Request(std::move(st));
}

template <typename T>
void Communicator::all_reduce(T* data, tensor::index_t n) {
  const std::uint64_t seq = next_seq();
  if (size() == 1) return;
  const int g = size();
  const std::uint64_t bytes = static_cast<std::uint64_t>(n) * sizeof(T);
  Fabric::OpScope op_scope("allreduce");
  obs::Span span("comm", "allreduce");
  const CollectiveTiming ct = begin_collective(seq, cost_->ring_allreduce_time(group_, bytes));
  annotate_span(span, bytes, ct);
  stats_->allreduce.record(
      n, bytes, static_cast<double>(n) * 2.0 * (g - 1) / static_cast<double>(g), ct.dt);

  // Ring all-reduce: g−1 reduce-scatter steps then g−1 all-gather steps over
  // contiguous chunks (sizes differ by at most one element).
  const auto chunk_begin = [&](int c) {
    const tensor::index_t base = n / g;
    const tensor::index_t rem = n % g;
    return c * base + std::min<tensor::index_t>(c, rem);
  };
  const auto chunk_size = [&](int c) {
    return n / g + (c < static_cast<tensor::index_t>(n % g) ? 1 : 0);
  };
  const int right = (rank_ + 1) % g;
  const int left = (rank_ - 1 + g) % g;
  std::vector<T> incoming(static_cast<std::size_t>(n / g + 1));

  for (int s = 0; s < g - 1; ++s) {
    const int send_chunk = ((rank_ - s) % g + g) % g;
    const int recv_chunk = ((rank_ - s - 1) % g + g) % g;
    const std::uint64_t tag = collective_tag(seq, 2);
    send_internal(right, tag, data + chunk_begin(send_chunk), chunk_size(send_chunk));
    recv_internal(left, tag, incoming.data(), chunk_size(recv_chunk));
    T* target = data + chunk_begin(recv_chunk);
    const tensor::index_t cs = chunk_size(recv_chunk);
    for (tensor::index_t i = 0; i < cs; ++i) target[i] += incoming[i];
  }
  for (int s = 0; s < g - 1; ++s) {
    const int send_chunk = ((rank_ + 1 - s) % g + g) % g;
    const int recv_chunk = ((rank_ - s) % g + g) % g;
    const std::uint64_t tag = collective_tag(seq, 3);
    send_internal(right, tag, data + chunk_begin(send_chunk), chunk_size(send_chunk));
    recv_internal(left, tag, data + chunk_begin(recv_chunk), chunk_size(recv_chunk));
  }
}

template <typename T>
void Communicator::all_reduce_max(T* data, tensor::index_t n) {
  const std::uint64_t seq = next_seq();
  if (size() == 1) return;
  const int g = size();
  const std::uint64_t bytes = static_cast<std::uint64_t>(n) * sizeof(T);
  Fabric::OpScope op_scope("allreduce_max");
  obs::Span span("comm", "allreduce_max");
  const CollectiveTiming ct = begin_collective(seq, cost_->ring_allreduce_time(group_, bytes));
  annotate_span(span, bytes, ct);
  stats_->allreduce.record(
      n, bytes, static_cast<double>(n) * 2.0 * (g - 1) / static_cast<double>(g), ct.dt);

  // Small payloads only (softmax row maxima): gather-to-0 + broadcast keeps
  // the implementation simple; the modelled time above is still the ring's.
  const std::uint64_t tag = collective_tag(seq, 4);
  std::vector<T> incoming(static_cast<std::size_t>(n));
  if (rank_ == 0) {
    for (int r = 1; r < g; ++r) {
      recv_internal(r, tag, incoming.data(), n);
      for (tensor::index_t i = 0; i < n; ++i) data[i] = std::max(data[i], incoming[i]);
    }
  } else {
    send_internal(0, tag, data, n);
  }
  const std::uint64_t tag2 = collective_tag(seq, 5);
  if (rank_ == 0) {
    for (int r = 1; r < g; ++r) send_internal(r, tag2, data, n);
  } else {
    recv_internal(0, tag2, data, n);
  }
}

template <typename T>
void Communicator::all_reduce_ordered(T* data, tensor::index_t n) {
  const std::uint64_t seq = next_seq();
  if (size() == 1) return;
  const int g = size();
  const std::uint64_t bytes = static_cast<std::uint64_t>(n) * sizeof(T);
  Fabric::OpScope op_scope("allreduce");
  obs::Span span("comm", "allreduce");
  const CollectiveTiming ct = begin_collective(seq, cost_->ring_allreduce_time(group_, bytes));
  annotate_span(span, bytes, ct);
  stats_->allreduce.record(
      n, bytes, static_cast<double>(n) * 2.0 * (g - 1) / static_cast<double>(g), ct.dt);

  // Gather-to-0 with an ascending-rank fold, then broadcast: rank 0's value
  // + rank 1's + … + rank (g−1)'s for every element regardless of n.
  const std::uint64_t tag = collective_tag(seq, 11);
  std::vector<T> incoming(static_cast<std::size_t>(n));
  if (rank_ == 0) {
    for (int r = 1; r < g; ++r) {
      recv_internal(r, tag, incoming.data(), n);
      for (tensor::index_t i = 0; i < n; ++i) data[i] += incoming[i];
    }
  } else {
    send_internal(0, tag, data, n);
  }
  const std::uint64_t tag2 = collective_tag(seq, 12);
  if (rank_ == 0) {
    for (int r = 1; r < g; ++r) send_internal(r, tag2, data, n);
  } else {
    recv_internal(0, tag2, data, n);
  }
}

template <typename T>
void Communicator::all_gather(const T* mine, tensor::index_t n, T* out) {
  const std::uint64_t seq = next_seq();
  const int g = size();
  if (g == 1) {
    std::memcpy(out, mine, static_cast<std::size_t>(n) * sizeof(T));
    return;
  }
  const std::uint64_t total_bytes = static_cast<std::uint64_t>(n) * g * sizeof(T);
  Fabric::OpScope op_scope("allgather");
  obs::Span span("comm", "allgather");
  const CollectiveTiming ct = begin_collective(seq, cost_->ring_allgather_time(group_, total_bytes));
  annotate_span(span, total_bytes, ct);
  stats_->allgather.record(static_cast<std::uint64_t>(n) * g, total_bytes,
                           static_cast<double>(n) * (g - 1), ct.dt);

  std::memcpy(out + static_cast<tensor::index_t>(rank_) * n, mine,
              static_cast<std::size_t>(n) * sizeof(T));
  const int right = (rank_ + 1) % g;
  const int left = (rank_ - 1 + g) % g;
  for (int s = 0; s < g - 1; ++s) {
    const int send_chunk = ((rank_ - s) % g + g) % g;
    const int recv_chunk = ((rank_ - s - 1) % g + g) % g;
    const std::uint64_t tag = collective_tag(seq, 6);
    send_internal(right, tag, out + static_cast<tensor::index_t>(send_chunk) * n, n);
    recv_internal(left, tag, out + static_cast<tensor::index_t>(recv_chunk) * n, n);
  }
}

template <typename T>
void Communicator::gather(const T* mine, tensor::index_t n, T* out, int root) {
  const std::uint64_t seq = next_seq();
  const int g = size();
  if (g == 1) {
    std::memcpy(out, mine, static_cast<std::size_t>(n) * sizeof(T));
    return;
  }
  const std::uint64_t total_bytes = static_cast<std::uint64_t>(n) * g * sizeof(T);
  Fabric::OpScope op_scope("gather");
  obs::Span span("comm", "gather");
  const CollectiveTiming ct = begin_collective(seq, cost_->ring_allgather_time(group_, total_bytes));
  annotate_span(span, total_bytes, ct);
  stats_->allgather.record(static_cast<std::uint64_t>(n) * g, total_bytes,
                           static_cast<double>(n) * (g - 1), ct.dt);
  const std::uint64_t tag = collective_tag(seq, 9);
  if (rank_ == root) {
    std::memcpy(out + static_cast<tensor::index_t>(root) * n, mine,
                static_cast<std::size_t>(n) * sizeof(T));
    for (int r = 0; r < g; ++r) {
      if (r == root) continue;
      recv_internal(r, tag, out + static_cast<tensor::index_t>(r) * n, n);
    }
  } else {
    send_internal(root, tag, mine, n);
  }
}

template <typename T>
void Communicator::scatter(const T* data, tensor::index_t n, T* out, int root) {
  const std::uint64_t seq = next_seq();
  const int g = size();
  if (g == 1) {
    std::memcpy(out, data, static_cast<std::size_t>(n) * sizeof(T));
    return;
  }
  const std::uint64_t total_bytes = static_cast<std::uint64_t>(n) * g * sizeof(T);
  Fabric::OpScope op_scope("scatter");
  obs::Span span("comm", "scatter");
  const CollectiveTiming ct = begin_collective(seq, cost_->ring_allgather_time(group_, total_bytes));
  annotate_span(span, total_bytes, ct);
  stats_->allgather.record(static_cast<std::uint64_t>(n) * g, total_bytes,
                           static_cast<double>(n) * (g - 1), ct.dt);
  const std::uint64_t tag = collective_tag(seq, 10);
  if (rank_ == root) {
    std::memcpy(out, data + static_cast<tensor::index_t>(root) * n,
                static_cast<std::size_t>(n) * sizeof(T));
    for (int r = 0; r < g; ++r) {
      if (r == root) continue;
      send_internal(r, tag, data + static_cast<tensor::index_t>(r) * n, n);
    }
  } else {
    recv_internal(root, tag, out, n);
  }
}

template <typename T>
void Communicator::all_to_all(const T* send, tensor::index_t n, T* out) {
  const std::uint64_t seq = next_seq();
  const int g = size();
  if (g == 1) {
    std::memcpy(out, send, static_cast<std::size_t>(n) * sizeof(T));
    return;
  }
  // Pairwise personalised exchange; every rank sends and receives g−1 chunks
  // concurrently, so the modelled time is (g−1)·(α + β·chunk_bytes).
  const std::uint64_t chunk_bytes = static_cast<std::uint64_t>(n) * sizeof(T);
  Fabric::OpScope op_scope("alltoall");
  obs::Span span("comm", "alltoall");
  const CollectiveTiming ct = begin_collective(
      seq, (g - 1) * (cost_->params().alpha +
                      cost_->beta_eff(group_) * static_cast<double>(chunk_bytes)));
  annotate_span(span, chunk_bytes * static_cast<std::uint64_t>(g - 1), ct);
  stats_->alltoall.record(static_cast<std::uint64_t>(n) * g,
                          chunk_bytes * static_cast<std::uint64_t>(g - 1),
                          static_cast<double>(n) * (g - 1), ct.dt);
  const std::uint64_t tag = collective_tag(seq, 8);
  std::memcpy(out + static_cast<tensor::index_t>(rank_) * n,
              send + static_cast<tensor::index_t>(rank_) * n,
              static_cast<std::size_t>(n) * sizeof(T));
  for (int peer = 0; peer < g; ++peer) {
    if (peer == rank_) continue;
    send_internal(peer, tag, send + static_cast<tensor::index_t>(peer) * n, n);
  }
  for (int peer = 0; peer < g; ++peer) {
    if (peer == rank_) continue;
    recv_internal(peer, tag, out + static_cast<tensor::index_t>(peer) * n, n);
  }
}

template <typename T>
void Communicator::reduce_scatter(const T* data, tensor::index_t n, T* out) {
  const std::uint64_t seq = next_seq();
  const int g = size();
  if (g == 1) {
    std::memcpy(out, data, static_cast<std::size_t>(n) * sizeof(T));
    return;
  }
  const std::uint64_t total_bytes = static_cast<std::uint64_t>(n) * g * sizeof(T);
  Fabric::OpScope op_scope("reducescatter");
  obs::Span span("comm", "reducescatter");
  const CollectiveTiming ct =
      begin_collective(seq, cost_->ring_reducescatter_time(group_, total_bytes));
  annotate_span(span, total_bytes, ct);
  stats_->reducescatter.record(static_cast<std::uint64_t>(n) * g, total_bytes,
                               static_cast<double>(n) * (g - 1), ct.dt);

  // Ring: a running sum for each chunk travels the ring, gaining one host's
  // contribution per hop. Starting the schedule at chunk (rank−1) makes the
  // fully-reduced chunk r land at rank r after g−1 hops.
  std::vector<T> work(static_cast<std::size_t>(n));
  std::vector<T> incoming(static_cast<std::size_t>(n));
  const int right = (rank_ + 1) % g;
  const int left = (rank_ - 1 + g) % g;
  std::memcpy(work.data(), data + static_cast<tensor::index_t>(((rank_ - 1) % g + g) % g) * n,
              static_cast<std::size_t>(n) * sizeof(T));
  for (int s = 0; s < g - 1; ++s) {
    // At step s we forward the running sum of chunk (rank−1−s) and receive the
    // running sum of chunk (rank−2−s), then add our own contribution to it.
    const int recv_chunk = ((rank_ - 2 - s) % g + g) % g;
    const std::uint64_t tag = collective_tag(seq, 7);
    send_internal(right, tag, work.data(), n);
    recv_internal(left, tag, incoming.data(), n);
    const T* own = data + static_cast<tensor::index_t>(recv_chunk) * n;
    for (tensor::index_t i = 0; i < n; ++i) work[i] = incoming[i] + own[i];
  }
  std::memcpy(out, work.data(), static_cast<std::size_t>(n) * sizeof(T));
}

}  // namespace optimus::comm
