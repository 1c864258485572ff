#include "comm/communicator.hpp"

#include "obs/flight.hpp"

namespace optimus::comm {

Communicator::Communicator(Fabric& fabric, std::uint64_t comm_id, std::vector<int> group,
                           int world_rank, SimClock& clock, const CostModel& cost,
                           CommStats& stats)
    : fabric_(&fabric),
      comm_id_(comm_id),
      sync_(nullptr),
      group_(std::move(group)),
      rank_(-1),
      clock_(&clock),
      cost_(&cost),
      stats_(&stats) {
  OPT_CHECK(!group_.empty(), "communicator group is empty");
  for (std::size_t i = 0; i < group_.size(); ++i) {
    if (group_[i] == world_rank) {
      rank_ = static_cast<int>(i);
      break;
    }
  }
  OPT_CHECK(rank_ >= 0, "world rank " << world_rank << " not in communicator group");
  sync_ = &fabric.sync_group(comm_id_, size());
}

CollectiveTiming Communicator::begin_collective(std::uint64_t seq, double dt) {
  const CollectiveTiming t = begin_async(seq, dt);
  // Bitwise identical to the previous set(completion()): align_to assigns
  // entry_aligned exactly, then advance_transfer adds the same dt — only the
  // utilization bucketing differs.
  clock_->align_to(t.entry_aligned);
  clock_->advance_transfer(t.dt);
  return t;
}

CollectiveTiming Communicator::begin_async(std::uint64_t seq, double dt) {
  clock_->drain_compute(*cost_);
  CollectiveTiming t;
  t.entry_local = clock_->now();
  // Flight note before the rendezvous: if a peer's fault aborts the fabric
  // while we block in sync_max, the recorder still shows what we entered.
  if (obs::flight_enabled()) {
    obs::flight_note("comm", Fabric::current_op(), t.entry_local,
                     label_.empty() ? "g=" + std::to_string(size())
                                    : label_ + " g=" + std::to_string(size()));
  }
  // Entry waits for the slowest member's clock AND for this communicator's
  // link to free up (earlier issued-but-unwaited transfers occupy it). For
  // blocking flows the clock never lags the link, so this is a pure
  // extension; for pipelined flows it is what serialises back-to-back
  // collectives on one link while row/column links still overlap.
  t.entry_aligned =
      std::max(fabric_->sync_max(*sync_, seq, world_rank(), t.entry_local), link_busy_until_);
  t.dt = dt;
  link_busy_until_ = t.entry_aligned + dt;
  return t;
}

Communicator::TreeCall Communicator::begin_tree(std::uint64_t seq, tensor::index_t n,
                                                std::uint64_t bytes, int root, bool blocking,
                                                obs::Span& span) {
  const CostModel::TreePlan plan = cost_->tree_plan(group_, bytes);
  TreeCall call;
  call.timing = blocking ? begin_collective(seq, plan.time) : begin_async(seq, plan.time);
  annotate_span(span, bytes, call.timing);
  if (span.armed() && plan.chunks > 1) span.arg("chunks", plan.chunks);
  call.topo = tree_topo(root);
  call.chunks = chunk_layout(n, plan.chunks);
  return call;
}

Communicator::TreeTopo Communicator::tree_topo(int root) const {
  TreeTopo t;
  const int g = static_cast<int>(group_.size());
  const int relative = (rank_ - root + g) % g;
  int mask = 1;
  while (mask < g) {
    if (relative & mask) {
      t.parent = ((relative - mask) + root) % g;
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < g) t.children.push_back((relative + mask + root) % g);
    mask >>= 1;
  }
  return t;
}

std::vector<Communicator::Chunk> Communicator::chunk_layout(tensor::index_t n, int chunks) {
  if (chunks < 1) chunks = 1;
  if (static_cast<tensor::index_t>(chunks) > n && n > 0) {
    chunks = static_cast<int>(n);
  }
  std::vector<Chunk> out;
  out.reserve(static_cast<std::size_t>(chunks));
  const tensor::index_t base = n / chunks;
  const tensor::index_t rem = n % chunks;
  tensor::index_t begin = 0;
  for (int c = 0; c < chunks; ++c) {
    const tensor::index_t count = base + (c < rem ? 1 : 0);
    out.push_back({begin, count});
    begin += count;
  }
  return out;
}

void Request::wait() {
  if (!st_) return;
  const std::unique_ptr<State> st = std::move(st_);
  Communicator& comm = *st->comm;
  Fabric::OpScope op_scope(st->wait_op);
  if (st->finish) st->finish();
  comm.clock_->drain_compute(*comm.cost_);
  // The span covers exactly the idle time this rank spends blocked on the
  // in-flight transfer — the part of the modelled dt that compute did NOT
  // hide. The transfer itself was accounted (args + link reservation) at
  // issue, so transfer_s here is 0 and sim_dur == wait_s.
  obs::Span span("comm", st->wait_op);
  const double idle = std::max(0.0, st->completion - comm.clock_->now());
  comm.clock_->align_to(st->completion);
  if (span.armed()) {
    if (!comm.label_.empty()) span.arg("comm", comm.label_);
    span.arg("g", comm.size());
    span.arg("bytes", st->bytes);
    span.arg("wait_s", idle);
    span.arg("transfer_s", 0.0);
  }
}

Communicator Communicator::split(int color, int key) {
  const std::uint64_t seq = next_seq();
  // The split itself is an out-of-band control operation; it moves no modelled
  // bytes (real backends amortise communicator construction outside the
  // training loop).
  Fabric::SplitResult r =
      fabric_->split_sync(*sync_, seq, world_rank(), color, key);
  return Communicator(*fabric_, r.new_comm_id, std::move(r.group), world_rank(), *clock_,
                      *cost_, *stats_);
}

void Communicator::barrier() {
  const std::uint64_t seq = next_seq();
  if (size() == 1) return;
  const double dt = 2.0 * log2_ceil(size()) * cost_->params().alpha;
  Fabric::OpScope op_scope("barrier");
  obs::Span span("comm", "barrier");
  const CollectiveTiming ct = begin_collective(seq, dt);
  annotate_span(span, 0, ct);
  stats_->barrier.record(0, 0, 0.0, ct.dt);
  // The sync_max rendezvous inside begin_collective already provides the
  // synchronisation semantics; no data movement is needed.
}

}  // namespace optimus::comm
