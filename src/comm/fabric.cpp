#include "comm/fabric.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <sstream>
#include <thread>

#include "kernel/thread_pool.hpp"
#include "obs/flight.hpp"
#include "util/rng.hpp"

namespace optimus::comm {

namespace {

thread_local const char* t_current_op = nullptr;

/// FNV-1a over a byte range; the in-flight integrity check for poison mode.
std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Maps a 64-bit hash to [0, 1) and compares against a probability.
bool draw_hits(std::uint64_t h, double prob) {
  return prob > 0 && static_cast<double>(h >> 11) * 0x1.0p-53 < prob;
}

// Spin budget of one wait before it parks. A few pause instructions catch a
// peer that is already mid-step; after that the waiter yields its CPU between
// checks. A long PAUSE loop is what a hypervisor's pause-loop exiting treats
// as lock spinning and deschedules the vCPU for — on a 4-vCPU VM a pure-pause
// spin timed out on nearly every wait, so each one paid the spin *and* the
// park. Yielding also lets a co-scheduled thread run on an oversubscribed
// CPU. The budget (~50 µs of yields) covers a peer's tiny collective step, the
// common case in SUMMA loops, without burning a core through a GEMM-length
// wait.
constexpr int kSpinPauses = 16;
constexpr int kSpinYields = 128;

}  // namespace

// ---------------------------------------------------------------------------
// Wait primitive
// ---------------------------------------------------------------------------

void Fabric::WaitWord::notify() {
  // seq_cst pairs with park(): either the parker sees the new generation, or
  // this load sees it parked and takes the lock to wake it.
  gen_.fetch_add(1, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) == 0) return;
  { std::lock_guard<std::mutex> lock(mu_); }
  cv_.notify_all();
}

bool Fabric::WaitWord::spin(std::uint64_t seen) const {
  for (int i = 0; i < kSpinPauses + kSpinYields; ++i) {
    if (gen_.load(std::memory_order_acquire) != seen) return true;
    if (i < kSpinPauses) {
      kernel::cpu_pause();
    } else {
      std::this_thread::yield();
    }
  }
  return gen_.load(std::memory_order_acquire) != seen;
}

void Fabric::WaitWord::park(std::uint64_t seen) {
  std::unique_lock<std::mutex> lock(mu_);
  parked_.fetch_add(1, std::memory_order_seq_cst);
  cv_.wait(lock, [&] { return gen_.load(std::memory_order_seq_cst) != seen; });
  parked_.fetch_sub(1, std::memory_order_relaxed);
}

template <typename Ready>
void Fabric::await(WaitWord& word, int rank, bool may_spin, Ready&& ready) {
  bool spun = false, parked = false;
  for (;;) {
    const std::uint64_t seen = word.generation();
    throw_if_aborted();
    if (ready()) break;
    if (!parked && may_spin && spin_allowed()) {
      spun = true;
      if (word.spin(seen)) continue;
    }
    parked = true;
    word.park(seen);
  }
  WaitCounters& c = wait_counters_[rank];
  if (parked) {
    c.parks.fetch_add(1, std::memory_order_relaxed);
  } else if (spun) {
    c.spin_hits.fetch_add(1, std::memory_order_relaxed);
  }
}

// Rendezvous state of one communicator. At most two consecutive operations
// of a communicator are ever live: a member can only enter seq+2 after seq+1
// completed, i.e. after every member arrived at seq+1 and so left seq. Two
// slots indexed by seq parity therefore suffice, and the first arrival at a
// slot's new seq resets it.
struct Fabric::SyncGroup {
  struct Slot {
    std::uint64_t seq = ~0ull;  // guarded by mu
    int arrived = 0;
    double max_value = 0;
    // split payload: (color, order_key, world_rank) and per-member results
    std::vector<std::array<int, 3>> deposits;
    std::map<int, SplitResult> results;  // world_rank -> result
    std::atomic<std::uint64_t> done{0};  // seq + 1 once the rendezvous completed
  };

  explicit SyncGroup(int n) : size(n) {}

  /// Registers the caller's arrival at `seq`; returns the slot.
  Slot& arrive(std::uint64_t seq) {
    Slot& s = slots[seq & 1];
    if (s.seq != seq) {
      s.seq = seq;
      s.arrived = 0;
      s.deposits.clear();
      s.results.clear();
    }
    ++s.arrived;
    return s;
  }

  const int size;
  std::mutex mu;
  Slot slots[2];
  WaitWord word;  // bumped when a rendezvous completes
};

const char* Fabric::current_op() { return t_current_op ? t_current_op : "?"; }

Fabric::OpScope::OpScope(const char* name) : prev_(t_current_op) { t_current_op = name; }
Fabric::OpScope::~OpScope() { t_current_op = prev_; }

Fabric::Fabric(int world_size)
    : world_size_(world_size), spin_capable_(world_size <= kernel::hardware_threads()) {
  OPT_CHECK(world_size >= 1, "world_size " << world_size);
  mailboxes_.reserve(world_size);
  for (int i = 0; i < world_size; ++i) mailboxes_.push_back(std::make_unique<Mailbox>());
  wait_counters_ = std::make_unique<WaitCounters[]>(static_cast<std::size_t>(world_size));
}

Fabric::~Fabric() = default;

Fabric::WaitStats Fabric::wait_stats(int rank) const {
  OPT_CHECK(rank >= 0 && rank < world_size_, "wait_stats for rank " << rank);
  const WaitCounters& c = wait_counters_[rank];
  return {c.spin_hits.load(std::memory_order_relaxed), c.parks.load(std::memory_order_relaxed)};
}

void Fabric::set_fault_plan(const FaultPlan& plan) {
  fault_plan_ = plan;
  std::lock_guard<std::mutex> lock(fault_mu_);
  fault_counts_.clear();
}

void Fabric::abort(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(fail_mu_);
    if (failed_.load(std::memory_order_acquire)) return;  // first reason wins
    fail_reason_ = reason;
    failed_.store(true, std::memory_order_release);
  }
  // Wake everyone blocked in recv or in a sync rendezvous so they unwind.
  for (auto& box : mailboxes_) box->word.notify();
  std::shared_lock<std::shared_mutex> lock(groups_mu_);
  for (auto& [id, group] : groups_) group->word.notify();
}

void Fabric::throw_if_aborted() const {
  if (!failed_.load(std::memory_order_acquire)) return;
  // Record the op THIS rank was inside — deterministic per rank, unlike the
  // first-aborter-wins fail_reason_ below, which depends on scheduling and is
  // therefore kept out of the flight dump.
  obs::flight_note_abort(current_op());
  std::lock_guard<std::mutex> lock(fail_mu_);
  throw FabricAborted("fabric aborted: " + fail_reason_);
}

std::uint64_t Fabric::fault_draw(int src, int dst, std::uint64_t tag, std::uint64_t salt) {
  // Channel identity: (src, dst, salt) mixed with the tag. Per-channel
  // occurrence counters make the n-th message of a channel a stable logical
  // coordinate, so draws are independent of thread interleaving.
  const std::uint64_t channel =
      util::mix3(tag ^ salt, (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
                                 static_cast<std::uint32_t>(dst),
                 0x0F);
  std::uint64_t occurrence;
  {
    std::lock_guard<std::mutex> lock(fault_mu_);
    occurrence = fault_counts_[channel]++;
  }
  return util::mix3(fault_plan_.seed, channel, occurrence);
}

void Fabric::send(int src, int dst, std::uint64_t tag, const void* data, std::size_t bytes,
                  double timestamp) {
  OPT_CHECK(dst >= 0 && dst < world_size_, "send to rank " << dst);
  throw_if_aborted();
  Message msg;
  msg.src = src;
  msg.tag = tag;
  msg.timestamp = timestamp;
  msg.payload.resize(bytes);
  if (bytes > 0) std::memcpy(msg.payload.data(), data, bytes);

  if (fault_plan_.active()) {
    const std::uint64_t h = fault_draw(src, dst, tag, /*salt=*/0x5E4D);
    msg.checksum = fnv1a(msg.payload.data(), msg.payload.size());
    if (draw_hits(util::mix3(h, 1, 1), fault_plan_.spike_prob)) {
      std::this_thread::sleep_for(std::chrono::microseconds(fault_plan_.spike_us));
    }
    if (bytes > 0 && draw_hits(util::mix3(h, 2, 2), fault_plan_.poison_prob)) {
      // Flip bits of one deterministic byte after checksumming: the receiver's
      // integrity check must catch it.
      msg.payload[util::mix3(h, 3, 3) % bytes] ^= std::byte{0xFF};
    }
  }

  Mailbox& box = *mailboxes_[dst];
  {
    std::lock_guard<std::mutex> lock(box.mu);
    box.messages.push_back(std::move(msg));
  }
  box.word.notify();
}

void Fabric::maybe_stall(int dst, int src, std::uint64_t tag) {
  if (fault_plan_.active() && dst == fault_plan_.stall_rank) {
    const std::uint64_t h = fault_draw(src, dst, tag, /*salt=*/0x57A1);
    if (draw_hits(util::mix3(h, 4, 4), fault_plan_.stall_prob)) {
      std::this_thread::sleep_for(std::chrono::microseconds(fault_plan_.stall_us));
    }
  }
}

bool Fabric::try_consume_locked(Mailbox& box, std::unique_lock<std::mutex>& lock, int dst,
                                int src, std::uint64_t tag, void* out, std::size_t bytes,
                                double* ts) {
  const auto it = std::find_if(box.messages.begin(), box.messages.end(),
                               [&](const Message& m) { return m.src == src && m.tag == tag; });
  if (it == box.messages.end()) return false;
  OPT_CHECK(it->payload.size() == bytes,
            "recv size mismatch: got " << it->payload.size() << " bytes, want " << bytes
                                       << " (src " << src << " tag " << tag << ")");
  if (fault_plan_.active() && fnv1a(it->payload.data(), it->payload.size()) != it->checksum) {
    std::ostringstream why;
    why << "poisoned payload detected in op '" << current_op() << "' (src " << src << " -> dst "
        << dst << ", tag " << tag << ", " << bytes << " bytes)";
    lock.unlock();
    obs::flight_note_abort(current_op());
    abort(why.str());
    throw FaultError(why.str());
  }
  if (bytes > 0) std::memcpy(out, it->payload.data(), bytes);
  *ts = it->timestamp;
  box.messages.erase(it);
  return true;
}

double Fabric::recv(int dst, int src, std::uint64_t tag, void* out, std::size_t bytes) {
  OPT_CHECK(dst >= 0 && dst < world_size_, "recv at rank " << dst);
  maybe_stall(dst, src, tag);
  Mailbox& box = *mailboxes_[dst];
  double ts = 0;
  await(box.word, dst, /*may_spin=*/true, [&] {
    std::unique_lock<std::mutex> lock(box.mu);
    return try_consume_locked(box, lock, dst, src, tag, out, bytes, &ts);
  });
  return ts;
}

Fabric::RecvHandle Fabric::irecv(int dst, int src, std::uint64_t tag, void* out,
                                 std::size_t bytes) {
  OPT_CHECK(dst >= 0 && dst < world_size_, "irecv at rank " << dst);
  throw_if_aborted();
  RecvHandle h;
  h.dst = dst;
  h.src = src;
  h.tag = tag;
  h.out = out;
  h.bytes = bytes;
  h.done = false;
  return h;
}

bool Fabric::test(RecvHandle& h) {
  if (h.done) return true;
  Mailbox& box = *mailboxes_[h.dst];
  std::unique_lock<std::mutex> lock(box.mu);
  throw_if_aborted();
  if (!try_consume_locked(box, lock, h.dst, h.src, h.tag, h.out, h.bytes, &h.timestamp)) {
    return false;
  }
  h.done = true;
  return true;
}

double Fabric::wait(RecvHandle& h) {
  if (h.done) return h.timestamp;
  h.timestamp = recv(h.dst, h.src, h.tag, h.out, h.bytes);
  h.done = true;
  return h.timestamp;
}

Fabric::SendHandle Fabric::isend(int src, int dst, std::uint64_t tag, const void* data,
                                 std::size_t bytes, double timestamp) {
  // send() copies the payload before returning (buffered semantics), so the
  // async send is complete at the call; faults draw at the same point either
  // way, keeping plans replayable across blocking/async mixes.
  send(src, dst, tag, data, bytes, timestamp);
  return SendHandle{};
}

Fabric::SyncGroup& Fabric::sync_group(std::uint64_t comm_id, int group_size) {
  SyncGroup* g = nullptr;
  {
    // Every member of a new communicator looks its group up at once; the
    // split that created it already inserted it, so this is a shared lookup.
    std::shared_lock<std::shared_mutex> lock(groups_mu_);
    const auto it = groups_.find(comm_id);
    if (it != groups_.end()) g = it->second.get();
  }
  if (g == nullptr) {
    std::lock_guard<std::shared_mutex> lock(groups_mu_);
    std::unique_ptr<SyncGroup>& slot = groups_[comm_id];
    if (!slot) slot = std::make_unique<SyncGroup>(group_size);
    g = slot.get();
  }
  OPT_CHECK(g->size == group_size, "communicator " << comm_id << " used with group sizes "
                                                   << g->size << " and " << group_size);
  return *g;
}

double Fabric::sync_max(SyncGroup& group, std::uint64_t seq, int world_rank, double value) {
  SyncGroup::Slot* slot;
  {
    std::lock_guard<std::mutex> lock(group.mu);
    throw_if_aborted();
    slot = &group.arrive(seq);
    slot->max_value = slot->arrived == 1 ? value : std::max(slot->max_value, value);
    if (slot->arrived == group.size) {
      slot->done.store(seq + 1, std::memory_order_release);
      group.word.notify();
      return slot->max_value;
    }
  }
  await(group.word, world_rank, /*may_spin=*/true,
        [&] { return slot->done.load(std::memory_order_acquire) == seq + 1; });
  return slot->max_value;
}

Fabric::SplitResult Fabric::split_sync(SyncGroup& group, std::uint64_t seq, int world_rank,
                                       int color, int order_key) {
  SyncGroup::Slot* slot;
  {
    std::lock_guard<std::mutex> lock(group.mu);
    throw_if_aborted();
    slot = &group.arrive(seq);
    slot->deposits.push_back({color, order_key, world_rank});
    if (slot->arrived == group.size) {
      // Last arriver partitions the deposits into color groups, orders each by
      // (key, world_rank) and assigns fresh communicator ids — one id per
      // color, deterministic by sorting colors.
      std::sort(slot->deposits.begin(), slot->deposits.end());
      std::map<int, std::vector<int>> by_color;
      for (const auto& d : slot->deposits) by_color[d[0]].push_back(d[2]);
      for (const auto& [c, members] : by_color) {
        const std::uint64_t id = next_comm_id();
        sync_group(id, static_cast<int>(members.size()));
        for (int member : members) {
          SplitResult r;
          r.new_comm_id = id;
          r.group = members;
          slot->results[member] = std::move(r);
        }
      }
      slot->done.store(seq + 1, std::memory_order_release);
      group.word.notify();
      return slot->results.at(world_rank);
    }
  }
  await(group.word, world_rank, /*may_spin=*/false,
        [&] { return slot->done.load(std::memory_order_acquire) == seq + 1; });
  return slot->results.at(world_rank);
}

}  // namespace optimus::comm
