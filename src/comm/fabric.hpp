#pragma once

// The shared transport under all simulated devices.
//
// Each rank owns a mailbox; send() deposits a tagged byte payload into the
// destination mailbox, recv() blocks until a message matching (src, tag)
// arrives. Matching is FIFO per (src, tag) pair.
//
// The fabric also provides two *side channels* that model operations a real
// backend performs out-of-band (communicator construction, clock agreement in
// the simulation). These move no modelled bytes:
//
//   * sync_max   — all members of a group deposit a double; everyone receives
//                  the maximum. Used to align simulated clocks at collective
//                  entry.
//   * split_sync — MPI_Comm_split-style agreement: members deposit
//                  (color, key); everyone learns its new group and a fresh
//                  communicator id.
//
// Both rendezvous on per-communicator state (SyncGroup), so a collective on
// one communicator never wakes the members of another.
//
// Waiting. Every blocking point (recv/wait on a mailbox, the sync_max and
// split_sync rendezvous) uses one primitive, WaitWord: an atomic generation
// that the waker bumps after publishing its state change, a bounded spin on
// that word, then a condvar park. Whether a wait may spin depends only on
// what the fabric can observe: the world fits the host
// (world_size <= kernel::hardware_threads()) and every rank of the launch is
// currently running (rank_started/rank_finished). split_sync never spins —
// it runs once per communicator during set-up, when peers are still being
// scheduled. Each rank counts its waits that finished while spinning and the
// ones that parked (wait_stats).
//
// Deterministic fault injection: a FaultPlan arms seeded per-message latency
// spikes (wall-clock sleeps that perturb thread interleavings without touching
// payloads), rank stalls (one designated straggler rank sleeps before its
// receives) and a poison mode (payload bits flipped in flight). Poisoned
// payloads are caught by a per-message checksum at the receiver, which aborts
// the whole fabric: every rank blocked in recv/sync wakes up and throws, so a
// corrupted run fails loudly with a diagnosable error instead of deadlocking
// or silently diverging. All fault decisions hash (seed, channel, occurrence)
// so a given plan replays identically across runs.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/check.hpp"

namespace optimus::comm {

/// Thrown by the rank that detects an injected fault (e.g. a checksum
/// mismatch on a poisoned payload). The message names the faulted operation,
/// channel and byte count.
class FaultError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by every *other* rank once the fabric has been aborted: their
/// blocking receives and sync rendezvous wake up and unwind instead of
/// waiting forever on a peer that died.
class FabricAborted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Seeded fault-injection plan. Probabilities are per message; decisions are
/// pure functions of (seed, src, dst, tag, occurrence), so two runs with the
/// same plan inject the same faults at the same logical points.
struct FaultPlan {
  std::uint64_t seed = 0;
  double spike_prob = 0.0;  // chance a send sleeps spike_us before delivery
  int spike_us = 0;
  int stall_rank = -1;      // rank whose receives stall (straggler model)
  double stall_prob = 0.0;
  int stall_us = 0;
  double poison_prob = 0.0;  // chance a payload is corrupted in flight

  bool active() const { return spike_prob > 0 || stall_prob > 0 || poison_prob > 0; }
};

class Fabric {
 public:
  explicit Fabric(int world_size);
  ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int world_size() const { return world_size_; }

  /// Deposits `bytes` bytes for `dst`. Never blocks. `timestamp` carries the
  /// sender's simulated clock so the receiver can observe causality
  /// (Lamport-style); collective-internal traffic passes 0 (collectives
  /// synchronise clocks out-of-band instead).
  void send(int src, int dst, std::uint64_t tag, const void* data, std::size_t bytes,
            double timestamp = 0.0);

  /// Blocks until a message from `src` with `tag` arrives at `dst`; copies the
  /// payload into `out` (size must match exactly). Returns the sender's
  /// timestamp.
  double recv(int dst, int src, std::uint64_t tag, void* out, std::size_t bytes);

  // -- non-blocking point-to-point ------------------------------------------
  //
  // irecv records the match coordinates; the payload lands in `out` when
  // test()/wait() completes the handle. `out` must stay valid until then.
  // Fault semantics are identical to the blocking path: a poisoned payload
  // aborts the fabric and throws FaultError from whichever call consumed it,
  // and an abort by any rank wakes waiters with FabricAborted.

  struct RecvHandle {
    int dst = -1;
    int src = -1;
    std::uint64_t tag = 0;
    void* out = nullptr;
    std::size_t bytes = 0;
    bool done = true;  // default-constructed handles are no-ops to wait on
    double timestamp = 0;
  };

  /// Sends are buffered (the payload is copied before return), so the async
  /// send completes at the call; the handle exists for API symmetry.
  struct SendHandle {
    bool done = true;
  };

  RecvHandle irecv(int dst, int src, std::uint64_t tag, void* out, std::size_t bytes);

  /// Attempts to complete `h` without blocking; true once the payload has
  /// been delivered (or `h` was already done). Does not draw the straggler
  /// stall fault — stalls model blocked-receive latency, and a poll that
  /// consumed draws would make the fault schedule depend on poll counts.
  bool test(RecvHandle& h);

  /// Blocks until `h` completes; returns the sender's timestamp.
  double wait(RecvHandle& h);

  SendHandle isend(int src, int dst, std::uint64_t tag, const void* data, std::size_t bytes,
                   double timestamp = 0.0);
  void wait(SendHandle&) {}

  /// Per-communicator rendezvous state for the side channels. Owned by the
  /// fabric; Communicator looks its group up once at construction.
  struct SyncGroup;

  /// The rendezvous state of communicator `comm_id` (created on first use).
  /// Every member must pass the same `group_size`.
  SyncGroup& sync_group(std::uint64_t comm_id, int group_size);

  /// Side channel: group-wide max of `value` for the communicator's `seq`-th
  /// operation. Every member calls exactly once per seq, in seq order (the
  /// collective contract); `world_rank` is the caller, for wait accounting.
  double sync_max(SyncGroup& group, std::uint64_t seq, int world_rank, double value);

  struct SplitResult {
    std::uint64_t new_comm_id = 0;
    std::vector<int> group;  // world ranks, ordered by (key, world_rank)
  };

  /// Side channel: collective split. Every member of the parent group calls
  /// with its world rank, color and ordering key for the same `seq`. Never
  /// spins (set-up only).
  SplitResult split_sync(SyncGroup& group, std::uint64_t seq, int world_rank, int color,
                         int order_key);

  /// Allocates a globally unique communicator id.
  std::uint64_t next_comm_id() { return comm_id_counter_++; }

  // -- fault injection -------------------------------------------------------

  /// Installs (or clears, with a default-constructed plan) the fault plan.
  /// Must be called before any traffic; not thread-safe against in-flight ops.
  void set_fault_plan(const FaultPlan& plan);
  const FaultPlan& fault_plan() const { return fault_plan_; }

  /// Marks the fabric dead with a reason and wakes every blocked thread; all
  /// subsequent/blocked operations throw FabricAborted. First reason wins.
  void abort(const std::string& reason);
  bool aborted() const { return failed_.load(std::memory_order_acquire); }

  // -- wait policy and accounting -------------------------------------------

  /// Launch bookkeeping (comm::Cluster calls these around each rank body):
  /// waits spin only while every rank of the world is inside its body.
  void rank_started() { running_.fetch_add(1, std::memory_order_relaxed); }
  void rank_finished() { running_.fetch_sub(1, std::memory_order_relaxed); }

  /// Per-rank wait outcomes: waits that completed while spinning, and waits
  /// that parked on a condvar. Waits satisfied on the first check count as
  /// neither.
  struct WaitStats {
    std::uint64_t spin_hits = 0;
    std::uint64_t parks = 0;
  };
  WaitStats wait_stats(int rank) const;

  /// Name of the communicator operation the calling thread is currently
  /// executing ("allreduce", "broadcast", ...); "?" outside any op. Used to
  /// label fault diagnostics with the op that hit the fault.
  static const char* current_op();

  /// RAII thread-local op label; Communicator ops hold one for their span.
  class OpScope {
   public:
    explicit OpScope(const char* name);
    ~OpScope();
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;

   private:
    const char* prev_;
  };

 private:
  /// The one wait primitive: wakers publish their state change, then bump
  /// the generation; waiters snapshot the generation *before* checking their
  /// condition, so a change that lands after the check always shows as a new
  /// generation and no wake-up is lost.
  class WaitWord {
   public:
    std::uint64_t generation() const { return gen_.load(std::memory_order_acquire); }
    /// Bumps the generation and wakes parked waiters (a lock round-trip only
    /// when someone is parked).
    void notify();
    /// Spins up to a fixed budget for the generation to move past `seen`.
    bool spin(std::uint64_t seen) const;
    /// Parks until the generation moves past `seen`.
    void park(std::uint64_t seen);

   private:
    std::atomic<std::uint64_t> gen_{0};
    std::atomic<int> parked_{0};
    std::mutex mu_;
    std::condition_variable cv_;
  };

  struct Message {
    int src;
    std::uint64_t tag;
    double timestamp;
    std::uint64_t checksum = 0;  // FNV-1a of payload; validated when a plan is active
    std::vector<std::byte> payload;
  };

  struct Mailbox {
    std::mutex mu;
    std::deque<Message> messages;
    WaitWord word;  // bumped on every delivery
  };

  struct alignas(64) WaitCounters {
    std::atomic<std::uint64_t> spin_hits{0};
    std::atomic<std::uint64_t> parks{0};
  };

  /// Blocks rank `rank` on `word` until `ready()` (called with the caller's
  /// own locking) returns true; spins first when `may_spin` and the spin
  /// policy allows. Throws FabricAborted once the fabric is aborted.
  template <typename Ready>
  void await(WaitWord& word, int rank, bool may_spin, Ready&& ready);

  bool spin_allowed() const {
    return spin_capable_ && running_.load(std::memory_order_relaxed) == world_size_;
  }

  /// Draws the straggler stall fault for a receive at `dst` and sleeps if hit.
  void maybe_stall(int dst, int src, std::uint64_t tag);

  /// Tries to match-and-consume a message under `box.mu`; copies the payload,
  /// returns false if nothing matches yet. Throws FaultError on a poisoned
  /// payload (after aborting the fabric).
  bool try_consume_locked(Mailbox& box, std::unique_lock<std::mutex>& lock, int dst, int src,
                          std::uint64_t tag, void* out, std::size_t bytes, double* ts);

  /// Throws FabricAborted if the fabric has been aborted.
  void throw_if_aborted() const;

  /// Deterministic per-message fault draw: the n-th message on the (src, dst,
  /// tag, salt) channel gets a fresh 64-bit hash. Thread-safe.
  std::uint64_t fault_draw(int src, int dst, std::uint64_t tag, std::uint64_t salt);

  int world_size_;
  bool spin_capable_;  // world fits the host's hardware threads
  std::atomic<int> running_{0};
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::unique_ptr<WaitCounters[]> wait_counters_;

  std::shared_mutex groups_mu_;
  std::unordered_map<std::uint64_t, std::unique_ptr<SyncGroup>> groups_;
  std::atomic<std::uint64_t> comm_id_counter_{1};

  FaultPlan fault_plan_;
  std::mutex fault_mu_;
  std::map<std::uint64_t, std::uint64_t> fault_counts_;  // channel key -> occurrences
  std::atomic<bool> failed_{false};
  mutable std::mutex fail_mu_;
  std::string fail_reason_;
};

}  // namespace optimus::comm
