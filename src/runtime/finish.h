// Distributed termination detection: the implementation of X10's `finish`
// (paper §3.1).
//
// The general ("default") protocol is the transit-matrix algorithm:
// every place keeps, per finish, a cumulative counter block
//   { sent[q], received, completed }
// and, whenever an activity completion leaves the block drained
// (completed == received), flushes the *whole block* to the finish's home
// place as one atomic, sequence-numbered snapshot (this is the coalescing +
// compression the paper describes; snapshots are sparse). The home place
// holds the O(P^2) matrix of latest rows and declares termination when, for
// every place q,
//     sum_p sent_p[q] == received_q == completed_q
// and no home-local activities remain. Snapshot atomicity — an activity's
// completion travels in the same snapshot as the sends it performed — makes
// this sound under arbitrary reordering of control messages, which is why it
// needs no message ordering guarantees from the network.
//
// The specialized protocols (ASYNC, HERE, LOCAL, SPMD) are cheap
// degenerations of this; DENSE keeps the default counting but routes
// snapshots through one master place per node, trading latency for traffic
// shaping (bounded out-degree, batched control messages).
#pragma once

#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <vector>

#include "runtime/activity.h"
#include "x10rt/serialization.h"

namespace apgas {

class Runtime;

/// Per-(finish, place) cumulative counters held at a non-home place under the
/// default/dense protocols. Single snapshot unit.
struct RemoteBlock {
  std::map<int, std::uint64_t> sent;  // destination place -> cumulative count
  std::uint64_t received = 0;
  std::uint64_t completed = 0;
  std::uint64_t flush_seq = 0;  // sequence number of the last flushed snapshot
  Pragma mode = Pragma::kDefault;  // kDefault or kDense (routing decision)
};

/// Wire form of one place's counter block.
struct Snapshot {
  FinishKey key;
  int place = -1;
  std::uint64_t seq = 0;
  std::uint64_t received = 0;
  std::uint64_t completed = 0;
  std::vector<std::pair<int, std::uint64_t>> sent;  // sparse row
};

void encode_snapshot(x10rt::ByteBuffer& buf, const Snapshot& s);
Snapshot decode_snapshot(x10rt::ByteBuffer& buf);

/// The home-place state of one `finish`. Stack-allocated by the `finish()`
/// API; registered in the place's home registry for the duration so control
/// messages can resolve it by key.
class FinishHome {
 public:
  FinishHome(Runtime& rt, Pragma pragma);
  ~FinishHome();

  FinishHome(const FinishHome&) = delete;
  FinishHome& operator=(const FinishHome&) = delete;

  [[nodiscard]] FinishKey key() const { return key_; }
  [[nodiscard]] Pragma mode() const;
  [[nodiscard]] bool upgraded() const { return upgraded_; }
  /// The pragma this finish was opened with (immutable after construction —
  /// unlike mode(), safe to read from the watchdog thread without mu_).
  [[nodiscard]] Pragma declared_pragma() const { return pragma_; }

  // --- home-place accounting (called on the home place only) --------------

  /// A purely local activity was spawned at the home place.
  void local_spawn();
  /// A non-credit home-place activity completed.
  void local_complete();

  /// Called before shipping a task to `dst` (credit weights for kHere are
  /// handled separately via mint_credit()/credit_return()).
  void remote_spawn(int dst);

  /// A task under this finish arrived at / completed at the home place
  /// (default/dense matrix row for the home place).
  void home_task_received();
  void home_task_completed();

  /// FINISH_HERE weighted credits (see kCreditUnit in activity.h): the
  /// finish body mints one unit per governed spawn; completing activities
  /// return their remaining weight (directly at home or via control msg).
  /// Only decrements ever arrive, so `outstanding == 0` is reorder-safe.
  [[nodiscard]] std::uint64_t mint_credit();
  void credit_return(std::uint64_t weight);

  // --- control-message entry points ----------------------------------------

  /// FINISH_ASYNC / FINISH_SPMD completion messages.
  void on_completions(std::uint64_t n);
  /// Default / dense snapshot arrival.
  void apply_snapshot(const Snapshot& s);
  /// An activity anywhere raised: recorded and rethrown at wait().
  void on_exception(std::exception_ptr ep);

  [[nodiscard]] bool terminated();

  /// Pumps the current place's scheduler until terminated; releases remote
  /// blocks afterwards; rethrows the first recorded exception.
  void wait();

  /// §3.1 "implementation selection": classifies the concurrency pattern
  /// this finish actually governed into the specialized protocol that would
  /// have handled it — the runtime analog of the paper's prototype compiler
  /// analysis (which classified the HPL finishes into FINISH_SPMD,
  /// FINISH_ASYNC, and FINISH_HERE). Meaningful after termination of a
  /// matrix-mode (kAuto/kDefault/kDense) finish.
  [[nodiscard]] Pragma recommended_pragma() const;

 private:
  void upgrade();  // kAuto local counter -> distributed default protocol
  void update_balance(int q);
  void apply_row_delta(int place, const Snapshot& s);

  Runtime& rt_;
  FinishKey key_;
  Pragma pragma_;
  bool upgraded_ = false;
  std::uint64_t open_ns_ = 0;  // hist stamp for open->close latency

  mutable std::mutex mu_;
  std::int64_t local_live_ = 0;
  std::int64_t credits_ = 0;  // kAsync/kSpmd expected completions
  // kHere outstanding credit weight. Every body-level spawn mints kCreditUnit
  // (2^62), so a 64-bit accumulator would wrap to exactly zero after four
  // simultaneous mints and falsely satisfy the `outstanding == 0` termination
  // test; 128 bits absorb ~2^66 concurrent mints, far beyond any job.
  unsigned __int128 credit_out_ = 0;

  // Default/dense matrix state (allocated lazily on upgrade / first use).
  struct Row {
    std::uint64_t seq = 0;
    std::uint64_t received = 0;
    std::uint64_t completed = 0;
    std::map<int, std::uint64_t> sent;
  };
  std::vector<Row> rows_;
  std::vector<std::uint64_t> col_sent_;
  std::vector<std::uint8_t> balanced_;
  int imbalance_ = 0;
  bool matrix_active_ = false;

  std::vector<std::exception_ptr> exceptions_;
};

// --- place-side dispatchers used by the runtime glue ------------------------
// These run at arbitrary places and resolve a FinishKey against either the
// home registry (at the home place) or the remote-block registry.

/// Accounting before shipping a task from the current place to `dst`.
/// Returns true if the shipped task carries a FINISH_HERE credit.
bool fin_before_remote_spawn(Runtime& rt, const FinCtx& ctx, int dst,
                             bool spawner_has_credit);

/// A task arrived at the current place. Returns the context the new activity
/// should run under (resolving home pointers when we happen to be home).
FinCtx fin_task_received(Runtime& rt, FinishKey key, Pragma mode);

/// Local async spawned at a non-home place under `ctx`.
void fin_remote_local_spawn(Runtime& rt, const FinCtx& ctx);

/// The given activity finished its body (normally or not) at current place.
void fin_activity_completed(Runtime& rt, const Activity& act);

/// Ship an exception to the finish home.
void fin_report_exception(Runtime& rt, const FinCtx& ctx,
                          std::exception_ptr ep);

/// Node-master relay for FINISH_DENSE: enqueue an encoded snapshot frame
/// destined for `final_home`, batching at this hop.
void dense_relay_enqueue(Runtime& rt, int at_place, int final_home,
                         std::vector<std::byte> frame);

// Wire-protocol handlers (registered with the transport at startup). Each
// decodes its frame and applies it at the executing place; frames for
// already-released finishes are dropped.
void fin_am_snapshot(Runtime& rt, x10rt::ByteBuffer& buf);
void fin_am_dense_relay(Runtime& rt, x10rt::ByteBuffer& buf);
void fin_am_release(Runtime& rt, x10rt::ByteBuffer& buf);
void fin_am_completions(Runtime& rt, x10rt::ByteBuffer& buf);
void fin_am_credit(Runtime& rt, x10rt::ByteBuffer& buf);

}  // namespace apgas
