// X10RT: the transport layer of the X10 runtime stack (paper §3.3).
//
// The real X10RT is a thin API over PAMI / MPI / TCP sockets. This
// implementation realizes the same API surface over shared memory: every
// place owns a FIFO inbox of messages, and the only sanctioned way for places
// to interact is
//   * send()            — active messages (tasks, control, collectives, data)
//   * put()/get()       — one-sided RDMA on *registered* memory, executed by a
//                         DMA engine thread, completion delivered to the
//                         initiator's inbox (models Torrent RDMA)
//   * remote_*64()      — remote atomic update ops (models the Torrent "GUPS"
//                         feature used by RandomAccess)
//
// A chaos mode delays and reorders queued messages. The paper's finish
// protocols must tolerate network reordering of control messages; the chaos
// decorator provides exactly that adversity under test.
//
// The transport counts every message by class and, optionally, by
// (source, destination) pair so benches can report control-message volume and
// communication-graph out-degree — the metrics §3.1 argues about.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "x10rt/backend.h"
#include "x10rt/buffer_pool.h"
#include "x10rt/envelope.h"
#include "x10rt/message.h"
#include "x10rt/serialization.h"

namespace x10rt {

/// Why a coalescing envelope left the sender (the flush-reason histogram in
/// transport.coalesce.flush.*).
enum class FlushReason : std::uint8_t {
  kSize,       // envelope reached coalesce_bytes
  kCount,      // envelope reached coalesce_msgs records
  kIdle,       // the place's scheduler went idle and flushed its envelopes
  kQuiesce,    // explicit quiescence/teardown flush
  kImmediate,  // an immediate frame was appended: rendezvous traffic (Team
               // mail, GLB steals) must ship before the sender can block on
               // the reply, so the envelope is cut right away
};
inline constexpr int kNumFlushReasons = 5;

inline const char* flush_reason_name(FlushReason r) {
  switch (r) {
    case FlushReason::kSize: return "size";
    case FlushReason::kCount: return "count";
    case FlushReason::kIdle: return "idle";
    case FlushReason::kQuiesce: return "quiesce";
    case FlushReason::kImmediate: return "immediate";
  }
  return "?";
}

/// Chaos injection: with probability `delay_prob` a message is parked in a
/// side pool and released later in randomized order (delivery remains
/// guaranteed: pollers drain the pool once the main queue is empty). With
/// probability `drop_prob` a *sequenced* message is discarded at the wire and
/// with `dup_prob` an independent duplicate is injected — both require the
/// reliability sublayer (TransportConfig::retx_timeout_us > 0), which
/// retransmits the loss and dedups the copy; unsequenced messages are never
/// dropped or duplicated. All decisions come from the same deterministic
/// per-destination-place RNG stream as the delay decision (seed + place *
/// constant), so a (seed, probabilities) tuple names one adversary.
struct ChaosConfig {
  double delay_prob = 0.0;
  double drop_prob = 0.0;
  double dup_prob = 0.0;
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  std::size_t max_delayed = 64;

  [[nodiscard]] bool enabled() const {
    return delay_prob > 0.0 || drop_prob > 0.0 || dup_prob > 0.0;
  }
  [[nodiscard]] bool lossy() const { return drop_prob > 0.0 || dup_prob > 0.0; }
};

struct TransportConfig {
  int places = 1;
  ChaosConfig chaos;
  bool count_pairs = false;  ///< track per-(src,dst) message counts (O(P^2))
  int dma_threads = 1;       ///< RDMA engine threads (0 = synchronous RDMA)

  /// Sender-side coalescing: envelope flush threshold in wire bytes. 0
  /// disables the aggregation layer entirely (every send_am ships its own
  /// message, exactly the pre-ISSUE-3 behavior). See docs/transport.md.
  std::size_t coalesce_bytes = 0;
  /// Max records per envelope when coalescing is on.
  int coalesce_msgs = 64;
  /// Observability callback invoked once per shipped envelope (the runtime
  /// wires this to the flight recorder's coalesce.flush event and the
  /// envelope-residency histogram; the transport itself must stay
  /// runtime-agnostic). `residency_ns` is the open->flush dwell time of the
  /// envelope, clamped to >= 1 so hooked consumers can count envelopes by
  /// counting nonzero residencies.
  std::function<void(int src, int dst, std::uint32_t records, FlushReason,
                     std::uint64_t residency_ns)>
      flush_hook;

  // --- adaptive tuning hooks (docs/transport.md "Adaptive tuning") ---------
  // All unset by default; the transport never adapts on its own. An online
  // controller (runtime/autotune.h) installs them and drives
  // set_coalesce_threshold()/set_retx_rto() from what they report.

  /// Invoked from poll_batch() before the batch is taken — the controller's
  /// time-gated tick point on the poll hot path. Costs one branch when unset.
  std::function<void(int place)> tick_hook;

  /// First-transmission ack latency sample for a (src,dst) pair: fired from
  /// ack processing for the newest acked sequence that was never
  /// retransmitted (Karn's rule — a retransmitted sequence's latency is
  /// ambiguous and never sampled). At most one sample per processed ack.
  std::function<void(int src, int dst, std::uint64_t rtt_ns)> rtt_sample_hook;

  // --- reliability sublayer (docs/transport.md "Reliability") --------------

  /// Initial retransmit timeout in microseconds; 0 disables the reliability
  /// sublayer entirely — every send is a zero-cost passthrough with wire
  /// behavior bit-for-bit identical to the pre-reliability transport. When
  /// > 0, every message from a real source place is stamped with a
  /// per-(src,dst) sequence number, retained for retransmission until
  /// cumulatively acked, and deduplicated at the receiver.
  std::uint64_t retx_timeout_us = 0;
  /// Retransmit backoff cap: the per-entry timeout doubles after each
  /// retransmission up to this many microseconds.
  std::uint64_t retx_backoff_max_us = 50'000;
  /// A receiver owing an ack (delivered sequences not yet communicated) with
  /// no reverse traffic to piggyback on sends a standalone ack once the debt
  /// is this many microseconds old.
  std::uint64_t retx_ack_idle_us = 200;
  /// Observability callback fired when a retransmit timer expires (before the
  /// copy is re-sent). `attempt` counts sends of this sequence so far (1 =
  /// the original). The runtime wires this to the retx.timeout trace event.
  std::function<void(int src, int dst, std::uint64_t seq,
                     std::uint32_t attempt)>
      retx_timeout_hook;
  /// Observability callback fired when a sequence that needed at least one
  /// retransmission is finally acked; `latency_ns` spans first send -> ack.
  /// The runtime records it into the retx.ack_latency_ns histogram.
  std::function<void(int src, int dst, std::uint64_t latency_ns,
                     std::uint32_t attempts)>
      retx_acked_hook;
};

/// Shared-memory X10RT transport. Thread-safe; one instance per "job".
class Transport {
 public:
  explicit Transport(TransportConfig cfg);
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  [[nodiscard]] int places() const { return cfg_.places; }

  // --- wire backend (docs/transport.md "Backends") -------------------------

  /// Replaces the default InProcBackend with a multi-process wire (the
  /// socket backend). Must happen before any traffic, from the thread that
  /// constructed the transport. `local_place` is the one place this process
  /// hosts: sends to it keep the in-process fast path, sends to every other
  /// place are encoded into frames and shipped through the backend, and
  /// inbound frames are delivered into the local inbox (so chaos injection
  /// and sleeper wakeups behave identically on both backends). Requires the
  /// reliability sublayer: teardown across processes is driven to the
  /// all-acked fixpoint, which needs acks to exist.
  void attach_backend(std::unique_ptr<Backend> backend, int local_place);

  /// True when places live in separate processes.
  [[nodiscard]] bool multi_process() const { return multi_proc_; }
  /// The place this process hosts; -1 when every place is in-process.
  [[nodiscard]] int local_place() const { return local_place_; }

  [[nodiscard]] BackendStats backend_stats() const { return backend_->stats(); }
  [[nodiscard]] std::vector<BackendPeerDiag> backend_diag() const {
    return backend_->diag();
  }
  /// Opportunistic push of backend tx backlogs (teardown drain loops).
  void backend_flush() { backend_->flush(); }
  /// True when the backend holds no undelivered outbound bytes for any peer.
  [[nodiscard]] bool backend_tx_drained() const {
    for (const auto& d : backend_->diag()) {
      if (d.tx_pending_bytes != 0) return false;
    }
    return true;
  }

  /// Receiver-side half of the all-acked fixpoint: true when every sequence
  /// delivered at `place` has been acked back to its sender (no owed ack
  /// debt). Trivially true when the reliability layer is off.
  [[nodiscard]] bool recv_all_acked(int place) const;

  /// Enqueues an active message for place `dst`. `m.src` must be the sending
  /// place (used for stats and chaos determinism).
  void send(int dst, Message m);

  // --- registered active-message handlers ----------------------------------
  // The real X10RT model: a handler id plus a serialized payload, rather
  // than a shipped closure. The runtime's control protocols (finish
  // snapshots/completions/credits, team transfers) ride these, so their
  // traffic is genuinely in wire form; a distributed port only has to
  // re-implement send()/send_am(), not the protocols.

  using AmHandler = std::function<void(ByteBuffer&)>;

  /// Registers a handler; returns its id. Registration happens during
  /// runtime startup, before any traffic. Not thread-safe against send_am.
  int register_am(AmHandler handler);

  /// Sends (handler id, payload) to `dst`; the destination scheduler invokes
  /// the handler with the payload's read cursor at 0.
  ///
  /// With coalescing enabled (cfg.coalesce_bytes > 0) small payloads from a
  /// real place (src >= 0) are *parked* in the per-(src,dst) envelope and
  /// only hit the destination inbox when the envelope flushes — by size,
  /// record count, or an explicit flush_coalesced() (the scheduler's idle
  /// call / quiescence points). Per-class count/byte statistics always tally
  /// the *logical* message here, so control-volume metrics stay comparable
  /// whether or not the wire batches them.
  void send_am(int src, int dst, int handler, ByteBuffer payload,
               MsgType type = MsgType::kControl);

  /// Ships every pending envelope whose source place is `src`. Returns the
  /// number of envelopes sent. Cheap no-op when coalescing is off. Callers:
  /// every empty scheduler round at the place (reason kIdle) and teardown
  /// quiescence (reason kQuiesce).
  std::size_t flush_coalesced(int src, FlushReason reason = FlushReason::kIdle);

  /// A ByteBuffer backed by pooled storage from `place`'s shard — frame
  /// encoders at `place` use this instead of a fresh vector so the control
  /// plane recycles wire buffers. The consumer of the AM recycles the
  /// storage into its own place's shard once the handler returns.
  [[nodiscard]] ByteBuffer acquire_buffer(int place) {
    return ByteBuffer{pool_.acquire(place)};
  }

  [[nodiscard]] const BufferPool& pool() const { return pool_; }

  /// Non-blocking pop of the next deliverable message for `place`: the
  /// one-message form of the poll_batch admission path, without its
  /// autotune tick (callers outside the scheduler's hot loop: tests,
  /// external drain threads).
  std::optional<Message> poll(int place);

  /// Drains up to `max` deliverable messages for `place` into `out` under a
  /// single lock acquisition per raw batch; returns the number appended
  /// (0 = inbox empty). The chaos release check (the delayed pool feeds the
  /// queue once it runs dry) happens *before* the batch is taken, so
  /// reorder coverage under chaos does not depend on `max` — batching only
  /// amortizes the lock. With reliability on, every poll first runs the
  /// time-gated retx pump.
  std::size_t poll_batch(int place, std::deque<Message>& out, std::size_t max);

  /// Blocks until the inbox for `place` is (probably) non-empty, it is woken
  /// via notify()/notify_if_sleeping(), or the timeout expires. Returns true
  /// if non-empty. Callers must bracket the call with enter_idle()/
  /// exit_idle() for the sleeper-elision handshake to be sound.
  bool wait_nonempty(int place, std::chrono::microseconds timeout);

  /// Marks the calling worker as (about to be) parked on `place`'s inbox.
  /// seq_cst so it forms a Dekker handshake with notify_if_sleeping(): the
  /// caller must re-check for work *after* enter_idle and only then call
  /// wait_nonempty (see docs/scheduler.md).
  void enter_idle(int place);
  void exit_idle(int place);

  /// Workers currently inside an enter_idle/exit_idle bracket.
  [[nodiscard]] int sleepers(int place) const;

  /// Wakes a scheduler blocked in wait_nonempty (used at shutdown). Always
  /// signals, regardless of the sleeper count.
  void notify(int place);

  /// Fast-path wakeup: signals only when a worker is actually parked (one
  /// seq_cst fence + one relaxed load when nobody is — no mutex, no CV).
  /// Producers of scheduler-local work (deque pushes, overflow pushes) call
  /// this; the common self-push case costs no syscall at all.
  void notify_if_sleeping(int place);

  // --- Registered memory + one-sided operations (paper §3.3) --------------

  /// Registers [base, base+len) at `place` as RDMA-eligible. Congruent
  /// allocator arenas are registered wholesale at startup.
  void register_range(int place, const void* base, std::size_t len);

  [[nodiscard]] bool is_registered(int place, const void* addr,
                                   std::size_t len) const;

  /// One-sided put: copies local memory into `dst_addr` at place `dst`
  /// without involving the destination scheduler. `on_complete` is delivered
  /// to the *initiator's* inbox once the transfer finishes. Both ends must be
  /// registered (asserted), mirroring real RDMA constraints.
  void put(int src, int dst, void* dst_addr, const void* src_addr,
           std::size_t n, std::function<void()> on_complete);

  /// One-sided get: copies remote memory into a local buffer.
  void get(int src, int dst, void* local_addr, const void* remote_addr,
           std::size_t n, std::function<void()> on_complete);

  /// Remote atomic XOR of a 64-bit word at place `dst` (the Torrent "GUPS"
  /// feature). Fire-and-forget, executed immediately on the caller thread —
  /// no destination CPU involvement, no completion event.
  void remote_xor64(int src, int dst, std::uint64_t* dst_addr,
                    std::uint64_t val);

  /// Remote atomic add, same contract as remote_xor64.
  void remote_add64(int src, int dst, std::uint64_t* dst_addr,
                    std::uint64_t val);

  // --- Statistics ----------------------------------------------------------

  [[nodiscard]] std::uint64_t count(MsgType t) const;
  [[nodiscard]] std::uint64_t bytes(MsgType t) const;
  [[nodiscard]] std::uint64_t total_messages() const;
  [[nodiscard]] std::uint64_t rdma_ops() const { return rdma_ops_.load(); }
  [[nodiscard]] std::uint64_t rdma_bytes() const { return rdma_bytes_.load(); }

  /// Per-pair message count; requires cfg.count_pairs.
  [[nodiscard]] std::uint64_t pair_count(int src, int dst) const;

  /// Largest number of distinct destinations any single place sent to;
  /// requires cfg.count_pairs. This is the out-degree metric FINISH_DENSE
  /// exists to bound.
  [[nodiscard]] int max_out_degree() const;

  /// Same, restricted to kControl messages (finish protocol traffic) —
  /// the graph FINISH_DENSE software routing reshapes.
  [[nodiscard]] std::uint64_t ctrl_pair_count(int src, int dst) const;
  [[nodiscard]] int max_ctrl_out_degree() const;

  // --- Coalescing statistics ----------------------------------------------

  [[nodiscard]] bool coalescing_enabled() const {
    return cfg_.coalesce_bytes > 0;
  }
  /// Envelopes shipped (wire messages carrying >= 1 coalesced record).
  [[nodiscard]] std::uint64_t coalesce_envelopes() const {
    return coalesce_envelopes_.load(std::memory_order_relaxed);
  }
  /// Logical AMs that traveled inside envelopes.
  [[nodiscard]] std::uint64_t coalesce_records() const {
    return coalesce_records_.load(std::memory_order_relaxed);
  }
  /// Total wire bytes of shipped envelopes (headers included).
  [[nodiscard]] std::uint64_t coalesce_wire_bytes() const {
    return coalesce_wire_bytes_.load(std::memory_order_relaxed);
  }
  /// send_am calls that skipped the aggregation layer (oversize payload or
  /// anonymous source) while coalescing was on.
  [[nodiscard]] std::uint64_t coalesce_bypass() const {
    return coalesce_bypass_.load(std::memory_order_relaxed);
  }
  /// Flush-reason histogram: envelopes shipped for `reason`.
  [[nodiscard]] std::uint64_t coalesce_flushes(FlushReason reason) const {
    return coalesce_flush_counts_[static_cast<std::size_t>(reason)].load(
        std::memory_order_relaxed);
  }

  // --- adaptive knobs (driven by an online controller; see autotune.h) -----

  /// Sets the dynamic flush threshold for the (src,dst) envelope writer,
  /// clamped to the static cap. Both the admission check (record small
  /// enough to coalesce) and the size-flush decision use it, so a value
  /// below the record size diverts the pair's sends to the direct path.
  /// 0 restores the static `coalesce_bytes`. No-op when coalescing is off.
  void set_coalesce_threshold(int src, int dst, std::size_t bytes);

  /// Effective flush threshold for the pair (the dynamic value if one is
  /// set, the static cap otherwise; 0 when coalescing is off).
  [[nodiscard]] std::size_t coalesce_threshold(int src, int dst) const;

  /// Sends small enough for the static cap that the *dynamic* threshold
  /// diverted to the direct path — the controller's probe-upward signal.
  [[nodiscard]] std::uint64_t coalesce_dyn_bypass(int src, int dst) const;

  /// Sets the adaptive initial retransmit timeout for the (src,dst) pair;
  /// newly stamped entries start from it instead of the static
  /// `retx_timeout_us` (per-entry exponential backoff and its cap are
  /// unchanged). 0 restores the static timeout. No-op when reliability is
  /// off.
  void set_retx_rto(int src, int dst, std::uint64_t rto_us);

  /// Effective initial retransmit timeout for the pair (µs).
  [[nodiscard]] std::uint64_t retx_rto_us(int src, int dst) const;

  // --- Reliability sublayer (ack/retransmit/dedup) -------------------------

  [[nodiscard]] bool reliability_enabled() const {
    return cfg_.retx_timeout_us > 0;
  }

  /// Drives `place`'s share of the reliability protocol: retransmits every
  /// timed-out unacked entry whose source is `place`, and sends standalone
  /// acks for delivered-but-uncommunicated sequences whose ack debt has aged
  /// past the idle threshold. With `force`, every unacked entry retransmits
  /// immediately and every owed ack ships regardless of age — the teardown
  /// quiescence driver uses this to reach the all-acked fixpoint. Returns
  /// the number of wire messages produced (0 = nothing to do). Cheap no-op
  /// when the layer is off. Poll paths call this on a time gate; teardown
  /// calls it directly.
  std::size_t retx_pump(int place, bool force = false);

  /// True when every sequenced message ever sent has been cumulatively
  /// acked (no retransmit queue holds an entry). Trivially true when off.
  [[nodiscard]] bool retx_quiescent() const;

  /// Sequenced messages sent (originals only; retransmissions excluded).
  [[nodiscard]] std::uint64_t retx_sent() const {
    return retx_sent_.load(std::memory_order_relaxed);
  }
  /// Sequenced messages confirmed delivered by a cumulative ack.
  [[nodiscard]] std::uint64_t retx_acked() const {
    return retx_acked_.load(std::memory_order_relaxed);
  }
  /// Retransmitted copies put on the wire (timeout- or force-driven).
  [[nodiscard]] std::uint64_t retx_retransmits() const {
    return retx_retransmits_.load(std::memory_order_relaxed);
  }
  /// Duplicate deliveries suppressed by the receiver dedup window.
  [[nodiscard]] std::uint64_t retx_dups_dropped() const {
    return retx_dups_dropped_.load(std::memory_order_relaxed);
  }
  /// Standalone (non-piggybacked) ack messages sent.
  [[nodiscard]] std::uint64_t retx_standalone_acks() const {
    return retx_standalone_acks_.load(std::memory_order_relaxed);
  }

  // --- Chaos statistics ----------------------------------------------------

  /// Sequenced messages discarded at the wire by chaos drop injection.
  [[nodiscard]] std::uint64_t chaos_dropped() const {
    return chaos_dropped_.load(std::memory_order_relaxed);
  }
  /// Duplicate copies injected by chaos dup injection.
  [[nodiscard]] std::uint64_t chaos_duped() const {
    return chaos_duped_.load(std::memory_order_relaxed);
  }
  /// Messages that bypassed delay shaping because the delayed pool was
  /// saturated at max_delayed — "passed under chaos" with this nonzero may
  /// mean "chaos was saturated off" (ISSUE 5 satellite).
  [[nodiscard]] std::uint64_t chaos_bypass() const {
    return chaos_bypass_.load(std::memory_order_relaxed);
  }

  // --- Introspection (stall watchdog diagnosis) ----------------------------

  /// One unacked retransmit queue, as reported to the stall watchdog.
  struct RetxDiag {
    int dst = -1;
    std::uint64_t oldest_seq = 0;  ///< lowest unacked sequence for the pair
    std::uint64_t age_ns = 0;      ///< time since that sequence's first send
    std::size_t depth = 0;         ///< unacked entries for the pair
  };

  /// Non-empty retransmit queues whose source is `src` (empty when the layer
  /// is off). Takes the shard lock; diagnosis-path only.
  [[nodiscard]] std::vector<RetxDiag> retx_unacked(int src) const;

  /// Messages currently parked in `place`'s inbox (queued + chaos-delayed).
  /// Takes the inbox lock; diagnosis-path only, not for hot paths.
  [[nodiscard]] std::size_t inbox_depth(int place) const;

  /// Destinations with an open (partial, unshipped) envelope at source
  /// `src`. 0 when coalescing is off. Takes the shard lock.
  [[nodiscard]] std::size_t coalesce_open_envelopes(int src) const;

  void reset_stats();

 private:
  struct Inbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Message> queue;
    std::deque<Message> delayed;  // chaos pool
    std::mt19937_64 rng;
    bool notified = false;
    // Poll counter decimating the adaptive-tuning tick hook (1 in 64 polls).
    // Deliberately bumped with a load+store pair, not an RMW: the controller
    // is time-gated anyway, so increments lost to concurrent pollers only
    // shift when the clock gets consulted, never whether ticks happen.
    std::atomic<std::uint64_t> tick_polls{0};
    // Workers parked (or about to park) in wait_nonempty. Written with
    // seq_cst RMWs, read behind a seq_cst fence — the Dekker handshake that
    // lets producers skip the mutex+CV signal when nobody is sleeping.
    std::atomic<int> sleepers{0};
  };

  struct DmaOp {
    void* dst;
    const void* src;
    std::size_t n;
    int initiator;
    std::function<void()> on_complete;
  };

  /// TTAS spin-then-yield lock for the coalescing shard. The critical
  /// section is a bounded small memcpy (no user code, no allocation on the
  /// steady path), so a futex round-trip per record costs more than the
  /// work it guards; spinning briefly and then yielding degrades gracefully
  /// when the core is oversubscribed.
  class SpinLock {
   public:
    void lock() noexcept {
      int spins = 0;
      while (flag_.test_and_set(std::memory_order_acquire)) {
        if (++spins >= 128) {
          std::this_thread::yield();
          spins = 0;
        }
      }
    }
    void unlock() noexcept { flag_.clear(std::memory_order_release); }

   private:
    std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
  };

  /// Per-source-place coalescing state: one envelope Writer per destination,
  /// plus the list of destinations with an open (partial) envelope so a
  /// flush never scans all P writers. Guarded by `mu`; the lock order is
  /// shard -> inbox (ship_envelope runs outside the shard lock), and no
  /// inbox-holding path ever takes a shard lock, so the order is acyclic.
  struct CoalesceShard {
    SpinLock mu;
    std::vector<envelope::Writer> per_dst;
    std::vector<int> active;
    // Monotonic stamp of when the open envelope for each destination was
    // opened (0 = no open envelope); ship_envelope turns it into the
    // residency reported through flush_hook.
    std::vector<std::uint64_t> open_ns;
    // Payload storage taken back after a record is copied into an envelope,
    // parked here (we already hold `mu`) and recycled to the source place's
    // pool shard in one batch per shipped envelope — per-envelope freelist
    // locking instead of per-message.
    std::vector<std::vector<std::byte>> spare;
    // Per-destination dynamic flush threshold (0 = use the static cap) and
    // the count of sends it diverted to the direct path. Written only by
    // set_coalesce_threshold; read with relaxed loads on the send path so
    // the disabled state costs one load.
    std::vector<std::atomic<std::size_t>> dyn_bytes;
    std::vector<std::atomic<std::uint64_t>> dyn_bypass;
    // True while any envelope is open or spare storage is parked. Lets
    // flush_coalesced return without the shard lock when there is nothing
    // to do — idle-hook flushes hammer empty shards on latency-bound pairs
    // whose sends the dynamic threshold diverted direct.
    std::atomic<bool> dirty{false};
  };

  // --- reliability state ----------------------------------------------------
  // Lock discipline: the sender shard lock, the receiver shard lock, and an
  // inbox lock are never nested with one another — every reliability path
  // takes them strictly sequentially — so no ordering cycle can form with
  // the coalescing shard -> inbox order.

  /// One unacked sequenced message retained by the sender.
  struct RetxEntry {
    Message copy;                   // independent copy; re-sent on timeout
    std::uint64_t first_send_ns = 0;
    std::uint64_t next_retx_ns = 0;
    std::uint64_t backoff_us = 0;   // current timeout (doubles, capped)
    std::uint32_t attempts = 1;     // sends so far (1 = original only)
  };

  /// Sender-side books for one (src, dst) direction, held at src.
  struct RetxPair {
    std::map<std::uint64_t, RetxEntry> unacked;  // seq -> entry
    std::uint64_t next_seq = 0;                  // last assigned (first is 1)
    std::uint64_t cum_acked = 0;                 // highest cumulative ack seen
    std::uint64_t rto_us = 0;  // adaptive initial timeout (0 = static)
  };

  /// All sender-side pairs originating at one place.
  struct RetxShard {
    mutable std::mutex mu;
    std::vector<RetxPair> per_dst;
  };

  /// Receiver-side dedup window for one (src -> me) direction, held at me.
  struct RecvPair {
    std::uint64_t cum = 0;             // every seq <= cum delivered
    std::set<std::uint64_t> above;     // delivered seqs > cum (gap survivors)
    std::uint64_t acked_sent = 0;      // last cum communicated back to src
    std::uint64_t owed_since_ns = 0;   // when the ack debt began (0 = none)
  };

  struct RecvShard {
    mutable std::mutex mu;
    std::vector<RecvPair> per_src;
  };

  /// Stamps seq (and the piggybacked cumulative ack) into `m` and retains a
  /// retransmit copy. Reliability-armed sends only.
  void retx_stamp(int dst, Message& m);
  /// Receiver-side admission: processes the piggybacked ack, consumes
  /// ack-only messages, and dedups sequenced ones. Returns false when the
  /// message must not be delivered to the scheduler.
  bool retx_admit(int place, Message& m);
  /// Removes entries with seq <= ack for the (place -> peer) direction and
  /// fires the acked hook for retransmitted ones.
  void retx_process_ack(int place, int peer, std::uint64_t ack);
  /// Time-gated retx_pump from the poll hot path.
  void retx_maybe_pump(int place);

  void enqueue_locked(Inbox& box, Message&& m);
  /// The per-copy half of enqueue_locked: chaos drop + delay for one wire
  /// copy (dup injection happens in enqueue_locked before this).
  void enqueue_copy_locked(Inbox& box, Message&& m);
  void maybe_release_delayed_locked(Inbox& box);
  /// Moves up to `max` queued messages into `out` (anything with
  /// push_back(Message&&): the caller's deque, or poll()'s single slot)
  /// under one inbox lock, first releasing one chaos-delayed message if the
  /// queue has run dry.
  template <class Out>
  std::size_t take_batch(Inbox& box, Out& out, std::size_t max);
  /// The single admission loop behind poll() and poll_batch(): raw batches
  /// filtered through reliability admission when the layer is on.
  template <class Out>
  std::size_t admit_batch(int place, Out& out, std::size_t max);
  void record(const Message& m, int dst);
  /// The per-class / per-pair statistics bump shared by the direct path
  /// (via record()) and the coalesced path (per logical record, at send_am
  /// time) — so control-volume metrics are comparable across modes.
  void count_logical(int src, int dst, MsgType type, std::size_t wire_bytes);
  /// send() minus the statistics: envelopes ride this so their records are
  /// not double-counted. Runs the reliability stamping before the wire.
  void send_unrecorded(int dst, Message m);
  /// The wire itself: chaos injection + inbox enqueue + sleeper-elided
  /// notify. Retransmissions and standalone acks enter here directly (they
  /// are wire artifacts, never re-stamped and never re-counted).
  void wire_deliver(int dst, Message m);
  /// Routes a post-stamping message: local places go through wire_deliver,
  /// remote places (multi-process backend) are encoded and shipped.
  void wire_or_remote(int dst, Message&& m);
  /// Encodes `m` into a frame and hands it to the backend. Aborts loudly on
  /// a message with no wire form (a closure cannot cross processes).
  void ship_remote(int dst, Message&& m);
  /// Backend sink: validates an inbound frame (abort on malformed input —
  /// the wire is untrusted), reconstructs the Message, and enqueues it into
  /// the local inbox. Runs on the backend's I/O thread.
  void deliver_frame(int peer, const std::uint8_t* data, std::size_t len);
  /// Accounts a sealed envelope, fires cfg_.flush_hook, and enqueues it.
  /// `open_ns` is the CoalesceShard::open_ns stamp taken when the envelope
  /// was opened (0 = unknown, reports residency 0).
  void ship_envelope(int src, int dst, ByteBuffer env, std::uint32_t records,
                     FlushReason reason, std::uint64_t open_ns);
  /// Receiver side: unpack an envelope into one inbox message per record.
  /// Records are NOT run inline: a spawn record's activity may block (a
  /// Team rendezvous, a GLB steal wait) with later records of the same
  /// train still unread — trapped on the delivering thread's stack where
  /// the blocked activity's nested inbox pump can never reach them.
  void deliver_envelope(int src, int dst, ByteBuffer env);
  void submit_dma(DmaOp op, MsgType completion_type);
  void dma_loop();

  TransportConfig cfg_;
  std::unique_ptr<Backend> backend_;
  bool multi_proc_ = false;  // cached backend_->multi_process()
  int local_place_ = -1;     // cached backend_->local_place()
  std::vector<std::unique_ptr<Inbox>> inboxes_;
  std::vector<AmHandler> am_handlers_;
  std::vector<std::unique_ptr<CoalesceShard>> coalesce_;
  BufferPool pool_;

  // Reliability sublayer state (empty vectors when the layer is off).
  std::vector<std::unique_ptr<RetxShard>> retx_;
  std::vector<std::unique_ptr<RecvShard>> recv_;
  /// Per-place next allowed pump time (monotone ns) for the poll-path gate.
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> retx_next_pump_;
  std::uint64_t retx_pump_interval_ns_ = 0;

  // Registered memory ranges per place (read-mostly: every one-sided op
  // validates against them, so reads take a shared lock).
  mutable std::shared_mutex reg_mu_;
  std::vector<std::vector<std::pair<const std::byte*, std::size_t>>> ranges_;

  // Stats.
  std::atomic<std::uint64_t> counts_[kNumMsgTypes] = {};
  std::atomic<std::uint64_t> bytes_[kNumMsgTypes] = {};
  std::atomic<std::uint64_t> rdma_ops_{0};
  std::atomic<std::uint64_t> rdma_bytes_{0};
  std::atomic<std::uint64_t> coalesce_envelopes_{0};
  std::atomic<std::uint64_t> coalesce_records_{0};
  std::atomic<std::uint64_t> coalesce_wire_bytes_{0};
  std::atomic<std::uint64_t> coalesce_bypass_{0};
  std::atomic<std::uint64_t> coalesce_flush_counts_[kNumFlushReasons] = {};
  std::atomic<std::uint64_t> retx_sent_{0};
  std::atomic<std::uint64_t> retx_acked_{0};
  std::atomic<std::uint64_t> retx_retransmits_{0};
  std::atomic<std::uint64_t> retx_dups_dropped_{0};
  std::atomic<std::uint64_t> retx_standalone_acks_{0};
  std::atomic<std::uint64_t> chaos_dropped_{0};
  std::atomic<std::uint64_t> chaos_duped_{0};
  std::atomic<std::uint64_t> chaos_bypass_{0};
  std::vector<std::atomic<std::uint64_t>> pair_counts_;  // P*P when enabled
  std::vector<std::atomic<std::uint64_t>> ctrl_pair_counts_;

  // DMA engine.
  std::mutex dma_mu_;
  std::condition_variable dma_cv_;
  std::deque<std::pair<DmaOp, MsgType>> dma_queue_;
  bool dma_stop_ = false;
  std::vector<std::thread> dma_workers_;
};

}  // namespace x10rt
