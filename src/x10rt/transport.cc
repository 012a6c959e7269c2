#include "x10rt/transport.h"

#include <algorithm>

#include "x10rt/frame.h"
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <tuple>
#include <utility>

namespace x10rt {

namespace {
std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The initiator-side completion of a one-sided op: a closure message with
/// no payload bytes.
Message dma_completion(std::function<void()> on_complete, MsgType type,
                       int initiator) {
  Message m;
  m.run = std::move(on_complete);
  m.type = type;
  m.src = initiator;
  return m;
}
}  // namespace

Transport::Transport(TransportConfig cfg)
    : cfg_(cfg),
      backend_(std::make_unique<InProcBackend>()),
      pool_(cfg.places),
      ranges_(static_cast<std::size_t>(cfg.places)) {
  assert(cfg_.places >= 1);
  if (cfg_.chaos.lossy() && !reliability_enabled()) {
    // A lost message with no retransmit layer wedges every finish protocol
    // forever; refuse the configuration loudly instead of hanging silently.
    std::fprintf(stderr,
                 "[x10rt] fatal: chaos drop/dup injection requires the "
                 "reliability sublayer (set retx_timeout_us > 0 / "
                 "APGAS_RETX_TIMEOUT_US)\n");
    std::abort();
  }
  inboxes_.reserve(static_cast<std::size_t>(cfg_.places));
  coalesce_.reserve(static_cast<std::size_t>(cfg_.places));
  for (int p = 0; p < cfg_.places; ++p) {
    auto box = std::make_unique<Inbox>();
    box->rng.seed(cfg_.chaos.seed + static_cast<std::uint64_t>(p) * 0x2545F4914F6CDD1DULL);
    inboxes_.push_back(std::move(box));
    auto shard = std::make_unique<CoalesceShard>();
    shard->per_dst.resize(static_cast<std::size_t>(cfg_.places));
    shard->open_ns.resize(static_cast<std::size_t>(cfg_.places), 0);
    shard->dyn_bytes =
        std::vector<std::atomic<std::size_t>>(static_cast<std::size_t>(cfg_.places));
    shard->dyn_bypass = std::vector<std::atomic<std::uint64_t>>(
        static_cast<std::size_t>(cfg_.places));
    coalesce_.push_back(std::move(shard));
  }
  if (reliability_enabled()) {
    retx_.reserve(static_cast<std::size_t>(cfg_.places));
    recv_.reserve(static_cast<std::size_t>(cfg_.places));
    retx_next_pump_.reserve(static_cast<std::size_t>(cfg_.places));
    for (int p = 0; p < cfg_.places; ++p) {
      auto rs = std::make_unique<RetxShard>();
      rs->per_dst.resize(static_cast<std::size_t>(cfg_.places));
      retx_.push_back(std::move(rs));
      auto rv = std::make_unique<RecvShard>();
      rv->per_src.resize(static_cast<std::size_t>(cfg_.places));
      recv_.push_back(std::move(rv));
      retx_next_pump_.push_back(
          std::make_unique<std::atomic<std::uint64_t>>(0));
    }
    // Pump from the poll hot path often enough that neither a retransmit
    // timer nor an ack-idle deadline slips by a whole interval.
    const std::uint64_t tick_us =
        std::min(cfg_.retx_timeout_us, std::max<std::uint64_t>(
                                           cfg_.retx_ack_idle_us, 1)) /
        2;
    retx_pump_interval_ns_ = std::max<std::uint64_t>(tick_us, 1) * 1000;
  }
  if (cfg_.count_pairs) {
    pair_counts_ = std::vector<std::atomic<std::uint64_t>>(
        static_cast<std::size_t>(cfg_.places) * cfg_.places);
    ctrl_pair_counts_ = std::vector<std::atomic<std::uint64_t>>(
        static_cast<std::size_t>(cfg_.places) * cfg_.places);
  }
  for (int i = 0; i < cfg_.dma_threads; ++i) {
    dma_workers_.emplace_back([this] { dma_loop(); });
  }
}

Transport::~Transport() {
  // Stop the backend's I/O thread first: no deliver_frame may run while the
  // inboxes and shards below it are being torn down.
  backend_->stop();
  {
    std::scoped_lock lock(dma_mu_);
    dma_stop_ = true;
  }
  dma_cv_.notify_all();
  for (auto& t : dma_workers_) t.join();
}

void Transport::count_logical(int src, int dst, MsgType type,
                              std::size_t wire_bytes) {
  const auto idx = static_cast<std::size_t>(type);
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  bytes_[idx].fetch_add(wire_bytes, std::memory_order_relaxed);
  if (cfg_.count_pairs && src >= 0) {
    pair_counts_[static_cast<std::size_t>(src) * cfg_.places + dst]
        .fetch_add(1, std::memory_order_relaxed);
    if (type == MsgType::kControl) {
      ctrl_pair_counts_[static_cast<std::size_t>(src) * cfg_.places + dst]
          .fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void Transport::record(const Message& m, int dst) {
  count_logical(m.src, dst, m.type, m.bytes);
}

void Transport::enqueue_locked(Inbox& box, Message&& m) {
  // Chaos dup injection: only sequenced messages (the reliability layer is
  // armed, so the receiver dedups one of the copies). The injected copy goes
  // through the same drop/delay gauntlet as the original, independently.
  if (m.seq != 0 && cfg_.chaos.dup_prob > 0.0) {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    if (u(box.rng) < cfg_.chaos.dup_prob) {
      chaos_duped_.fetch_add(1, std::memory_order_relaxed);
      Message copy = m;
      enqueue_copy_locked(box, std::move(copy));
    }
  }
  enqueue_copy_locked(box, std::move(m));
}

void Transport::enqueue_copy_locked(Inbox& box, Message&& m) {
  // Chaos drop injection: discard sequenced messages at the wire; the
  // sender's retransmit queue still holds a copy, so delivery is delayed,
  // not lost. Unsequenced messages (layer off, standalone acks) never drop.
  if (m.seq != 0 && cfg_.chaos.drop_prob > 0.0) {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    if (u(box.rng) < cfg_.chaos.drop_prob) {
      chaos_dropped_.fetch_add(1, std::memory_order_relaxed);
      maybe_release_delayed_locked(box);
      return;
    }
  }
  if (cfg_.chaos.delay_prob > 0.0) {
    if (box.delayed.size() < cfg_.chaos.max_delayed) {
      std::uniform_real_distribution<double> u(0.0, 1.0);
      if (u(box.rng) < cfg_.chaos.delay_prob) {
        // Park the message; it will be released later in randomized order.
        box.delayed.push_back(std::move(m));
        maybe_release_delayed_locked(box);
        return;
      }
    } else {
      // Delay shaping is saturated off: the message skips the roll entirely.
      // Counted so "passed under chaos" can't silently mean this.
      chaos_bypass_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  box.queue.push_back(std::move(m));
  maybe_release_delayed_locked(box);
}

void Transport::maybe_release_delayed_locked(Inbox& box) {
  if (box.delayed.empty()) return;
  std::uniform_real_distribution<double> u(0.0, 1.0);
  // Each enqueue/poll event gives every parked message an independent chance
  // to be delivered, from a random position — this is what reorders traffic.
  std::size_t i = 0;
  while (i < box.delayed.size()) {
    if (u(box.rng) < 0.5) {
      std::uniform_int_distribution<std::size_t> pick(0, box.delayed.size() - 1);
      const std::size_t j = pick(box.rng);
      box.queue.push_back(std::move(box.delayed[j]));
      box.delayed.erase(box.delayed.begin() + static_cast<std::ptrdiff_t>(j));
    } else {
      ++i;
    }
  }
}

void Transport::send(int dst, Message m) {
  record(m, dst);
  send_unrecorded(dst, std::move(m));
}

void Transport::send_unrecorded(int dst, Message m) {
  assert(dst >= 0 && dst < cfg_.places);
  // Reliability stamping: one branch when the layer is off (zero-cost
  // passthrough). Anonymous sources (src < 0) cannot own a retransmit queue
  // and ship unsequenced, exactly as before.
  if (reliability_enabled() && m.src >= 0 && m.src < cfg_.places &&
      !(m.rflags & kMsgAckOnly)) {
    retx_stamp(dst, m);
  }
  wire_or_remote(dst, std::move(m));
}

void Transport::wire_or_remote(int dst, Message&& m) {
  if (multi_proc_ && dst != local_place_) {
    ship_remote(dst, std::move(m));
    return;
  }
  wire_deliver(dst, std::move(m));
}

void Transport::attach_backend(std::unique_ptr<Backend> backend,
                               int local_place) {
  assert(backend && local_place >= 0 && local_place < cfg_.places);
  if (backend->multi_process() && !reliability_enabled()) {
    std::fprintf(stderr,
                 "[x10rt] fatal: a multi-process backend requires the "
                 "reliability sublayer (set retx_timeout_us > 0 / "
                 "APGAS_RETX_TIMEOUT_US): cross-process teardown drives "
                 "the retransmit queues to the all-acked fixpoint\n");
    std::abort();
  }
  backend_ = std::move(backend);
  multi_proc_ = backend_->multi_process();
  local_place_ = backend_->local_place();
  assert(!multi_proc_ || local_place_ == local_place);
  backend_->start([this](int peer, const std::uint8_t* data, std::size_t len) {
    deliver_frame(peer, data, len);
  });
}

void Transport::ship_remote(int dst, Message&& m) {
  frame::Header h;
  if ((m.rflags & kMsgAckOnly) != 0) {
    h.kind = frame::Kind::kAckOnly;
  } else if ((m.rflags & kMsgEnvelope) != 0) {
    h.kind = frame::Kind::kEnvelope;
  } else if (m.handler >= 0) {
    h.kind = frame::Kind::kAm;
  } else {
    std::fprintf(stderr,
                 "[x10rt] fatal: %s message to remote place %d has no wire "
                 "form — closures cannot cross a process boundary (use "
                 "registered AMs / asyncAtFrame)\n",
                 msg_type_name(m.type), dst);
    std::abort();
  }
  h.rflags = m.rflags;
  h.type = m.type;
  h.src = m.src;
  h.handler = m.handler;
  h.seq = m.seq;
  h.ack = m.ack;
  h.t_send_ns = m.t_send_ns;
  const std::byte* payload = nullptr;
  std::size_t n = 0;
  if (m.wire) {
    payload = m.wire->data();
    n = m.wire->size();
  }
  backend_->send_frame(dst, frame::encode(h, payload, n));
}

void Transport::deliver_frame(int peer, const std::uint8_t* data,
                              std::size_t len) {
  const char* err = frame::validate(data, len, cfg_.places,
                                    static_cast<int>(am_handlers_.size()));
  frame::Header h;
  if (err == nullptr) {
    h = frame::decode_header(data);
    if (h.src != peer) err = "src place does not match the arrival socket";
  }
  if (err != nullptr) {
    std::fprintf(stderr, "[x10rt] fatal: malformed frame from place %d: %s\n",
                 peer, err);
    std::abort();
  }
  Message m;
  m.type = h.type;
  m.src = h.src;
  m.seq = h.seq;
  m.ack = h.ack;
  m.t_send_ns = h.t_send_ns;
  m.bytes = h.payload_len;
  m.rflags = h.rflags | kMsgXProc;
  switch (h.kind) {
    case frame::Kind::kAckOnly:
      m.run = [] {};
      break;
    case frame::Kind::kAm: {
      // Receive storage comes from the local place's pool shard and returns
      // to it after the handler, like an in-process AM's.
      std::vector<std::byte> payload = pool_.acquire(local_place_);
      const auto* body = reinterpret_cast<const std::byte*>(data) +
                         frame::kHeaderBytes;
      payload.assign(body, body + h.payload_len);
      const AmHandler* fn = &am_handlers_[static_cast<std::size_t>(h.handler)];
      m.handler = h.handler;
      // mutable + move: each chaos-dup copy of the Message deep-copies the
      // closure (and its payload), so a single run consuming the storage
      // is safe.
      const int place = local_place_;
      m.run = [this, fn, place, payload = std::move(payload)]() mutable {
        ByteBuffer buf{std::move(payload)};
        (*fn)(buf);
        pool_.release(place, buf.take_data());
      };
      break;
    }
    case frame::Kind::kEnvelope: {
      std::vector<std::byte> train(h.payload_len);
      std::memcpy(train.data(), data + frame::kHeaderBytes, h.payload_len);
      const int env_src = h.src;
      const int env_dst = local_place_;
      m.run = [this, env_src, env_dst, train = std::move(train)]() mutable {
        deliver_envelope(env_src, env_dst, ByteBuffer{std::move(train)});
      };
      break;
    }
  }
  // Into the *local* inbox: chaos injection, dedup at poll, and sleeper
  // wakeup all apply exactly as for an in-process arrival.
  wire_deliver(local_place_, std::move(m));
}

bool Transport::recv_all_acked(int place) const {
  if (!reliability_enabled() || place < 0 || place >= cfg_.places) return true;
  auto& shard = *recv_[static_cast<std::size_t>(place)];
  std::scoped_lock lock(shard.mu);
  for (const auto& rp : shard.per_src) {
    if (rp.cum > rp.acked_sent) return false;
  }
  return true;
}

void Transport::wire_deliver(int dst, Message m) {
  auto& box = *inboxes_[static_cast<std::size_t>(dst)];
  {
    std::scoped_lock lock(box.mu);
    enqueue_locked(box, std::move(m));
  }
  // Sleeper-elided signal: the mutex release above is not a full barrier, so
  // the fence orders the enqueue before the sleeper read (Dekker with the
  // enter_idle RMW on the consumer side — docs/scheduler.md).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (box.sleepers.load(std::memory_order_relaxed) > 0) box.cv.notify_one();
}

void Transport::retx_stamp(int dst, Message& m) {
  const int src = m.src;
  const std::uint64_t now = mono_ns();
  {
    auto& shard = *retx_[static_cast<std::size_t>(src)];
    std::scoped_lock lock(shard.mu);
    auto& pair = shard.per_dst[static_cast<std::size_t>(dst)];
    m.seq = ++pair.next_seq;
    RetxEntry e;
    e.first_send_ns = now;
    // Adaptive per-pair initial timeout when a controller has estimated one
    // (autotune.h); the static knob otherwise. Backoff doubling and its cap
    // are unchanged either way.
    e.backoff_us = pair.rto_us != 0 ? pair.rto_us : cfg_.retx_timeout_us;
    e.next_retx_ns = now + e.backoff_us * 1000;
    e.attempts = 1;
    // Retained after the seq is stamped; the piggybacked ack below is *not*
    // part of the retained copy — retransmits refresh it at pump time.
    e.copy = m;
    pair.unacked.emplace(m.seq, std::move(e));
  }
  retx_sent_.fetch_add(1, std::memory_order_relaxed);
  // Piggyback the cumulative ack for the reverse direction (dst -> src
  // traffic delivered at src). Separate critical section: sender-shard and
  // receiver-shard locks are never nested.
  {
    auto& shard = *recv_[static_cast<std::size_t>(src)];
    std::scoped_lock lock(shard.mu);
    auto& rp = shard.per_src[static_cast<std::size_t>(dst)];
    m.ack = rp.cum;
    m.rflags |= kMsgHasAck;
    rp.acked_sent = rp.cum;
    rp.owed_since_ns = 0;
  }
}

bool Transport::retx_admit(int place, Message& m) {
  const int peer = m.src;
  if ((m.rflags & kMsgHasAck) != 0 && peer >= 0 && peer < cfg_.places) {
    retx_process_ack(place, peer, m.ack);
  }
  if ((m.rflags & kMsgAckOnly) != 0) return false;  // consumed at admission
  if (m.seq == 0) return true;                      // unsequenced passthrough
  bool fresh = false;
  {
    auto& shard = *recv_[static_cast<std::size_t>(place)];
    std::scoped_lock lock(shard.mu);
    auto& rp = shard.per_src[static_cast<std::size_t>(peer)];
    if (m.seq <= rp.cum || rp.above.count(m.seq) != 0) {
      // Duplicate. Its arrival proves the sender has not seen our
      // cumulative ack (a piggybacked ack can ride a dropped message), so
      // roll the communicated mark back to force a re-ack — standalone acks
      // are unsequenced and can never be dropped, so this guarantees the
      // sender's retransmit queue eventually drains.
      if (m.seq <= rp.cum && rp.acked_sent >= m.seq) {
        rp.acked_sent = m.seq - 1;
      }
      if (rp.owed_since_ns == 0) rp.owed_since_ns = mono_ns();
    } else {
      fresh = true;
      if (m.seq == rp.cum + 1) {
        rp.cum = m.seq;
        while (!rp.above.empty() && *rp.above.begin() == rp.cum + 1) {
          rp.above.erase(rp.above.begin());
          ++rp.cum;
        }
      } else {
        rp.above.insert(m.seq);
      }
      if (rp.cum > rp.acked_sent && rp.owed_since_ns == 0) {
        rp.owed_since_ns = mono_ns();
      }
    }
  }
  if (!fresh) {
    retx_dups_dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void Transport::retx_process_ack(int place, int peer, std::uint64_t ack) {
  struct AckedHook {
    std::uint64_t latency_ns;
    std::uint32_t attempts;
  };
  std::vector<AckedHook> hooked;
  std::uint64_t n = 0;
  std::uint64_t rtt_sample = 0;
  {
    auto& shard = *retx_[static_cast<std::size_t>(place)];
    std::scoped_lock lock(shard.mu);
    auto& pair = shard.per_dst[static_cast<std::size_t>(peer)];
    if (ack <= pair.cum_acked) return;
    pair.cum_acked = ack;
    const std::uint64_t now =
        ((cfg_.retx_acked_hook || cfg_.rtt_sample_hook) &&
         !pair.unacked.empty())
            ? mono_ns()
            : 0;
    auto it = pair.unacked.begin();
    while (it != pair.unacked.end() && it->first <= ack) {
      ++n;
      if (it->second.attempts > 1 && cfg_.retx_acked_hook) {
        const std::uint64_t lat =
            now > it->second.first_send_ns ? now - it->second.first_send_ns : 1;
        hooked.push_back({lat, it->second.attempts});
      } else if (it->second.attempts == 1 && cfg_.rtt_sample_hook) {
        // Karn's rule: only never-retransmitted sequences produce RTT
        // samples. Keep the newest (highest seq = latest first send) so one
        // cumulative ack contributes at most one sample.
        rtt_sample =
            now > it->second.first_send_ns ? now - it->second.first_send_ns : 1;
      }
      it = pair.unacked.erase(it);
    }
  }
  if (n > 0) retx_acked_.fetch_add(n, std::memory_order_relaxed);
  for (const auto& h : hooked) {
    cfg_.retx_acked_hook(place, peer, h.latency_ns, h.attempts);
  }
  if (rtt_sample != 0) cfg_.rtt_sample_hook(place, peer, rtt_sample);
}

void Transport::retx_maybe_pump(int place) {
  auto& next = *retx_next_pump_[static_cast<std::size_t>(place)];
  const std::uint64_t now = mono_ns();
  std::uint64_t prev = next.load(std::memory_order_relaxed);
  if (now < prev) return;
  // One poller wins the tick; everyone else skips — the pump itself takes
  // the shard locks, so admission control here keeps the hot path cheap.
  if (!next.compare_exchange_strong(prev, now + retx_pump_interval_ns_,
                                    std::memory_order_relaxed)) {
    return;
  }
  retx_pump(place, /*force=*/false);
}

std::size_t Transport::retx_pump(int place, bool force) {
  if (!reliability_enabled() || place < 0 || place >= cfg_.places) return 0;
  const std::uint64_t now = mono_ns();
  // Phase 1: timed-out retransmits. Collect copies under the sender shard
  // lock, refresh their piggybacked acks under the receiver shard lock, then
  // put them on the wire with no shard lock held.
  std::vector<std::pair<int, Message>> resend;
  struct TimeoutHook {
    int dst;
    std::uint64_t seq;
    std::uint32_t attempt;
  };
  std::vector<TimeoutHook> hooks;
  {
    auto& shard = *retx_[static_cast<std::size_t>(place)];
    std::scoped_lock lock(shard.mu);
    for (int d = 0; d < cfg_.places; ++d) {
      auto& pair = shard.per_dst[static_cast<std::size_t>(d)];
      for (auto& [seq, e] : pair.unacked) {
        if (!force && e.next_retx_ns > now) continue;
        if (cfg_.retx_timeout_hook) hooks.push_back({d, seq, e.attempts});
        ++e.attempts;
        e.backoff_us = std::min(e.backoff_us * 2, cfg_.retx_backoff_max_us);
        e.next_retx_ns = now + e.backoff_us * 1000;
        resend.emplace_back(d, e.copy);
      }
    }
  }
  // Phase 2: standalone acks for aged (or force-drained) ack debt. Only owed
  // when cum > acked_sent, so the teardown force loop cannot ping-pong acks
  // forever — an ack-only message never creates new debt at its receiver.
  std::vector<std::pair<int, Message>> acks;
  {
    auto& shard = *recv_[static_cast<std::size_t>(place)];
    std::scoped_lock lock(shard.mu);
    for (int s = 0; s < cfg_.places; ++s) {
      auto& rp = shard.per_src[static_cast<std::size_t>(s)];
      if (rp.cum <= rp.acked_sent) continue;
      const bool aged = rp.owed_since_ns != 0 &&
                        now - rp.owed_since_ns >=
                            cfg_.retx_ack_idle_us * 1000;
      if (!force && !aged) continue;
      Message a;
      a.run = [] {};
      a.type = MsgType::kControl;
      a.src = place;
      a.ack = rp.cum;
      a.rflags = kMsgHasAck | kMsgAckOnly;
      acks.emplace_back(s, std::move(a));
      rp.acked_sent = rp.cum;
      rp.owed_since_ns = 0;
    }
    // Refresh the retransmits' piggybacked acks while the lock is held.
    for (auto& [d, m] : resend) {
      auto& rp = shard.per_src[static_cast<std::size_t>(d)];
      m.ack = rp.cum;
      m.rflags |= kMsgHasAck;
      rp.acked_sent = std::max(rp.acked_sent, rp.cum);
      if (rp.acked_sent == rp.cum) rp.owed_since_ns = 0;
    }
  }
  for (const auto& h : hooks) {
    cfg_.retx_timeout_hook(place, h.dst, h.seq, h.attempt);
  }
  if (!resend.empty()) {
    retx_retransmits_.fetch_add(resend.size(), std::memory_order_relaxed);
  }
  if (!acks.empty()) {
    retx_standalone_acks_.fetch_add(acks.size(), std::memory_order_relaxed);
  }
  const std::size_t produced = resend.size() + acks.size();
  for (auto& [d, m] : resend) wire_or_remote(d, std::move(m));
  for (auto& [s, a] : acks) wire_or_remote(s, std::move(a));
  return produced;
}

bool Transport::retx_quiescent() const {
  if (!reliability_enabled()) return true;
  for (int p = 0; p < cfg_.places; ++p) {
    auto& shard = *retx_[static_cast<std::size_t>(p)];
    std::scoped_lock lock(shard.mu);
    for (const auto& pair : shard.per_dst) {
      if (!pair.unacked.empty()) return false;
    }
  }
  return true;
}

std::vector<Transport::RetxDiag> Transport::retx_unacked(int src) const {
  std::vector<RetxDiag> out;
  if (!reliability_enabled() || src < 0 || src >= cfg_.places) return out;
  const std::uint64_t now = mono_ns();
  auto& shard = *retx_[static_cast<std::size_t>(src)];
  std::scoped_lock lock(shard.mu);
  for (int d = 0; d < cfg_.places; ++d) {
    const auto& pair = shard.per_dst[static_cast<std::size_t>(d)];
    if (pair.unacked.empty()) continue;
    const auto& oldest = *pair.unacked.begin();
    RetxDiag diag;
    diag.dst = d;
    diag.oldest_seq = oldest.first;
    diag.age_ns = now > oldest.second.first_send_ns
                      ? now - oldest.second.first_send_ns
                      : 0;
    diag.depth = pair.unacked.size();
    out.push_back(diag);
  }
  return out;
}

template <class Out>
std::size_t Transport::take_batch(Inbox& box, Out& out, std::size_t max) {
  std::scoped_lock lock(box.mu);
  // Chaos must not withhold the last messages forever: once the queue has
  // run dry, one parked message is released from a random position. The
  // release comes before the batch is taken, so batching only amortizes the
  // lock and never changes chaos reorder coverage.
  if (box.queue.empty() && !box.delayed.empty()) {
    std::uniform_int_distribution<std::size_t> pick(0, box.delayed.size() - 1);
    const std::size_t j = pick(box.rng);
    box.queue.push_back(std::move(box.delayed[j]));
    box.delayed.erase(box.delayed.begin() + static_cast<std::ptrdiff_t>(j));
  }
  std::size_t n = 0;
  while (n < max && !box.queue.empty()) {
    out.push_back(std::move(box.queue.front()));
    box.queue.pop_front();
    ++n;
  }
  return n;
}

template <class Out>
std::size_t Transport::admit_batch(int place, Out& out, std::size_t max) {
  auto& box = *inboxes_[static_cast<std::size_t>(place)];
  if (!reliability_enabled()) return take_batch(box, out, max);
  // Reliability: take raw batches under the lock and filter them through
  // admission (ack processing / dedup / ack-only consumption) outside it —
  // admission takes the retx/recv shard locks, and a self-send from
  // retx_pump would otherwise form an inbox <-> shard ordering cycle. The
  // time-gated pump is lock-free to enter. Callers treat a zero return as
  // "inbox empty", so a batch that admits nothing (a retransmit storm of
  // duplicates, or standalone acks) must not end the call while raw
  // messages remain queued.
  retx_maybe_pump(place);
  // Per-thread scratch: a default-constructed std::deque allocates, and
  // admission (ack hooks included) never re-enters the poll path.
  thread_local std::deque<Message> raw;
  for (;;) {
    raw.clear();
    if (take_batch(box, raw, max) == 0) return 0;
    std::size_t n = 0;
    for (auto& m : raw) {
      if (retx_admit(place, m)) {
        out.push_back(std::move(m));
        ++n;
      }
    }
    if (n > 0) {
      raw.clear();
      return n;
    }
  }
}

std::optional<Message> Transport::poll(int place) {
  // A one-message sink: the unbatched path allocates nothing.
  struct Slot {
    Message m;
    void push_back(Message&& x) { m = std::move(x); }
  } slot;
  if (admit_batch(place, slot, 1) == 0) return std::nullopt;
  return std::move(slot.m);
}

std::size_t Transport::poll_batch(int place, std::deque<Message>& out,
                                  std::size_t max) {
  // Adaptive-tuning tick point on the poll hot path, decimated 1-in-64 so a
  // tight poll loop pays a load+store, not a clock read, per call. The
  // controller time-gates the actual tick; one branch when no controller.
  if (cfg_.tick_hook) {
    auto& box = *inboxes_[static_cast<std::size_t>(place)];
    const std::uint64_t n = box.tick_polls.load(std::memory_order_relaxed);
    box.tick_polls.store(n + 1, std::memory_order_relaxed);
    if ((n & 63) == 0) cfg_.tick_hook(place);
  }
  return admit_batch(place, out, max);
}

bool Transport::wait_nonempty(int place, std::chrono::microseconds timeout) {
  auto& box = *inboxes_[static_cast<std::size_t>(place)];
  std::unique_lock lock(box.mu);
  box.cv.wait_for(lock, timeout, [&box] {
    return !box.queue.empty() || !box.delayed.empty() || box.notified;
  });
  box.notified = false;
  return !box.queue.empty() || !box.delayed.empty();
}

void Transport::enter_idle(int place) {
  auto& box = *inboxes_[static_cast<std::size_t>(place)];
  box.sleepers.fetch_add(1, std::memory_order_seq_cst);
  // Order the sleeper announcement before the caller's subsequent work
  // re-check (the other half of the Dekker handshake with producers).
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

void Transport::exit_idle(int place) {
  auto& box = *inboxes_[static_cast<std::size_t>(place)];
  box.sleepers.fetch_sub(1, std::memory_order_relaxed);
}

int Transport::sleepers(int place) const {
  return inboxes_[static_cast<std::size_t>(place)]->sleepers.load(
      std::memory_order_relaxed);
}

void Transport::notify(int place) {
  auto& box = *inboxes_[static_cast<std::size_t>(place)];
  {
    std::scoped_lock lock(box.mu);
    box.notified = true;
  }
  box.cv.notify_all();
}

void Transport::notify_if_sleeping(int place) {
  auto& box = *inboxes_[static_cast<std::size_t>(place)];
  // The producer published its work (deque bottom_ release-store or overflow
  // push) before calling; the fence orders that store before the sleeper
  // read so producer and sleeper cannot both take their fast paths.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (box.sleepers.load(std::memory_order_relaxed) == 0) return;
  {
    std::scoped_lock lock(box.mu);
    box.notified = true;
  }
  box.cv.notify_one();
}

void Transport::register_range(int place, const void* base, std::size_t len) {
  std::unique_lock lock(reg_mu_);
  ranges_[static_cast<std::size_t>(place)].emplace_back(
      static_cast<const std::byte*>(base), len);
}

bool Transport::is_registered(int place, const void* addr,
                              std::size_t len) const {
  std::shared_lock lock(reg_mu_);
  const auto* a = static_cast<const std::byte*>(addr);
  for (const auto& [base, n] : ranges_[static_cast<std::size_t>(place)]) {
    if (a >= base && a + len <= base + n) return true;
  }
  return false;
}

void Transport::submit_dma(DmaOp op, MsgType completion_type) {
  rdma_ops_.fetch_add(1, std::memory_order_relaxed);
  rdma_bytes_.fetch_add(op.n, std::memory_order_relaxed);
  if (dma_workers_.empty()) {
    // Synchronous fallback (dma_threads = 0).
    std::memcpy(op.dst, op.src, op.n);
    if (op.on_complete) {
      send(op.initiator,
           dma_completion(std::move(op.on_complete), completion_type,
                          op.initiator));
    }
    return;
  }
  {
    std::scoped_lock lock(dma_mu_);
    dma_queue_.emplace_back(std::move(op), completion_type);
  }
  dma_cv_.notify_one();
}

void Transport::dma_loop() {
  for (;;) {
    std::pair<DmaOp, MsgType> item;
    {
      std::unique_lock lock(dma_mu_);
      dma_cv_.wait(lock, [this] { return dma_stop_ || !dma_queue_.empty(); });
      if (dma_queue_.empty()) return;  // stop requested and drained
      item = std::move(dma_queue_.front());
      dma_queue_.pop_front();
    }
    auto& [op, type] = item;
    std::memcpy(op.dst, op.src, op.n);
    if (op.on_complete) {
      send(op.initiator,
           dma_completion(std::move(op.on_complete), type, op.initiator));
    }
  }
}

namespace {
/// Shared-memory one-sided ops dereference the target address directly, so
/// under a multi-process backend a remote put/get/atomic would silently hit
/// this process's copy of the page — abort instead of corrupting.
void require_local(bool multi_proc, int local_place, int dst,
                   const char* what) {
  if (multi_proc && dst != local_place) {
    std::fprintf(stderr,
                 "[x10rt] fatal: %s to remote place %d is not supported by "
                 "the socket backend (one-sided ops are shared-memory only)\n",
                 what, dst);
    std::abort();
  }
}
}  // namespace

void Transport::put(int src, int dst, void* dst_addr, const void* src_addr,
                    std::size_t n, std::function<void()> on_complete) {
  require_local(multi_proc_, local_place_, dst, "RDMA put");
  assert(is_registered(dst, dst_addr, n) &&
         "RDMA put target must be registered memory");
  submit_dma(DmaOp{dst_addr, src_addr, n, src, std::move(on_complete)},
             MsgType::kRdma);
}

void Transport::get(int src, int dst, void* local_addr,
                    const void* remote_addr, std::size_t n,
                    std::function<void()> on_complete) {
  require_local(multi_proc_, local_place_, dst, "RDMA get");
  assert(is_registered(dst, remote_addr, n) &&
         "RDMA get source must be registered memory");
  submit_dma(DmaOp{local_addr, remote_addr, n, src, std::move(on_complete)},
             MsgType::kRdma);
}

void Transport::remote_xor64(int src, int dst, std::uint64_t* dst_addr,
                             std::uint64_t val) {
  (void)src;
  require_local(multi_proc_, local_place_, dst, "remote_xor64");
  assert(is_registered(dst, dst_addr, sizeof(std::uint64_t)));
  rdma_ops_.fetch_add(1, std::memory_order_relaxed);
  rdma_bytes_.fetch_add(sizeof(std::uint64_t), std::memory_order_relaxed);
  std::atomic_ref<std::uint64_t>(*dst_addr)
      .fetch_xor(val, std::memory_order_relaxed);
}

void Transport::remote_add64(int src, int dst, std::uint64_t* dst_addr,
                             std::uint64_t val) {
  (void)src;
  require_local(multi_proc_, local_place_, dst, "remote_add64");
  assert(is_registered(dst, dst_addr, sizeof(std::uint64_t)));
  rdma_ops_.fetch_add(1, std::memory_order_relaxed);
  rdma_bytes_.fetch_add(sizeof(std::uint64_t), std::memory_order_relaxed);
  std::atomic_ref<std::uint64_t>(*dst_addr)
      .fetch_add(val, std::memory_order_relaxed);
}

int Transport::register_am(AmHandler handler) {
  am_handlers_.push_back(std::move(handler));
  return static_cast<int>(am_handlers_.size()) - 1;
}

void Transport::send_am(int src, int dst, int handler, ByteBuffer payload,
                        MsgType type) {
  assert(handler >= 0 &&
         handler < static_cast<int>(am_handlers_.size()) &&
         "send_am with unregistered handler");
  const std::size_t wire = payload.size() + sizeof(int);
  // The flush threshold is the per-pair dynamic one when a controller has
  // set it, the static cap otherwise (dyn 0 = untouched, so the disabled
  // path costs exactly one relaxed load here). Admission and the size-flush
  // decision below use the same captured value: a threshold below the
  // record size diverts the pair's sends to the direct path.
  std::size_t cap = 0;
  std::size_t dyn = 0;
  if (coalescing_enabled() && src >= 0 && src < cfg_.places) {
    dyn = coalesce_[static_cast<std::size_t>(src)]
              ->dyn_bytes[static_cast<std::size_t>(dst)]
              .load(std::memory_order_relaxed);
    cap = dyn != 0 ? dyn : cfg_.coalesce_bytes;
  }
  if (cap != 0 && envelope::kRecordHeaderBytes + payload.size() < cap) {
    // Coalesced path. The logical message is accounted *now* (per record,
    // per class) so protocol metrics don't depend on when the wire flushes.
    count_logical(src, dst, type, wire);
    ByteBuffer ready;
    std::uint32_t ready_records = 0;
    std::uint64_t ready_open_ns = 0;
    FlushReason reason = FlushReason::kSize;
    bool ship = false;
    std::vector<std::vector<std::byte>> recycle;
    {
      auto& shard = *coalesce_[static_cast<std::size_t>(src)];
      std::scoped_lock lock(shard.mu);
      shard.dirty.store(true, std::memory_order_relaxed);
      auto& w = shard.per_dst[static_cast<std::size_t>(dst)];
      if (!w.is_open()) {
        // Envelope storage comes from the shard's spare stash when it has
        // one (no pool lock), from the pool otherwise.
        if (!shard.spare.empty()) {
          std::vector<std::byte> s = std::move(shard.spare.back());
          shard.spare.pop_back();
          s.clear();
          w.open(std::move(s));
        } else {
          w.open(pool_.acquire(src));
        }
        shard.active.push_back(dst);
        shard.open_ns[static_cast<std::size_t>(dst)] = mono_ns();
      }
      w.append(handler, payload);
      // The payload was copied into the envelope; park its storage in the
      // shard (lock already held) and recycle per envelope, not per record.
      shard.spare.push_back(payload.take_data());
      if (w.bytes() >= cap) {
        ship = true;
        reason = FlushReason::kSize;
      } else if (w.records() >=
                 static_cast<std::uint32_t>(cfg_.coalesce_msgs)) {
        ship = true;
        reason = FlushReason::kCount;
      }
      constexpr std::size_t kSpareCap = 128;
      if (ship || shard.spare.size() >= kSpareCap) {
        recycle.swap(shard.spare);
      }
      if (ship) {
        ready_records = w.records();
        ready = w.close();
        ready_open_ns = shard.open_ns[static_cast<std::size_t>(dst)];
        shard.open_ns[static_cast<std::size_t>(dst)] = 0;
        shard.active.erase(
            std::find(shard.active.begin(), shard.active.end(), dst));
      }
    }
    if (!recycle.empty()) pool_.release_batch(src, std::move(recycle));
    if (ship) {
      ship_envelope(src, dst, std::move(ready), ready_records, reason,
                    ready_open_ns);
    }
    return;
  }
  if (coalescing_enabled()) {
    if (dyn != 0 &&
        envelope::kRecordHeaderBytes + payload.size() < cfg_.coalesce_bytes) {
      // Small enough for the static cap — the dynamic threshold diverted it.
      // Counted per pair only (the controller's probe-up signal); the global
      // bypass counter keeps meaning "record too large to coalesce". The
      // bump is a load+store pair, not an RMW: this is a rate estimate, not
      // protocol books, and increments lost to concurrent senders only dull
      // the estimate while keeping the collapsed path near the disabled
      // path's cost.
      auto& byp = coalesce_[static_cast<std::size_t>(src)]
                      ->dyn_bypass[static_cast<std::size_t>(dst)];
      byp.store(byp.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
    } else {
      coalesce_bypass_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Message m;
  m.src = src;
  m.type = type;
  m.bytes = wire;
  if (multi_proc_ && dst != local_place_) {
    // Wire form instead of a closure: handler id + serialized payload. The
    // retained retransmit copy shares the payload through m.wire.
    m.handler = handler;
    m.wire = std::make_shared<const std::vector<std::byte>>(payload.take_data());
    send(dst, std::move(m));
    return;
  }
  // The handler runs at dst, so the storage recycles into dst's shard.
  const AmHandler* fn = &am_handlers_[static_cast<std::size_t>(handler)];
  m.run = [this, fn, dst, payload = std::move(payload)]() mutable {
    payload.rewind();
    (*fn)(payload);
    pool_.release(dst, payload.take_data());
  };
  send(dst, std::move(m));
}

void Transport::ship_envelope(int src, int dst, ByteBuffer env,
                              std::uint32_t records, FlushReason reason,
                              std::uint64_t open_ns) {
  coalesce_envelopes_.fetch_add(1, std::memory_order_relaxed);
  coalesce_records_.fetch_add(records, std::memory_order_relaxed);
  coalesce_wire_bytes_.fetch_add(env.size(), std::memory_order_relaxed);
  coalesce_flush_counts_[static_cast<std::size_t>(reason)].fetch_add(
      1, std::memory_order_relaxed);
  if (cfg_.flush_hook) {
    // Clamp a stamped residency to >= 1ns so "envelope count by nonzero
    // residency" holds even if the clock did not tick between open and ship.
    std::uint64_t residency = 0;
    if (open_ns != 0) {
      const std::uint64_t now = mono_ns();
      residency = now > open_ns ? now - open_ns : 1;
    }
    cfg_.flush_hook(src, dst, records, reason, residency);
  }
  Message m;
  m.src = src;
  m.type = MsgType::kControl;
  m.bytes = env.size();
  if (multi_proc_ && dst != local_place_) {
    m.rflags |= kMsgEnvelope;
    m.wire = std::make_shared<const std::vector<std::byte>>(env.take_data());
  } else {
    m.run = [this, src, dst, env = std::move(env)]() mutable {
      deliver_envelope(src, dst, std::move(env));
    };
  }
  // The records were counted at send_am time; the envelope itself must not
  // inflate the per-class statistics.
  send_unrecorded(dst, std::move(m));
}

void Transport::deliver_envelope(int src, int dst, ByteBuffer env) {
  // Each record becomes its own inbox message — running handlers inline
  // here would deadlock: a spawn record's activity body runs synchronously
  // (rt_am_spawn -> run_activity) and may block on a rendezvous whose reply
  // rides a LATER record of this same train. The blocked activity's nested
  // inbox pump drains the inbox, not this stack frame, so the trapped
  // records would never deliver. Re-enqueued one by one, coalesced delivery
  // is behaviourally identical to the uncoalesced path. The records carry
  // no reliability sequence (the envelope itself was the sequenced wire
  // unit), so chaos drop/dup — which would be un-retransmittable here —
  // never applies to them.
  envelope::for_each_record(
      env, [this, src, dst](int handler, ByteBuffer& buf, std::uint32_t len) {
        assert(handler >= 0 &&
               handler < static_cast<int>(am_handlers_.size()) &&
               "envelope record names an unregistered handler");
        // Copy the record out so the handler sees the exact contract of the
        // direct path: a standalone ByteBuffer with cursor 0,
        // size() == payload size.
        std::vector<std::byte> storage = pool_.acquire(dst);
        storage.resize(len);
        buf.get_raw(storage.data(), len);
        const AmHandler* fn = &am_handlers_[static_cast<std::size_t>(handler)];
        Message m;
        m.src = src;
        m.type = MsgType::kControl;
        m.bytes = len + sizeof(int);
        m.run = [this, fn, dst,
                 payload = ByteBuffer{std::move(storage)}]() mutable {
          (*fn)(payload);
          pool_.release(dst, payload.take_data());
        };
        wire_deliver(dst, std::move(m));
      });
  pool_.release(dst, env.take_data());
}

std::size_t Transport::flush_coalesced(int src, FlushReason reason) {
  if (!coalescing_enabled() || src < 0 || src >= cfg_.places) return 0;
  auto& shard = *coalesce_[static_cast<std::size_t>(src)];
  // Nothing parked and nothing to recycle: return without the shard lock.
  // Idle-hook flushes hit this constantly on pairs the dynamic threshold
  // collapsed (every send went direct), and the flush must cost one load
  // there. A racing sender that sets `dirty` after this load loses nothing:
  // its record is caught by the next flush attempt or by its own size/count
  // trigger.
  if (!shard.dirty.load(std::memory_order_relaxed)) return 0;
  // Seal everything under the shard lock, ship outside it: ship_envelope
  // takes the destination inbox mutex and runs the flush hook, neither of
  // which belongs in the shard critical section.
  std::vector<std::tuple<int, ByteBuffer, std::uint32_t, std::uint64_t>> ready;
  std::vector<std::vector<std::byte>> recycle;
  {
    std::scoped_lock lock(shard.mu);
    shard.dirty.store(false, std::memory_order_relaxed);
    recycle.swap(shard.spare);
    if (shard.active.empty()) {
      if (recycle.empty()) return 0;
    } else {
      ready.reserve(shard.active.size());
      for (int dst : shard.active) {
        auto& w = shard.per_dst[static_cast<std::size_t>(dst)];
        assert(w.is_open() && w.records() > 0);
        const std::uint32_t n = w.records();
        ready.emplace_back(dst, w.close(), n,
                           shard.open_ns[static_cast<std::size_t>(dst)]);
        shard.open_ns[static_cast<std::size_t>(dst)] = 0;
      }
      shard.active.clear();
    }
  }
  if (!recycle.empty()) pool_.release_batch(src, std::move(recycle));
  for (auto& [dst, env, n, opened] : ready) {
    ship_envelope(src, dst, std::move(env), n, reason, opened);
  }
  return ready.size();
}

void Transport::set_coalesce_threshold(int src, int dst, std::size_t bytes) {
  if (!coalescing_enabled() || src < 0 || src >= cfg_.places || dst < 0 ||
      dst >= cfg_.places) {
    return;
  }
  if (bytes > cfg_.coalesce_bytes) bytes = cfg_.coalesce_bytes;
  coalesce_[static_cast<std::size_t>(src)]
      ->dyn_bytes[static_cast<std::size_t>(dst)]
      .store(bytes, std::memory_order_relaxed);
}

std::size_t Transport::coalesce_threshold(int src, int dst) const {
  if (!coalescing_enabled() || src < 0 || src >= cfg_.places || dst < 0 ||
      dst >= cfg_.places) {
    return 0;
  }
  const std::size_t dyn = coalesce_[static_cast<std::size_t>(src)]
                              ->dyn_bytes[static_cast<std::size_t>(dst)]
                              .load(std::memory_order_relaxed);
  return dyn != 0 ? dyn : cfg_.coalesce_bytes;
}

std::uint64_t Transport::coalesce_dyn_bypass(int src, int dst) const {
  if (!coalescing_enabled() || src < 0 || src >= cfg_.places || dst < 0 ||
      dst >= cfg_.places) {
    return 0;
  }
  return coalesce_[static_cast<std::size_t>(src)]
      ->dyn_bypass[static_cast<std::size_t>(dst)]
      .load(std::memory_order_relaxed);
}

void Transport::set_retx_rto(int src, int dst, std::uint64_t rto_us) {
  if (!reliability_enabled() || src < 0 || src >= cfg_.places || dst < 0 ||
      dst >= cfg_.places) {
    return;
  }
  auto& shard = *retx_[static_cast<std::size_t>(src)];
  std::scoped_lock lock(shard.mu);
  shard.per_dst[static_cast<std::size_t>(dst)].rto_us = rto_us;
}

std::uint64_t Transport::retx_rto_us(int src, int dst) const {
  if (!reliability_enabled() || src < 0 || src >= cfg_.places || dst < 0 ||
      dst >= cfg_.places) {
    return 0;
  }
  auto& shard = *retx_[static_cast<std::size_t>(src)];
  std::scoped_lock lock(shard.mu);
  const std::uint64_t dyn =
      shard.per_dst[static_cast<std::size_t>(dst)].rto_us;
  return dyn != 0 ? dyn : cfg_.retx_timeout_us;
}

std::uint64_t Transport::count(MsgType t) const {
  return counts_[static_cast<std::size_t>(t)].load(std::memory_order_relaxed);
}

std::uint64_t Transport::bytes(MsgType t) const {
  return bytes_[static_cast<std::size_t>(t)].load(std::memory_order_relaxed);
}

std::uint64_t Transport::total_messages() const {
  std::uint64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t Transport::pair_count(int src, int dst) const {
  assert(cfg_.count_pairs);
  return pair_counts_[static_cast<std::size_t>(src) * cfg_.places + dst].load(
      std::memory_order_relaxed);
}

int Transport::max_out_degree() const {
  assert(cfg_.count_pairs);
  int max_deg = 0;
  for (int s = 0; s < cfg_.places; ++s) {
    int deg = 0;
    for (int d = 0; d < cfg_.places; ++d) {
      if (pair_count(s, d) > 0) ++deg;
    }
    max_deg = std::max(max_deg, deg);
  }
  return max_deg;
}

std::uint64_t Transport::ctrl_pair_count(int src, int dst) const {
  assert(cfg_.count_pairs);
  return ctrl_pair_counts_[static_cast<std::size_t>(src) * cfg_.places + dst]
      .load(std::memory_order_relaxed);
}

int Transport::max_ctrl_out_degree() const {
  assert(cfg_.count_pairs);
  int max_deg = 0;
  for (int s = 0; s < cfg_.places; ++s) {
    int deg = 0;
    for (int d = 0; d < cfg_.places; ++d) {
      if (ctrl_pair_count(s, d) > 0) ++deg;
    }
    max_deg = std::max(max_deg, deg);
  }
  return max_deg;
}

std::size_t Transport::inbox_depth(int place) const {
  if (place < 0 || place >= cfg_.places) return 0;
  Inbox& box = *inboxes_[static_cast<std::size_t>(place)];
  std::scoped_lock lock(box.mu);
  return box.queue.size() + box.delayed.size();
}

std::size_t Transport::coalesce_open_envelopes(int src) const {
  if (!coalescing_enabled() || src < 0 || src >= cfg_.places) return 0;
  CoalesceShard& shard = *coalesce_[static_cast<std::size_t>(src)];
  std::scoped_lock lock(shard.mu);
  return shard.active.size();
}

void Transport::reset_stats() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  for (auto& b : bytes_) b.store(0, std::memory_order_relaxed);
  rdma_ops_.store(0);
  rdma_bytes_.store(0);
  coalesce_envelopes_.store(0, std::memory_order_relaxed);
  coalesce_records_.store(0, std::memory_order_relaxed);
  coalesce_wire_bytes_.store(0, std::memory_order_relaxed);
  coalesce_bypass_.store(0, std::memory_order_relaxed);
  for (auto& f : coalesce_flush_counts_) f.store(0, std::memory_order_relaxed);
  retx_sent_.store(0, std::memory_order_relaxed);
  retx_acked_.store(0, std::memory_order_relaxed);
  retx_retransmits_.store(0, std::memory_order_relaxed);
  retx_dups_dropped_.store(0, std::memory_order_relaxed);
  retx_standalone_acks_.store(0, std::memory_order_relaxed);
  chaos_dropped_.store(0, std::memory_order_relaxed);
  chaos_duped_.store(0, std::memory_order_relaxed);
  chaos_bypass_.store(0, std::memory_order_relaxed);
  for (auto& pc : pair_counts_) pc.store(0, std::memory_order_relaxed);
  for (auto& pc : ctrl_pair_counts_) pc.store(0, std::memory_order_relaxed);
}

}  // namespace x10rt
