// Online self-tuning of transport and scheduler knobs (ROADMAP item 5;
// docs/transport.md "Adaptive tuning").
//
// The paper's petascale numbers depended on hand-tuning communication
// batching and polling per workload; the static knobs that make the flood
// probe fast (big coalescing envelopes, long retransmit timers, long parks)
// are exactly wrong for latency-sensitive finish-shaped traffic. The
// Autotune controller closes that gap online, per place, from signals the
// runtime already records:
//
//   * Coalescing — every (src,dst) pair carries a dynamic flush threshold.
//     It starts at the static `coalesce_bytes` cap, shrinks when a windowed
//     EWMA of envelope residency exceeds the configured latency budget (or
//     when envelopes degenerate to ~1 record flushed by idle — coalescing as
//     pure overhead), and grows back toward the cap when residency is
//     comfortable and size-flushes dominate. A threshold below the record
//     size diverts sends to the direct path entirely.
//   * Retransmit timers — per-(src,dst) Jacobson/Karels SRTT + RTTVAR from
//     first-transmission ack latencies (Karn's rule: retransmitted sequences
//     never contribute samples). RTO = SRTT + 4·RTTVAR, clamped between a
//     quarter of the static `retx_timeout_us` and `retx_backoff_max_us`.
//   * Worker parking — the park-backoff ceiling of each place's workers
//     shrinks toward `park_backoff_min_us` while steal/overflow work is
//     flowing (flood phases spin longer) and grows toward
//     `park_backoff_max_us` when park waits dominate (quiet phases park
//     sooner and longer).
//
// The controller is ticked (time-gated) from Transport::poll_batch and from
// the scheduler on each busy->idle transition. It exists only when
// `Config::autotune > 0`; when off, nothing ever installs a hook or a
// dynamic threshold and the runtime's behavior is bit-for-bit the static
// one.
//
// The decision rules live in the `tune` namespace as pure deterministic
// functions over plain structs so the unit suite exercises them without a
// runtime (tests/test_autotune.cc).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "x10rt/transport.h"

namespace apgas {

class Scheduler;

namespace tune {

/// Integer EWMA with alpha = 1/8 (the TCP SRTT gain): deterministic, no
/// floating point, first sample primes the average.
struct Ewma {
  std::uint64_t value = 0;
  bool primed = false;

  void add(std::uint64_t sample) {
    if (!primed) {
      value = sample;
      primed = true;
      return;
    }
    const std::int64_t err =
        static_cast<std::int64_t>(sample) - static_cast<std::int64_t>(value);
    value = static_cast<std::uint64_t>(static_cast<std::int64_t>(value) +
                                       err / 8);
  }
};

/// Jacobson/Karels round-trip estimator (RFC 6298 constants): SRTT gain 1/8,
/// RTTVAR gain 1/4, RTO = SRTT + 4·RTTVAR. All nanoseconds internally.
struct SrttEstimator {
  std::uint64_t srtt_ns = 0;
  std::uint64_t rttvar_ns = 0;
  bool primed = false;

  void sample(std::uint64_t rtt_ns) {
    if (!primed) {
      srtt_ns = rtt_ns;
      rttvar_ns = rtt_ns / 2;
      primed = true;
      return;
    }
    const std::int64_t err = static_cast<std::int64_t>(rtt_ns) -
                             static_cast<std::int64_t>(srtt_ns);
    const std::int64_t abs_err = err < 0 ? -err : err;
    rttvar_ns = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(rttvar_ns) +
        (abs_err - static_cast<std::int64_t>(rttvar_ns)) / 4);
    srtt_ns = static_cast<std::uint64_t>(static_cast<std::int64_t>(srtt_ns) +
                                         err / 8);
  }

  /// Retransmit timeout in microseconds, clamped into [floor_us, ceil_us].
  /// 0 while unprimed (caller keeps the static timeout).
  [[nodiscard]] std::uint64_t rto_us(std::uint64_t floor_us,
                                     std::uint64_t ceil_us) const {
    if (!primed) return 0;
    const std::uint64_t raw_us = (srtt_ns + 4 * rttvar_ns) / 1000 + 1;
    if (ceil_us < floor_us) ceil_us = floor_us;
    if (raw_us < floor_us) return floor_us;
    if (raw_us > ceil_us) return ceil_us;
    return raw_us;
  }
};

/// Per-window coalescing evidence for one (src,dst) pair. Quiescence flushes
/// are deliberately absent: teardown drains every open envelope regardless of
/// threshold, so they carry no information about the workload.
struct CoalesceWindow {
  std::uint64_t size_flushes = 0;
  std::uint64_t count_flushes = 0;
  std::uint64_t idle_flushes = 0;
  std::uint64_t envelopes = 0;  ///< size + count + idle flushes
  std::uint64_t records = 0;    ///< logical AMs inside those envelopes
  std::uint64_t bypasses = 0;   ///< sends diverted direct by the dyn threshold
};

/// Smallest dynamic threshold: below any record size, so the pair's small
/// sends take the direct path (coalescing effectively off for the pair).
inline constexpr std::size_t kCoalesceFloorBytes = 1;
/// Where an upward probe from the floor restarts: past the record header so
/// small AMs coalesce again and produce flush evidence.
inline constexpr std::size_t kCoalesceProbeBytes = 64;
/// Rush probes require the window's bypass count to at least double a primed
/// baseline of this many diverted sends — jitter on a trickle is not a phase
/// change.
inline constexpr std::uint64_t kProbeRushMinBypasses = 64;
/// Safety probes fire every `probe_period * kProbeSlowFactor` ticks: the
/// bound on how long a collapsed pair can ignore a flood whose direct-send
/// rate happens to match the latency phase that caused the collapse.
inline constexpr std::uint64_t kProbeSlowFactor = 16;

/// One deterministic threshold decision for a (src,dst) pair.
///
///   * shrink (÷2) when the residency EWMA exceeds the budget — records are
///     dwelling in open envelopes longer than the latency budget allows;
///   * collapse to the floor when flushes are idle/count-driven with under
///     two records per envelope — the layer is pure overhead, go direct;
///   * grow (×4, toward `cap`) when size-flushes dominate and residency sits
///     at half budget or below — batching is earning its keep;
///   * probe upward from a bypass-only window when `allow_probe` (the caller
///     rate-limits probes) so a flood following a latency phase can climb
///     back; otherwise hold.
inline std::size_t coalesce_next_threshold(std::size_t cur, std::size_t cap,
                                           std::uint64_t budget_ns,
                                           const Ewma& residency,
                                           const CoalesceWindow& w,
                                           bool allow_probe) {
  if (cap == 0) return 0;  // coalescing statically off: nothing to tune
  if (cur == 0 || cur > cap) cur = cap;
  const std::uint64_t flushes =
      w.size_flushes + w.count_flushes + w.idle_flushes;
  if (flushes == 0) {
    if (w.bypasses > 0 && allow_probe && cur < cap) {
      return std::min(cap, std::max(cur * 2, kCoalesceProbeBytes));
    }
    return cur;
  }
  if (residency.primed && residency.value > budget_ns) {
    return std::max(cur / 2, kCoalesceFloorBytes);
  }
  const bool size_dominates = w.size_flushes * 2 >= flushes;
  if (!size_dominates && w.records < w.envelopes * 2) {
    return kCoalesceFloorBytes;
  }
  const bool comfortable = !residency.primed || residency.value * 2 <= budget_ns;
  if (size_dominates && comfortable && cur < cap) {
    return std::min(cap, std::max(cur * 4, kCoalesceProbeBytes));
  }
  return cur;
}

/// One deterministic park-ceiling decision for a place's workers, from the
/// last window's successful steals + overflow drains (`work_delta`) versus
/// park waits on the inbox (`idle_delta`, Scheduler::parks()). Work-dominated
/// windows halve the ceiling (short parks ≈ spinning, stay responsive);
/// idle-dominated windows double it (save the CPU). Both clamped into
/// [min_us, max_us].
inline std::uint64_t park_next_ceiling(std::uint64_t cur, std::uint64_t min_us,
                                       std::uint64_t max_us,
                                       std::uint64_t work_delta,
                                       std::uint64_t idle_delta) {
  if (min_us == 0) min_us = 1;
  if (max_us < min_us) max_us = min_us;
  if (cur < min_us) cur = min_us;
  if (cur > max_us) cur = max_us;
  if (work_delta == 0 && idle_delta == 0) return cur;
  if (work_delta >= idle_delta * 4) return std::max(min_us, cur / 2);
  if (idle_delta > work_delta) return std::min(max_us, cur * 2);
  return cur;
}

}  // namespace tune

/// The per-place online controller. One instance per Runtime (or per bench
/// harness: everything except the park leg works against a bare
/// x10rt::Transport, no Runtime required).
class Autotune {
 public:
  struct Knobs {
    std::uint64_t residency_budget_us = 50;  ///< coalesce latency budget
    std::size_t coalesce_bytes_cap = 0;      ///< static cap (0 = no coalescing)
    std::uint64_t retx_timeout_us = 0;       ///< static RTO anchor (0 = off)
    std::uint64_t retx_backoff_max_us = 50'000;  ///< adaptive RTO ceiling
    std::uint64_t park_min_us = 1;
    std::uint64_t park_max_us = 200;
    std::uint64_t tick_interval_us = 100;  ///< adjustment cadence per place
    /// Granularity of upward probes from a collapsed pair. A *rush* probe
    /// fires on any tick whose bypass count more than doubles the pair's
    /// primed bypass-rate EWMA (a flood arriving on a latency-bound pair); a
    /// *safety* probe fires after `probe_period * tune::kProbeSlowFactor`
    /// probe-free ticks so a steady latency phase pays at most one wrong
    /// tick per ~`kProbeSlowFactor * probe_period * tick_interval_us`.
    std::uint64_t probe_period = 4;
  };

  /// Which knob family a kAutotuneAdjust event (adjust hook) describes.
  enum class Knob : std::uint8_t { kCoalesce = 0, kRetxRto = 1, kPark = 2 };

  /// Controller state for one (src,dst) pair, as dumped by the watchdog.
  struct PairDiag {
    int dst = -1;
    std::size_t threshold = 0;          ///< current dynamic flush threshold
    std::uint64_t residency_ewma_ns = 0;
    std::uint64_t srtt_us = 0;
    std::uint64_t rttvar_us = 0;
    std::uint64_t rto_us = 0;           ///< last applied adaptive RTO
  };

  Autotune(int places, Knobs knobs);

  /// Where decisions land. The transport must outlive the controller; the
  /// schedulers are optional (bench harnesses tune a bare transport).
  void attach_transport(x10rt::Transport* tr);
  void attach_scheduler(int place, Scheduler* sched);

  /// Observability: invoked once per applied adjustment with the new value
  /// (threshold bytes, RTO µs, or park ceiling µs). `dst` is -1 for the
  /// place-wide park knob. The runtime wires this to the kAutotuneAdjust
  /// trace event.
  void set_adjust_hook(
      std::function<void(int place, int dst, Knob, std::uint64_t value)> hook);

  // --- signal sinks (wired into TransportConfig hooks) ----------------------

  /// Every shipped envelope: residency feeds the pair's EWMA, the reason the
  /// flush-cause window. kQuiesce flushes are ignored by design — teardown
  /// must drain envelopes whatever the thresholds say, so they are evidence
  /// of nothing (docs/transport.md "Adaptive tuning").
  void on_flush(int src, int dst, std::uint32_t records,
                x10rt::FlushReason reason, std::uint64_t residency_ns);

  /// First-transmission ack latency for (src,dst) (Karn-filtered upstream).
  void on_rtt_sample(int src, int dst, std::uint64_t rtt_ns);

  /// Time-gated tick from the poll path / scheduler busy->idle transition: at
  /// most one adjustment pass per place per tick_interval_us, one relaxed
  /// load + CAS to enter.
  void maybe_tick(int place);

  /// Unconditional adjustment pass (tests and bench drive phases with this).
  void tick(int place);

  // --- introspection --------------------------------------------------------

  /// Pairs with any controller state at `src` (watchdog diagnosis; locks).
  [[nodiscard]] std::vector<PairDiag> pair_diag(int src) const;

  /// Effective park ceiling chosen for `place` (µs); 0 when no scheduler is
  /// attached for it.
  [[nodiscard]] std::uint64_t park_ceiling_us(int place) const;

  [[nodiscard]] std::uint64_t adjust_up() const {
    return adjust_up_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t adjust_down() const {
    return adjust_down_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t rto_updates() const {
    return rto_updates_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t rtt_samples() const {
    return rtt_samples_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t park_adjusts() const {
    return park_adjusts_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t ticks() const {
    return ticks_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const Knobs& knobs() const { return knobs_; }

 private:
  struct PairState {
    tune::Ewma residency;
    tune::CoalesceWindow window;
    std::size_t threshold = 0;  ///< 0 = never adjusted (static cap in force)
    std::uint64_t last_dyn_bypass = 0;
    // Probe policy state: baseline of diverted sends per window while the
    // pair is collapsed (reset on collapse so each latency phase re-primes
    // it), and ticks since the last upward probe (safety-probe clock).
    tune::Ewma bypass_rate;
    std::uint64_t ticks_since_probe = 0;
    tune::SrttEstimator srtt;
    std::uint64_t applied_rto_us = 0;
    bool rtt_dirty = false;
  };

  struct PlaceState {
    mutable std::mutex mu;
    std::vector<PairState> pairs;  // indexed by dst
    std::atomic<std::uint64_t> next_tick_ns{0};
    std::uint64_t tick_count = 0;
    // Scheduler counter snapshots for the park delta window.
    std::uint64_t last_steals = 0;
    std::uint64_t last_overflow = 0;
    std::uint64_t last_parks = 0;
  };

  void tick_coalesce(int place, PlaceState& ps);
  void tick_retx(int place, PlaceState& ps);
  void tick_park(int place, PlaceState& ps);

  int places_;
  Knobs knobs_;
  x10rt::Transport* tr_ = nullptr;
  std::vector<Scheduler*> scheds_;
  std::vector<std::unique_ptr<PlaceState>> state_;
  std::function<void(int, int, Knob, std::uint64_t)> adjust_hook_;

  std::atomic<std::uint64_t> adjust_up_{0};
  std::atomic<std::uint64_t> adjust_down_{0};
  std::atomic<std::uint64_t> rto_updates_{0};
  std::atomic<std::uint64_t> rtt_samples_{0};
  std::atomic<std::uint64_t> park_adjusts_{0};
  std::atomic<std::uint64_t> ticks_{0};
};

}  // namespace apgas
