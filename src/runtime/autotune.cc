#include "runtime/autotune.h"

#include <algorithm>

#include "runtime/histogram.h"
#include "runtime/scheduler.h"

namespace apgas {

Autotune::Autotune(int places, Knobs knobs)
    : places_(places),
      knobs_(knobs),
      scheds_(static_cast<std::size_t>(places), nullptr) {
  if (knobs_.tick_interval_us == 0) knobs_.tick_interval_us = 1;
  if (knobs_.probe_period == 0) knobs_.probe_period = 1;
  state_.reserve(static_cast<std::size_t>(places));
  for (int p = 0; p < places; ++p) {
    auto ps = std::make_unique<PlaceState>();
    ps->pairs.resize(static_cast<std::size_t>(places));
    state_.push_back(std::move(ps));
  }
}

void Autotune::attach_transport(x10rt::Transport* tr) { tr_ = tr; }

void Autotune::attach_scheduler(int place, Scheduler* sched) {
  scheds_[static_cast<std::size_t>(place)] = sched;
}

void Autotune::set_adjust_hook(
    std::function<void(int, int, Knob, std::uint64_t)> hook) {
  adjust_hook_ = std::move(hook);
}

void Autotune::on_flush(int src, int dst, std::uint32_t records,
                        x10rt::FlushReason reason, std::uint64_t residency_ns) {
  if (src < 0 || src >= places_ || dst < 0 || dst >= places_) return;
  if (reason == x10rt::FlushReason::kQuiesce) return;
  auto& ps = *state_[static_cast<std::size_t>(src)];
  std::scoped_lock lock(ps.mu);
  auto& st = ps.pairs[static_cast<std::size_t>(dst)];
  st.residency.add(residency_ns);
  st.window.envelopes += 1;
  st.window.records += records;
  switch (reason) {
    case x10rt::FlushReason::kSize: st.window.size_flushes += 1; break;
    case x10rt::FlushReason::kCount: st.window.count_flushes += 1; break;
    case x10rt::FlushReason::kIdle: st.window.idle_flushes += 1; break;
    // A latency-forced cut for rendezvous traffic carries the same signal
    // as an idle flush: the envelope never earned its residency.
    case x10rt::FlushReason::kImmediate: st.window.idle_flushes += 1; break;
    case x10rt::FlushReason::kQuiesce: break;  // unreachable (early return)
  }
}

void Autotune::on_rtt_sample(int src, int dst, std::uint64_t rtt_ns) {
  if (src < 0 || src >= places_ || dst < 0 || dst >= places_) return;
  rtt_samples_.fetch_add(1, std::memory_order_relaxed);
  auto& ps = *state_[static_cast<std::size_t>(src)];
  std::scoped_lock lock(ps.mu);
  auto& st = ps.pairs[static_cast<std::size_t>(dst)];
  st.srtt.sample(rtt_ns);
  st.rtt_dirty = true;
}

void Autotune::maybe_tick(int place) {
  if (place < 0 || place >= places_) return;
  auto& next = state_[static_cast<std::size_t>(place)]->next_tick_ns;
  const std::uint64_t now = hist::now_ns();
  std::uint64_t prev = next.load(std::memory_order_relaxed);
  if (now < prev) return;
  // One caller wins the tick; the rest skip (same admission pattern as
  // Transport::retx_maybe_pump).
  if (!next.compare_exchange_strong(prev, now + knobs_.tick_interval_us * 1000,
                                    std::memory_order_relaxed)) {
    return;
  }
  tick(place);
}

void Autotune::tick(int place) {
  if (place < 0 || place >= places_) return;
  ticks_.fetch_add(1, std::memory_order_relaxed);
  auto& ps = *state_[static_cast<std::size_t>(place)];
  {
    std::scoped_lock lock(ps.mu);
    ps.tick_count += 1;
  }
  tick_coalesce(place, ps);
  tick_retx(place, ps);
  tick_park(place, ps);
}

void Autotune::tick_coalesce(int place, PlaceState& ps) {
  if (tr_ == nullptr || knobs_.coalesce_bytes_cap == 0) return;
  struct Apply {
    int dst;
    std::size_t threshold;
    bool up;
  };
  std::vector<Apply> apply;
  {
    std::scoped_lock lock(ps.mu);
    for (int d = 0; d < places_; ++d) {
      if (d == place) continue;
      auto& st = ps.pairs[static_cast<std::size_t>(d)];
      // Fold the transport's "diverted direct by the dynamic threshold"
      // counter into this window.
      const std::uint64_t byp = tr_->coalesce_dyn_bypass(place, d);
      st.window.bypasses = byp - st.last_dyn_bypass;
      st.last_dyn_bypass = byp;
      st.ticks_since_probe += 1;
      // Probe policy for bypass-only (collapsed) windows: rush when the
      // divert rate jumps past twice the primed baseline — a flood arriving
      // on a pair collapsed by a latency phase re-coalesces within one tick
      // — and otherwise only on the slow safety cadence, so a steady
      // latency phase is not re-parked every probe_period ticks.
      bool allow_probe = false;
      if (st.window.envelopes == 0 && st.window.bypasses > 0) {
        const std::uint64_t base = std::max(
            st.bypass_rate.primed ? st.bypass_rate.value : 0,
            tune::kProbeRushMinBypasses);
        const bool rush =
            st.bypass_rate.primed && st.window.bypasses > base * 2;
        const bool slow = st.ticks_since_probe >=
                          knobs_.probe_period * tune::kProbeSlowFactor;
        allow_probe = rush || slow;
        // The baseline tracks collapsed windows only, and only after the
        // probe decision so a jump is still visible against the old value.
        st.bypass_rate.add(st.window.bypasses);
      }
      const std::size_t cur =
          st.threshold != 0 ? st.threshold : knobs_.coalesce_bytes_cap;
      const std::size_t next = tune::coalesce_next_threshold(
          cur, knobs_.coalesce_bytes_cap, knobs_.residency_budget_us * 1000,
          st.residency, st.window, allow_probe);
      if (next != cur) {
        st.threshold = next;
        apply.push_back({d, next, next > cur});
        if (next > cur && st.window.envelopes == 0) {
          st.ticks_since_probe = 0;  // an upward probe just fired
        }
        if (next == tune::kCoalesceFloorBytes) {
          // New latency phase: re-prime the divert baseline and restart the
          // safety-probe clock from the collapse, not from long-past probes.
          st.bypass_rate = tune::Ewma{};
          st.ticks_since_probe = 0;
        }
      }
      st.window = tune::CoalesceWindow{};
    }
  }
  for (const auto& a : apply) {
    tr_->set_coalesce_threshold(place, a.dst, a.threshold);
    (a.up ? adjust_up_ : adjust_down_).fetch_add(1, std::memory_order_relaxed);
    if (adjust_hook_) {
      adjust_hook_(place, a.dst, Knob::kCoalesce, a.threshold);
    }
  }
}

void Autotune::tick_retx(int place, PlaceState& ps) {
  if (tr_ == nullptr || knobs_.retx_timeout_us == 0) return;
  const std::uint64_t floor_us =
      std::max<std::uint64_t>(1, knobs_.retx_timeout_us / 4);
  const std::uint64_t ceil_us =
      std::max(knobs_.retx_timeout_us, knobs_.retx_backoff_max_us);
  struct Apply {
    int dst;
    std::uint64_t rto_us;
  };
  std::vector<Apply> apply;
  {
    std::scoped_lock lock(ps.mu);
    for (int d = 0; d < places_; ++d) {
      if (d == place) continue;
      auto& st = ps.pairs[static_cast<std::size_t>(d)];
      if (!st.rtt_dirty) continue;
      st.rtt_dirty = false;
      const std::uint64_t rto = st.srtt.rto_us(floor_us, ceil_us);
      if (rto == 0) continue;
      // Apply only on a meaningful move (>= 1/8 of the current value) so
      // steady-state traffic doesn't hammer the retx shard lock.
      const std::uint64_t cur = st.applied_rto_us;
      const std::uint64_t diff = rto > cur ? rto - cur : cur - rto;
      if (cur != 0 && diff < cur / 8) continue;
      st.applied_rto_us = rto;
      apply.push_back({d, rto});
    }
  }
  for (const auto& a : apply) {
    tr_->set_retx_rto(place, a.dst, a.rto_us);
    rto_updates_.fetch_add(1, std::memory_order_relaxed);
    if (adjust_hook_) adjust_hook_(place, a.dst, Knob::kRetxRto, a.rto_us);
  }
}

void Autotune::tick_park(int place, PlaceState& ps) {
  Scheduler* sched = scheds_[static_cast<std::size_t>(place)];
  if (sched == nullptr) return;
  const std::uint64_t steals = sched->steals();
  const std::uint64_t overflow = sched->overflow_drained();
  // Idle is measured in park waits, not busy->idle transitions: a quiet
  // place transitions once and then parks for the rest of the window, and
  // that is the window whose ceiling must grow.
  const std::uint64_t idle = sched->parks();
  std::uint64_t next = 0;
  std::uint64_t cur = 0;
  {
    std::scoped_lock lock(ps.mu);
    const std::uint64_t work_delta =
        (steals - ps.last_steals) + (overflow - ps.last_overflow);
    const std::uint64_t idle_delta = idle - ps.last_parks;
    ps.last_steals = steals;
    ps.last_overflow = overflow;
    ps.last_parks = idle;
    cur = sched->park_ceiling_us();
    next = tune::park_next_ceiling(cur, knobs_.park_min_us, knobs_.park_max_us,
                                   work_delta, idle_delta);
  }
  if (next != cur) {
    sched->set_park_ceiling_us(next);
    park_adjusts_.fetch_add(1, std::memory_order_relaxed);
    if (adjust_hook_) adjust_hook_(place, -1, Knob::kPark, next);
  }
}

std::vector<Autotune::PairDiag> Autotune::pair_diag(int src) const {
  std::vector<PairDiag> out;
  if (src < 0 || src >= places_) return out;
  const auto& ps = *state_[static_cast<std::size_t>(src)];
  std::scoped_lock lock(ps.mu);
  for (int d = 0; d < places_; ++d) {
    const auto& st = ps.pairs[static_cast<std::size_t>(d)];
    if (st.threshold == 0 && !st.residency.primed && !st.srtt.primed) continue;
    PairDiag pd;
    pd.dst = d;
    pd.threshold =
        st.threshold != 0 ? st.threshold : knobs_.coalesce_bytes_cap;
    pd.residency_ewma_ns = st.residency.value;
    pd.srtt_us = st.srtt.srtt_ns / 1000;
    pd.rttvar_us = st.srtt.rttvar_ns / 1000;
    pd.rto_us = st.applied_rto_us;
    out.push_back(pd);
  }
  return out;
}

std::uint64_t Autotune::park_ceiling_us(int place) const {
  if (place < 0 || place >= places_) return 0;
  const Scheduler* sched = scheds_[static_cast<std::size_t>(place)];
  return sched != nullptr ? sched->park_ceiling_us() : 0;
}

}  // namespace apgas
