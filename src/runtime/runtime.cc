#include "runtime/runtime.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runtime/api.h"
#include "runtime/clocksync.h"
#include "runtime/congruent.h"
#include "runtime/launcher.h"
#include "runtime/task_registry.h"
#include "runtime/team.h"
#include "runtime/telemetry.h"
#include "runtime/trace.h"
#include "runtime/watchdog.h"
#include "x10rt/socket_backend.h"

namespace apgas {

Runtime* Runtime::current_ = nullptr;

namespace detail {
thread_local int tl_place = -1;
thread_local Activity* tl_activity = nullptr;
thread_local FinishHome* tl_open_finish = nullptr;
}  // namespace detail

// --- frame-task registry (task_registry.h) ----------------------------------

namespace {
std::vector<TaskFn>& task_registry() {
  static std::vector<TaskFn> fns;
  return fns;
}
}  // namespace

int register_task_fn(TaskFn fn) {
  auto& fns = task_registry();
  fns.push_back(std::move(fn));
  return static_cast<int>(fns.size()) - 1;
}

const TaskFn& task_fn(int id) {
  auto& fns = task_registry();
  if (id < 0 || id >= static_cast<int>(fns.size())) {
    std::fprintf(stderr,
                 "[apgas] fatal: task function id %d out of range (%d "
                 "registered) — every place process must register the same "
                 "task functions in the same order before Runtime::run\n",
                 id, static_cast<int>(fns.size()));
    std::abort();
  }
  return fns[static_cast<std::size_t>(id)];
}

int num_task_fns() { return static_cast<int>(task_registry().size()); }

// --- wire handlers for the cross-process spawn/exception paths --------------

namespace {

/// am_spawn frame: [home i32][seq u64][mode u8][credit u64][span u64]
/// [parent_span u64][src i32][t_send_ns u64][fn_id i32][args...]
void rt_am_spawn(Runtime& rt, x10rt::ByteBuffer& buf) {
  FinishKey key;
  key.home = buf.get<std::int32_t>();
  key.seq = buf.get<std::uint64_t>();
  const auto mode_raw = buf.get<std::uint8_t>();
  if (mode_raw >= static_cast<std::uint8_t>(kNumPragmas)) {
    std::fprintf(stderr, "[apgas] fatal: spawn frame with bad pragma %u\n",
                 static_cast<unsigned>(mode_raw));
    std::abort();
  }
  const auto mode = static_cast<Pragma>(mode_raw);
  const auto credit = buf.get<std::uint64_t>();
  const auto span = buf.get<std::uint64_t>();
  const auto parent_span = buf.get<std::uint64_t>();
  const auto src = buf.get<std::int32_t>();
  const auto t_send_ns = buf.get<std::uint64_t>();
  const auto fn_id = buf.get<std::int32_t>();
  const TaskFn& fn = task_fn(fn_id);  // aborts on an out-of-range wire id
  if (t_send_ns != 0 && hist::enabled()) {
    rt.record_ship_latency(t_send_ns, src);
  }
  // The task sees exactly its argument bytes from position 0 (the suffix
  // contract asyncAtFrame's local path keeps too). They are slid to the
  // front of the frame's own pooled storage rather than copied into fresh
  // storage; the activity runs inline below, and the storage goes back into
  // `buf` afterwards so the transport recycles it once this handler returns.
  const std::size_t header = buf.position();
  std::vector<std::byte> storage = buf.take_data();
  storage.erase(storage.begin(),
                storage.begin() + static_cast<std::ptrdiff_t>(header));
  x10rt::ByteBuffer args{std::move(storage)};
  Activity act;
  act.fin = fin_task_received(rt, key, mode);
  act.credit = credit;
  act.remote_origin = true;
  act.span = span;
  act.parent_span = parent_span;
  act.body = [&fn, &args] { fn(args); };
  rt.sched(here()).run_activity(act);
  buf = x10rt::ByteBuffer{args.take_data()};
}

/// am_exception frame: [home i32][seq u64][kind u8][what string] (the wire
/// codec below). Used only across processes — in-process,
/// fin_report_exception ships the original exception_ptr so tests keep exact
/// exception-type identity even for user-defined types.
void rt_am_exception(Runtime& rt, x10rt::ByteBuffer& buf) {
  FinishKey key;
  key.home = buf.get<std::int32_t>();
  key.seq = buf.get<std::uint64_t>();
  const std::exception_ptr ep = wire_decode_exception(buf);
  if (key.home != here()) {
    std::fprintf(stderr,
                 "[apgas] fatal: exception frame for place %d arrived at "
                 "place %d\n",
                 key.home, here());
    std::abort();
  }
  rt.with_home_finish(key, [&ep](FinishHome& fh) { fh.on_exception(ep); });
}

/// am_immediate frame: [fn_id i32][args...]. Runs inline on the poller, like
/// immediate_at's closure — no finish scope, no activity, no scheduler.
void rt_am_immediate(Runtime& /*rt*/, x10rt::ByteBuffer& buf) {
  const auto fn_id = buf.get<std::int32_t>();
  const TaskFn& fn = task_fn(fn_id);  // aborts on an out-of-range wire id
  fn(buf);
}

}  // namespace

// --- exception wire codec (runtime.h) ---------------------------------------

namespace {

/// Standard-exception table for the wire codec: most-derived types first so
/// the encoder's catch classification picks the tightest match. Kind 0 is
/// the degraded "unknown type, keep the what()" form.
enum class ExcKind : std::uint8_t {
  kUnknown = 0,
  kRuntimeError,
  kLogicError,
  kInvalidArgument,
  kOutOfRange,
  kLengthError,
  kDomainError,
  kOverflowError,
  kUnderflowError,
  kRangeError,
  kBadAlloc,
};

}  // namespace

void wire_encode_exception(x10rt::ByteBuffer& b, const std::exception_ptr& ep) {
  ExcKind kind = ExcKind::kUnknown;
  std::string what = "remote exception";
  try {
    std::rethrow_exception(ep);
  } catch (const std::invalid_argument& e) {
    kind = ExcKind::kInvalidArgument;
    what = e.what();
  } catch (const std::out_of_range& e) {
    kind = ExcKind::kOutOfRange;
    what = e.what();
  } catch (const std::length_error& e) {
    kind = ExcKind::kLengthError;
    what = e.what();
  } catch (const std::domain_error& e) {
    kind = ExcKind::kDomainError;
    what = e.what();
  } catch (const std::overflow_error& e) {
    kind = ExcKind::kOverflowError;
    what = e.what();
  } catch (const std::underflow_error& e) {
    kind = ExcKind::kUnderflowError;
    what = e.what();
  } catch (const std::range_error& e) {
    kind = ExcKind::kRangeError;
    what = e.what();
  } catch (const std::logic_error& e) {
    kind = ExcKind::kLogicError;
    what = e.what();
  } catch (const std::runtime_error& e) {
    kind = ExcKind::kRuntimeError;
    what = e.what();
  } catch (const std::bad_alloc& e) {
    kind = ExcKind::kBadAlloc;
    what = e.what();
  } catch (const std::exception& e) {
    what = e.what();
  } catch (...) {
  }
  b.put(static_cast<std::uint8_t>(kind));
  b.put_string(what);
}

std::exception_ptr wire_decode_exception(x10rt::ByteBuffer& b) {
  const auto kind = static_cast<ExcKind>(b.get<std::uint8_t>());
  const std::string what = b.get_string();
  switch (kind) {
    case ExcKind::kRuntimeError:
      return std::make_exception_ptr(std::runtime_error(what));
    case ExcKind::kLogicError:
      return std::make_exception_ptr(std::logic_error(what));
    case ExcKind::kInvalidArgument:
      return std::make_exception_ptr(std::invalid_argument(what));
    case ExcKind::kOutOfRange:
      return std::make_exception_ptr(std::out_of_range(what));
    case ExcKind::kLengthError:
      return std::make_exception_ptr(std::length_error(what));
    case ExcKind::kDomainError:
      return std::make_exception_ptr(std::domain_error(what));
    case ExcKind::kOverflowError:
      return std::make_exception_ptr(std::overflow_error(what));
    case ExcKind::kUnderflowError:
      return std::make_exception_ptr(std::underflow_error(what));
    case ExcKind::kRangeError:
      return std::make_exception_ptr(std::range_error(what));
    case ExcKind::kBadAlloc:
      // what() is implementation-defined for bad_alloc; keep the type.
      return std::make_exception_ptr(std::bad_alloc());
    case ExcKind::kUnknown:
      break;
  }
  return std::make_exception_ptr(std::runtime_error(what));
}

Runtime::Runtime(const Config& cfg, const launcher::SocketWiring* wiring)
    : cfg_(cfg) {
  metrics_ = std::make_unique<MetricsRegistry>();
  finc_.opened = &metrics_->counter("finish.opened");
  finc_.upgrades = &metrics_->counter("finish.upgrades");
  finc_.snapshots_sent = &metrics_->counter("finish.snapshots.sent");
  finc_.snapshots_applied = &metrics_->counter("finish.snapshots.applied");
  finc_.snapshots_stale = &metrics_->counter("finish.snapshots.stale");
  finc_.dense_batches = &metrics_->counter("finish.dense.batches");
  finc_.releases = &metrics_->counter("finish.releases");
  finc_.completion_msgs = &metrics_->counter("finish.completion_msgs");
  finc_.credit_msgs = &metrics_->counter("finish.credit_msgs");
  finc_.tasks_shipped = &metrics_->counter("runtime.tasks_shipped");
  finc_.closed = &metrics_->counter("finish.closed");
  for (int p = 0; p < kNumPragmas; ++p) {
    fin_close_hist_[static_cast<std::size_t>(p)] = &metrics_->histogram(
        std::string("finish.close_ns.") + pragma_name(static_cast<Pragma>(p)));
  }

  trace::init(cfg_.places, cfg_.trace_capacity,
              cfg_.trace || !cfg_.trace_path.empty());
  hist::set_enabled(cfg_.histograms);

  x10rt::TransportConfig tc;
  tc.places = cfg_.places;
  tc.chaos = cfg_.chaos;
  tc.count_pairs = cfg_.count_pairs;
  tc.dma_threads = cfg_.dma_threads;
  tc.coalesce_bytes = cfg_.coalesce_bytes;
  tc.coalesce_msgs = cfg_.coalesce_msgs;
  // Online tuning controller (docs/transport.md "Adaptive tuning"), built
  // before the transport so its signal sinks can ride the hooks below. With
  // APGAS_AUTOTUNE unset no controller exists: no tick/rtt hook is installed,
  // no dynamic threshold or timer is ever written, and the transport runs
  // its static configuration bit-for-bit.
  if (cfg_.autotune > 0) {
    Autotune::Knobs kn;
    kn.residency_budget_us = cfg_.autotune_residency_budget_us;
    kn.coalesce_bytes_cap = cfg_.coalesce_bytes;
    kn.retx_timeout_us = cfg_.retx_timeout_us;
    kn.retx_backoff_max_us = cfg_.retx_backoff_max_us;
    kn.park_min_us = cfg_.park_backoff_min_us;
    kn.park_max_us = cfg_.park_backoff_max_us;
    autotune_ = std::make_unique<Autotune>(cfg_.places, kn);
    autotune_->set_adjust_hook([](int place, int dst, Autotune::Knob knob,
                                  std::uint64_t value) {
      trace::emit_at(place, trace::Ev::kAutotuneAdjust, value,
                     (static_cast<std::uint64_t>(knob) << 32) |
                         static_cast<std::uint32_t>(dst));
    });
  }
  Autotune* at = autotune_.get();
  // The transport stays runtime-agnostic; it reports envelope flushes
  // through this hook and the runtime forwards them to the flight recorder,
  // the envelope-residency histogram, and (when armed) the controller.
  Histogram* env_hist = &metrics_->histogram("envelope.residency_ns");
  tc.flush_hook = [env_hist, at](int src, int dst, std::uint32_t records,
                                 x10rt::FlushReason reason,
                                 std::uint64_t residency_ns) {
    trace::emit_at(src, trace::Ev::kCoalesceFlush,
                   static_cast<std::uint64_t>(records),
                   (static_cast<std::uint64_t>(reason) << 32) |
                       static_cast<std::uint32_t>(dst));
    if (residency_ns != 0 && hist::enabled()) env_hist->record(residency_ns);
    if (at != nullptr) at->on_flush(src, dst, records, reason, residency_ns);
  };
  if (at != nullptr) {
    tc.tick_hook = [at](int place) { at->maybe_tick(place); };
  }
  // Reliability sublayer knobs + observability hooks (docs/transport.md
  // "Reliability"): timeouts land in the flight recorder, ack latencies of
  // retransmitted sequences in the retx.ack_latency_ns histogram.
  tc.retx_timeout_us = cfg_.retx_timeout_us;
  tc.retx_backoff_max_us = cfg_.retx_backoff_max_us;
  tc.retx_ack_idle_us = cfg_.retx_ack_idle_us;
  if (cfg_.retx_timeout_us > 0) {
    tc.retx_timeout_hook = [](int src, int dst, std::uint64_t seq,
                              std::uint32_t attempt) {
      trace::emit_at(src, trace::Ev::kRetxTimeout, seq,
                     (static_cast<std::uint64_t>(attempt) << 32) |
                         static_cast<std::uint32_t>(dst));
    };
    Histogram* retx_hist = &metrics_->histogram("retx.ack_latency_ns");
    tc.retx_acked_hook = [retx_hist](int /*src*/, int /*dst*/,
                                     std::uint64_t latency_ns,
                                     std::uint32_t /*attempts*/) {
      if (hist::enabled()) retx_hist->record(latency_ns);
    };
    if (at != nullptr) {
      // First-transmission ack latencies (Karn-filtered by the transport)
      // feed the per-pair SRTT estimators.
      tc.rtt_sample_hook = [at](int src, int dst, std::uint64_t rtt_ns) {
        at->on_rtt_sample(src, dst, rtt_ns);
      };
    }
  }
  transport_ = std::make_unique<x10rt::Transport>(tc);
  if (autotune_ != nullptr) autotune_->attach_transport(transport_.get());
  if (wiring != nullptr) local_place_ = wiring->place;
  hist_ship_frame_ = &metrics_->histogram("task.ship_ns");
  hist_ship_xproc_ = &metrics_->histogram("task.ship_xproc_ns");
  hist_ship_xproc_aligned_ = &metrics_->histogram("task.ship_xproc_aligned_ns");
  register_transport_gauges();

  pstates_.reserve(static_cast<std::size_t>(cfg_.places));
  for (int p = 0; p < cfg_.places; ++p) {
    auto ps = std::make_unique<PlaceState>();
    ps->sched = std::make_unique<Scheduler>(*this, p);
    if (autotune_ != nullptr) autotune_->attach_scheduler(p, ps->sched.get());
    pstates_.push_back(std::move(ps));
  }

  congruent_ = std::make_unique<CongruentSpace>(
      *transport_, cfg_.places, cfg_.congruent_bytes,
      cfg_.congruent_large_pages);

  // Finish wire-protocol handlers: (handler id, serialized payload) frames,
  // the real X10RT active-message model. Implementations in finish.cc.
  Runtime* self = this;
  am_snapshot_ = transport_->register_am(
      [self](x10rt::ByteBuffer& buf) { fin_am_snapshot(*self, buf); });
  am_dense_relay_ = transport_->register_am(
      [self](x10rt::ByteBuffer& buf) { fin_am_dense_relay(*self, buf); });
  am_release_ = transport_->register_am(
      [self](x10rt::ByteBuffer& buf) { fin_am_release(*self, buf); });
  am_completions_ = transport_->register_am(
      [self](x10rt::ByteBuffer& buf) { fin_am_completions(*self, buf); });
  am_credit_ = transport_->register_am(
      [self](x10rt::ByteBuffer& buf) { fin_am_credit(*self, buf); });
  // Cross-process paths (frame spawns, serialized exceptions, shutdown
  // broadcast). Registered after the finish AMs so the finish wire protocol
  // keeps its ids; registration order is identical in every place process.
  am_spawn_ = transport_->register_am(
      [self](x10rt::ByteBuffer& buf) { rt_am_spawn(*self, buf); });
  am_exception_ = transport_->register_am(
      [self](x10rt::ByteBuffer& buf) { rt_am_exception(*self, buf); });
  am_shutdown_ = transport_->register_am([self](x10rt::ByteBuffer&) {
    self->shutdown_.store(true, std::memory_order_release);
    self->transport_->notify(here());
  });
  // Immediate frames (ISSUE 10): registered last so every pre-existing wire
  // id is unchanged.
  am_immediate_ = transport_->register_am(
      [self](x10rt::ByteBuffer& buf) { rt_am_immediate(*self, buf); });

  // Attach the wire backend only now that every AM is registered: the
  // backend's I/O thread starts delivering peer frames immediately, and a
  // fast peer must never race a frame past an incomplete handler table.
  if (wiring != nullptr) {
    transport_->attach_backend(std::make_unique<x10rt::SocketBackend>(
                                   wiring->place, wiring->peer_fds),
                               wiring->place);
  }
}

Runtime::~Runtime() = default;

void Runtime::register_transport_gauges() {
  // The x10rt transport keeps its own tallies (it must stay runtime-
  // agnostic); expose them as lazily-read gauges under one namespace.
  x10rt::Transport* tr = transport_.get();
  for (int t = 0; t < x10rt::kNumMsgTypes; ++t) {
    const auto type = static_cast<x10rt::MsgType>(t);
    const std::string cls = x10rt::msg_type_name(type);
    metrics_->add_gauge("transport.msgs." + cls,
                        [tr, type] { return tr->count(type); });
    metrics_->add_gauge("transport.bytes." + cls,
                        [tr, type] { return tr->bytes(type); });
  }
  metrics_->add_gauge("transport.msgs.total",
                      [tr] { return tr->total_messages(); });
  metrics_->add_gauge("transport.rdma.ops", [tr] { return tr->rdma_ops(); });
  metrics_->add_gauge("transport.rdma.bytes",
                      [tr] { return tr->rdma_bytes(); });
  if (cfg_.count_pairs) {
    metrics_->add_gauge("transport.out_degree.max", [tr] {
      return static_cast<std::uint64_t>(tr->max_out_degree());
    });
    metrics_->add_gauge("transport.out_degree.ctrl", [tr] {
      return static_cast<std::uint64_t>(tr->max_ctrl_out_degree());
    });
  }
  metrics_->add_gauge("trace.events", [] { return trace::total_events(); });

  // Sender-side coalescing layer + wire-buffer pool (docs/transport.md).
  metrics_->add_gauge("transport.coalesce.envelopes",
                      [tr] { return tr->coalesce_envelopes(); });
  metrics_->add_gauge("transport.coalesce.records",
                      [tr] { return tr->coalesce_records(); });
  metrics_->add_gauge("transport.coalesce.wire_bytes",
                      [tr] { return tr->coalesce_wire_bytes(); });
  metrics_->add_gauge("transport.coalesce.bypass",
                      [tr] { return tr->coalesce_bypass(); });
  for (int r = 0; r < x10rt::kNumFlushReasons; ++r) {
    const auto reason = static_cast<x10rt::FlushReason>(r);
    metrics_->add_gauge(
        std::string("transport.coalesce.flush.") +
            x10rt::flush_reason_name(reason),
        [tr, reason] { return tr->coalesce_flushes(reason); });
  }
  // Wire-buffer pool books, summed over the per-place shards.
  metrics_->add_gauge("transport.pool.hits",
                      [tr] { return tr->pool().totals().hits; });
  metrics_->add_gauge("transport.pool.misses",
                      [tr] { return tr->pool().totals().misses; });
  metrics_->add_gauge("transport.pool.recycled",
                      [tr] { return tr->pool().totals().recycled; });
  metrics_->add_gauge("transport.pool.dropped",
                      [tr] { return tr->pool().totals().dropped; });
  metrics_->add_gauge("transport.pool.refills",
                      [tr] { return tr->pool().totals().refill_in; });

  // Reliability sublayer + chaos injection (docs/transport.md "Reliability").
  metrics_->add_gauge("transport.retx.sent", [tr] { return tr->retx_sent(); });
  metrics_->add_gauge("transport.retx.acked",
                      [tr] { return tr->retx_acked(); });
  metrics_->add_gauge("transport.retx.retransmits",
                      [tr] { return tr->retx_retransmits(); });
  metrics_->add_gauge("transport.retx.dups_dropped",
                      [tr] { return tr->retx_dups_dropped(); });
  metrics_->add_gauge("transport.retx.standalone_acks",
                      [tr] { return tr->retx_standalone_acks(); });
  metrics_->add_gauge("transport.chaos.dropped",
                      [tr] { return tr->chaos_dropped(); });
  metrics_->add_gauge("transport.chaos.duped",
                      [tr] { return tr->chaos_duped(); });
  metrics_->add_gauge("transport.chaos.bypass",
                      [tr] { return tr->chaos_bypass(); });

  // Wire backend (docs/transport.md "Backends"): all zero for the in-process
  // backend, frame/byte tallies of the socket mesh otherwise.
  metrics_->add_gauge("transport.backend.frames_sent",
                      [tr] { return tr->backend_stats().frames_sent; });
  metrics_->add_gauge("transport.backend.frames_received",
                      [tr] { return tr->backend_stats().frames_received; });
  metrics_->add_gauge("transport.backend.bytes_sent",
                      [tr] { return tr->backend_stats().bytes_sent; });
  metrics_->add_gauge("transport.backend.bytes_received",
                      [tr] { return tr->backend_stats().bytes_received; });

  // Online tuning controller (docs/transport.md "Adaptive tuning"). Only
  // registered when armed so a static run's metrics dump is unchanged.
  if (autotune_ != nullptr) {
    Autotune* at = autotune_.get();
    metrics_->add_gauge("autotune.ticks", [at] { return at->ticks(); });
    metrics_->add_gauge("autotune.adjust.up", [at] { return at->adjust_up(); });
    metrics_->add_gauge("autotune.adjust.down",
                        [at] { return at->adjust_down(); });
    metrics_->add_gauge("autotune.rto_updates",
                        [at] { return at->rto_updates(); });
    metrics_->add_gauge("autotune.rtt_samples",
                        [at] { return at->rtt_samples(); });
    metrics_->add_gauge("autotune.park_adjusts",
                        [at] { return at->park_adjusts(); });
  }

  // Hierarchical Team collectives (docs/collectives.md): levels/leaders
  // describe the most recently built hierarchy, chunks/chunk_bytes tally
  // fragments forwarded along leader-tree edges.
  auto& hs = team_detail::hier_stats();
  metrics_->add_gauge("team.hier.levels", [&hs] {
    return hs.levels.load(std::memory_order_relaxed);
  });
  metrics_->add_gauge("team.hier.leaders", [&hs] {
    return hs.leaders.load(std::memory_order_relaxed);
  });
  metrics_->add_gauge("team.hier.chunks", [&hs] {
    return hs.chunks.load(std::memory_order_relaxed);
  });
  metrics_->add_gauge("team.hier.chunk_bytes", [&hs] {
    return hs.chunk_bytes.load(std::memory_order_relaxed);
  });
}

void Runtime::finalize_observability() {
  // Drain whatever the chaos queues still hold before taking the snapshot.
  // The job is quiescent (workers joined), but chaos can park control
  // messages — e.g. a superseded finish snapshot — past the moment the root
  // finish closes. Running their handlers here lets them be classified
  // (applied/stale) instead of vanishing with the inboxes, which is what
  // makes `snapshots.sent == applied + stale` an exact teardown invariant.
  const int saved_place = detail::tl_place;
  for (bool progressed = true; progressed;) {
    progressed = false;
    for (int p = 0; p < cfg_.places; ++p) {
      if (!place_is_local(p)) continue;
      detail::tl_place = p;
      // A handler run by step() may have parked small AMs in a coalescing
      // envelope; ship them so the drain reaches a true fixpoint.
      if (transport_->flush_coalesced(p, x10rt::FlushReason::kQuiesce) > 0) {
        progressed = true;
      }
      // Reliability fixpoint: force-retransmit every unacked entry and ship
      // every owed ack. The force pump reports > 0 while any entry is
      // unacked, so the drain cannot stop before the all-acked state — and
      // an ack-only message never creates new debt, so it does terminate.
      if (transport_->retx_pump(p, /*force=*/true) > 0) progressed = true;
      while (sched(p).step()) progressed = true;
    }
  }
  assert(transport_->retx_quiescent() &&
         "teardown drain must reach the all-acked fixpoint");
  detail::tl_place = saved_place;
  detail::store_last_metrics(metrics_->snapshot());
  hist::set_enabled(false);
  if (!cfg_.metrics_path.empty()) metrics_->write(cfg_.metrics_path);
  if (!cfg_.trace_path.empty()) trace::write_chrome_json(cfg_.trace_path);
  trace::shutdown();
}

void Runtime::worker_loop(int place, int wid) {
  detail::tl_place = place;
  sched(place).bind_worker(wid);
  sched(place).run_until(
      [this] { return shutdown_.load(std::memory_order_acquire); });
  // Unbinding also drains the worker's private message batch (chaos
  // stragglers delivered past the root finish) so teardown stays exact.
  sched(place).unbind_worker();
  detail::tl_place = -1;
}

void Runtime::run(const Config& cfg, std::function<void()> main) {
  assert(current_ == nullptr && "only one APGAS runtime may be live");
  if (cfg.backend == BackendKind::kSocket && cfg.places > 1) {
    // Places become separate processes. Fork the mesh *before* any Runtime
    // (and its transport/DMA threads) exists; each child constructs its own
    // Runtime in run_child and this process only supervises.
    launcher::run_places(cfg, std::move(main));
    return;
  }
  Runtime rt(cfg);
  current_ = &rt;

  // Bootstrap: `main` executes at place 0 under the root finish; all other
  // places start idle (paper §2.1). Shutdown is announced once the root
  // finish has terminated, at which point the whole job has quiesced.
  Activity boot;
  boot.body = [&rt, m = std::move(main)] {
    finish(Pragma::kAuto, m);
    rt.shutdown_.store(true, std::memory_order_release);
    for (int p = 0; p < rt.places(); ++p) rt.transport().notify(p);
  };
  rt.sched(0).push(std::move(boot));

  // Live telemetry (in-process flavour): one sampler over the shared
  // registry, place -1 ("whole job"), appended straight to the JSONL file —
  // there is no supervisor to stream through.
  std::unique_ptr<telemetry::JsonlWriter> tlog;
  std::unique_ptr<Telemetry> tele;
  if (cfg.telemetry_interval_ms > 0) {
    const std::string path = cfg.telemetry_path.empty()
                                 ? std::string("apgas_telemetry.jsonl")
                                 : cfg.telemetry_path;
    tlog = std::make_unique<telemetry::JsonlWriter>(path);
    telemetry::JsonlWriter* w = tlog.get();
    tele = std::make_unique<Telemetry>(
        rt.metrics(), /*place=*/-1, cfg.telemetry_interval_ms,
        cfg.telemetry_keys,
        [w](const std::string& line) { w->append(line); });
    tele->start();
  }

  // The stall watchdog samples progress counters from outside the worker
  // pool; it must stop before finalize_observability tears the trace down.
  std::unique_ptr<Watchdog> watchdog;
  if (cfg.watchdog_interval_ms > 0) {
    watchdog = std::make_unique<Watchdog>(
        rt, std::chrono::milliseconds(cfg.watchdog_interval_ms),
        cfg.watchdog_stall_intervals > 0 ? cfg.watchdog_stall_intervals : 1);
    if (tlog) {
      // Mirror diagnoses into the telemetry stream (apgas_top flags them)
      // while keeping the stderr report.
      telemetry::JsonlWriter* w = tlog.get();
      watchdog->set_report_sink([w](const std::string& r) {
        std::fwrite(r.data(), 1, r.size(), stderr);
        std::fflush(stderr);
        w->append(
            telemetry::wrap_watchdog(-1, clocksync::now_ns() / 1000000, r));
      });
    }
    watchdog->start();
  }

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(cfg.places) *
                  cfg.workers_per_place);
  for (int p = 0; p < cfg.places; ++p) {
    for (int w = 0; w < cfg.workers_per_place; ++w) {
      workers.emplace_back([&rt, p, w] { rt.worker_loop(p, w); });
    }
  }
  for (auto& t : workers) t.join();
  if (watchdog) watchdog->stop();
  if (tele) tele->stop();
  rt.finalize_observability();
  team_detail::registry_clear();
  current_ = nullptr;
}

bool Runtime::drain_local_pass() {
  const int p = local_place_;
  bool progressed = false;
  if (transport_->flush_coalesced(p, x10rt::FlushReason::kQuiesce) > 0) {
    progressed = true;
  }
  // Non-force pump: retransmits respect their timers and owed acks ship
  // once aged (retx_ack_idle_us), so two peers looping this cannot feed
  // each other a force-retransmit storm while they wait on the barrier.
  if (transport_->retx_pump(p, /*force=*/false) > 0) progressed = true;
  while (sched(p).step()) progressed = true;
  transport_->backend_flush();
  return progressed;
}

void Runtime::drain_local_fixpoint() {
  const int p = local_place_;
  for (;;) {
    if (drain_local_pass()) continue;
    if (transport_->retx_quiescent() && transport_->recv_all_acked(p) &&
        transport_->inbox_depth(p) == 0 && transport_->backend_tx_drained()) {
      return;
    }
    // Waiting on a peer's ack or retransmit; the backend I/O thread will
    // deliver it — don't burn the core.
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

int Runtime::run_child(const Config& cfg, std::function<void()> main,
                       const launcher::SocketWiring& wiring) {
  assert(current_ == nullptr && "only one APGAS runtime may be live");
  Config c = cfg;
  // Socket mode always arms reliability: cross-process teardown is defined
  // as the all-acked fixpoint, which needs acks to exist. (Chaos drop/dup
  // would force this anyway; a clean wire just inherits the same contract.)
  if (c.retx_timeout_us == 0) c.retx_timeout_us = 1000;
  // Per-place metrics files so the place processes don't clobber one
  // another; the parent writes the aggregate under the original name. Traces
  // are different: the child keeps the flight recorder armed but writes no
  // file of its own — it ships the raw event blob over the control socket
  // and the supervisor writes the single clock-rebased merged trace.
  c.metrics_path = launcher::per_place_path(cfg.metrics_path, wiring.place);
  if (!cfg.trace_path.empty()) c.trace = true;
  c.trace_path.clear();

  Runtime rt(c, &wiring);
  current_ = &rt;
  const int p = wiring.place;
  detail::tl_place = p;

  // Attach clock handshake: answer the supervisor's Cristian probes and arm
  // the offset table before any worker starts, so the very first aligned
  // ship-latency sample already has offsets to use. (Inbound task frames can
  // queue during the handshake, but they only execute on workers.)
  clocksync::set_offsets(launcher::child_clock_handshake(wiring.ctrl_fd,
                                                         c.places));
  launcher::CtrlChannel ctrl(wiring.ctrl_fd);

  if (p == 0) {
    Activity boot;
    Runtime* rtp = &rt;
    boot.body = [rtp, m = std::move(main)] {
      finish(Pragma::kAuto, m);
      // The root finish closed: the job is over. Tell every other place
      // process, then stop locally.
      for (int q = 1; q < rtp->places(); ++q) {
        rtp->transport().send_am(0, q, rtp->am_shutdown_,
                                 rtp->transport().acquire_buffer(0),
                                 x10rt::MsgType::kControl);
      }
      rtp->transport().flush_coalesced(0, x10rt::FlushReason::kQuiesce);
      rtp->shutdown_.store(true, std::memory_order_release);
      rtp->transport().notify(0);
    };
    rt.sched(0).push(std::move(boot));
  }

  std::unique_ptr<Watchdog> watchdog;
  if (c.watchdog_interval_ms > 0) {
    watchdog = std::make_unique<Watchdog>(
        rt, std::chrono::milliseconds(c.watchdog_interval_ms),
        c.watchdog_stall_intervals > 0 ? c.watchdog_stall_intervals : 1);
    // Under the socket backend a stderr diagnosis from one place interleaves
    // with three others'; ship it to the supervisor instead, which prints it
    // place-labelled and mirrors it into the telemetry JSONL.
    watchdog->set_report_sink(
        [&ctrl](const std::string& r) { ctrl.send_frame('W', r); });
    watchdog->start();
  }

  std::unique_ptr<Telemetry> tele;
  if (c.telemetry_interval_ms > 0) {
    tele = std::make_unique<Telemetry>(
        rt.metrics(), p, c.telemetry_interval_ms, c.telemetry_keys,
        [&ctrl](const std::string& line) { ctrl.send_frame('T', line); });
    tele->start();
  }

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(c.workers_per_place));
  for (int w = 0; w < c.workers_per_place; ++w) {
    workers.emplace_back([&rt, p, w] { rt.worker_loop(p, w); });
  }
  for (auto& t : workers) t.join();
  if (watchdog) watchdog->stop();
  // Stop the sampler (it emits one final frame) before 'Q': after 'Q' the
  // only upstream traffic may be the drift-probe echoes and then 'M'/'R'.
  if (tele) tele->stop();

  // Quiescence barrier: drain to the local all-acked fixpoint, report 'Q',
  // then keep serving retransmits/acks for slower peers until the
  // supervisor releases everyone with 'G' (answering drift-phase clock
  // probes along the way).
  rt.drain_local_fixpoint();
  ctrl.send_frame('Q', {});
  while (!launcher::child_poll_go(wiring.ctrl_fd)) {
    rt.drain_local_pass();
  }

  // Capture the flight recorder *before* finalize_observability shuts it
  // down; the supervisor rebases these events into its own clock domain and
  // merges all places into one Perfetto file.
  std::string trace_blob;
  if (trace::enabled()) {
    trace_blob = trace::encode_events(trace::epoch_abs_ns(),
                                      trace::drain_all());
  }
  rt.finalize_observability();
  std::string blob;
  for (const auto& [k, v] : last_run_metrics()) {
    blob += k;
    blob += ' ';
    blob += std::to_string(v);
    blob += '\n';
  }
  ctrl.send_frame('M', blob);
  ctrl.send_frame('R', trace_blob);
  clocksync::clear_offsets();
  team_detail::registry_clear();
  current_ = nullptr;
  detail::tl_place = -1;
  return 0;
}

void Runtime::record_ship_latency(std::uint64_t t_send_ns, int src) {
  const std::uint64_t now = hist::now_ns();
  const std::uint64_t lat = ship_latency_ns(now, t_send_ns);
  if (multi_process()) {
    hist_ship_xproc_->record(lat);
    if (src >= 0 && clocksync::armed()) {
      hist_ship_xproc_aligned_->record(
          clocksync::aligned_ship_ns(now, local_place_, t_send_ns, src));
    }
  } else {
    hist_ship_frame_->record(lat);
  }
}

x10rt::ByteBuffer Runtime::open_task_frame() {
  x10rt::ByteBuffer frame = transport_->acquire_buffer(here());
  static constexpr std::byte kZeros[kTaskFrameHeaderBytes] = {};
  frame.put_raw(kZeros, sizeof kZeros);
  return frame;
}

void Runtime::send_task_frame(int dst, int fn_id, x10rt::ByteBuffer frame,
                              const FinCtx& ctx, std::uint64_t credit,
                              std::uint64_t span, std::uint64_t parent_span) {
  finc_.tasks_shipped->fetch_add(1, std::memory_order_relaxed);
  trace::emit(trace::Ev::kMsgSend,
              static_cast<std::uint64_t>(x10rt::MsgType::kTask),
              static_cast<std::uint64_t>(dst));
  // The header slot open_task_frame reserved, in rt_am_spawn's layout. The
  // ship-time stamp and the sending place travel inside the frame (not on
  // the Message) so they survive coalescing into an envelope train; the
  // source place lets the receiver pick the right clock offset for the
  // aligned ship-latency sample.
  std::size_t at = 0;
  auto fill = [&frame, &at](const auto v) {
    frame.overwrite(at, v);
    at += sizeof v;
  };
  fill(static_cast<std::int32_t>(ctx.key.home));
  fill(static_cast<std::uint64_t>(ctx.key.seq));
  fill(static_cast<std::uint8_t>(ctx.mode));
  fill(credit);
  fill(span);
  fill(parent_span);
  fill(static_cast<std::int32_t>(here()));
  fill(static_cast<std::uint64_t>(hist::enabled() ? hist::now_ns() : 0));
  fill(static_cast<std::int32_t>(fn_id));
  assert(at == kTaskFrameHeaderBytes);
  transport_->send_am(here(), dst, am_spawn_, std::move(frame),
                      x10rt::MsgType::kTask);
}

x10rt::ByteBuffer Runtime::open_immediate_frame(int fn_id,
                                                std::size_t args_bytes) {
  std::vector<std::byte> storage;
  storage.reserve(sizeof(std::int32_t) + args_bytes);
  x10rt::ByteBuffer frame{std::move(storage)};
  frame.put<std::int32_t>(fn_id);
  return frame;
}

void Runtime::send_immediate_frame(int dst, x10rt::ByteBuffer frame,
                                   x10rt::MsgType type) {
  // Mirrors immediate_at's accounting exactly: a trace event plus the
  // transport's own per-class tallies — no tasks_shipped bump, no
  // ship-latency stamp (run_diff relies on ship-histogram count ==
  // tasks_shipped).
  trace::emit(trace::Ev::kMsgSend, static_cast<std::uint64_t>(type),
              static_cast<std::uint64_t>(dst));
  transport_->send_am(here(), dst, am_immediate_, std::move(frame), type);
  // Immediates are rendezvous traffic: the caller typically blocks for the
  // peer's reply *inside an activity* (Team barrier, a GLB steal wait), so
  // the scheduler's idle-hook flush may never run on this worker. Parking
  // the frame in a half-full envelope would deadlock the exchange — cut the
  // sender's envelopes now (the other half of the no-deadlock coalescing
  // contract; docs/transport.md).
  transport_->flush_coalesced(here(), x10rt::FlushReason::kImmediate);
}

void Runtime::check_closure_can_reach(int dst) const {
  if (multi_process() && dst != local_place_) {
    std::fprintf(stderr,
                 "[apgas] fatal: closure spawn (asyncAt/at) to place %d "
                 "cannot cross a process boundary under the socket backend; "
                 "register the body (register_task_fn) and spawn it with "
                 "asyncAtFrame\n",
                 dst);
    std::abort();
  }
}

void Runtime::send_task(int dst, std::function<void()> body, const FinCtx& ctx,
                        std::uint64_t credit, std::uint64_t span,
                        std::uint64_t parent_span) {
  // Backstop only: api.h's spawn sites call check_closure_can_reach before
  // any finish bookkeeping mutates, so this should be unreachable.
  check_closure_can_reach(dst);
  finc_.tasks_shipped->fetch_add(1, std::memory_order_relaxed);
  trace::emit(trace::Ev::kMsgSend,
              static_cast<std::uint64_t>(x10rt::MsgType::kTask),
              static_cast<std::uint64_t>(dst));
  x10rt::Message m;
  m.src = here();
  m.type = x10rt::MsgType::kTask;
  // Closure environments are not literally serialized in-process; account a
  // nominal envelope so message-volume stats stay meaningful.
  m.bytes = 64;
  if (hist::enabled()) m.t_send_ns = hist::now_ns();
  Runtime* rt = this;
  m.run = [rt, body = std::move(body), key = ctx.key, mode = ctx.mode, credit,
           span, parent_span]() mutable {
    Activity act;
    act.fin = fin_task_received(*rt, key, mode);
    act.body = std::move(body);
    act.credit = credit;
    act.remote_origin = true;
    act.span = span;
    act.parent_span = parent_span;
    rt->sched(here()).run_activity(act);
  };
  transport_->send(dst, std::move(m));
}

void Runtime::send_ctrl(int dst, std::function<void()> fn, std::size_t bytes) {
  trace::emit(trace::Ev::kMsgSend,
              static_cast<std::uint64_t>(x10rt::MsgType::kControl),
              static_cast<std::uint64_t>(dst));
  x10rt::Message m;
  m.src = detail::tl_place;  // may be -1 (DMA completion threads)
  m.type = x10rt::MsgType::kControl;
  m.bytes = bytes;
  m.run = std::move(fn);
  transport_->send(dst, std::move(m));
}

bool Runtime::with_home_finish(FinishKey key,
                               const std::function<void(FinishHome&)>& fn) {
  assert(here() == key.home && "home-registry lookups run at the home place");
  auto& ps = pstate(key.home);
  std::scoped_lock lock(ps.fin_mu);
  auto it = ps.home_finishes.find(key.seq);
  if (it == ps.home_finishes.end()) return false;  // late; finish released
  fn(*it->second);
  return true;
}

FinCtx current_spawn_ctx() {
  if (detail::tl_open_finish != nullptr) {
    FinCtx ctx;
    ctx.home = detail::tl_open_finish;
    ctx.key = detail::tl_open_finish->key();
    ctx.mode = detail::tl_open_finish->mode();
    return ctx;
  }
  assert(detail::tl_activity != nullptr &&
         (detail::tl_activity->fin.home != nullptr ||
          detail::tl_activity->fin.key.valid()) &&
         "spawn outside of any finish scope");
  return detail::tl_activity->fin;
}

}  // namespace apgas
