// The user-facing APGAS API (paper §2): finish / async / at, GlobalRef,
// PlaceLocal. These are free functions usable from inside any activity.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/congruent.h"
#include "runtime/finish.h"
#include "runtime/runtime.h"
#include "runtime/task_registry.h"
#include "runtime/trace.h"

namespace apgas {

/// `finish S` with an explicit implementation pragma (paper §3.1). The body
/// runs inline in the current activity; wait() blocks (cooperatively) until
/// every transitively spawned activity has terminated. Exceptions from the
/// body and from governed activities are rethrown here (body's first).
inline void finish(Pragma pragma, const std::function<void()>& body) {
  Runtime& rt = Runtime::get();
  FinishHome fh(rt, pragma);
  FinishHome* prev = detail::tl_open_finish;
  detail::tl_open_finish = &fh;
  std::exception_ptr body_ex;
  try {
    body();
  } catch (...) {
    body_ex = std::current_exception();
  }
  detail::tl_open_finish = prev;
  fh.wait();
  if (body_ex) std::rethrow_exception(body_ex);
}

/// Plain `finish S`: starts as a place-local counter and upgrades to the
/// distributed default protocol on the first remote spawn.
inline void finish(const std::function<void()>& body) {
  finish(Pragma::kAuto, body);
}

/// Runs `body` under a general finish and reports which specialized
/// implementation its observed pattern matches — the §3.1 implementation-
/// selection analysis as a profiling tool. Use it to decide which pragma to
/// annotate a hot finish with.
inline Pragma profile_finish(const std::function<void()>& body) {
  Runtime& rt = Runtime::get();
  FinishHome fh(rt, Pragma::kDefault);
  FinishHome* prev = detail::tl_open_finish;
  detail::tl_open_finish = &fh;
  std::exception_ptr body_ex;
  try {
    body();
  } catch (...) {
    body_ex = std::current_exception();
  }
  detail::tl_open_finish = prev;
  fh.wait();
  if (body_ex) std::rethrow_exception(body_ex);
  return fh.recommended_pragma();
}

/// `async S`: spawns a local activity under the innermost enclosing finish.
inline void async(std::function<void()> f) {
  Runtime& rt = Runtime::get();
  FinCtx ctx = current_spawn_ctx();
  Activity act;
  act.body = std::move(f);
  act.fin = ctx;
  if (trace::enabled()) {
    // Span ids are minted only when tracing is live; untraced runs keep
    // span 0 everywhere and pay nothing beyond the enabled() load.
    act.span = rt.new_span(here());
    act.parent_span = current_span();
    trace::emit(trace::Ev::kActivitySpawn, act.span,
                static_cast<std::uint64_t>(here()));  // remote bit 32 = 0
  }
  if (ctx.home != nullptr) {
    const bool parent_credit = detail::tl_open_finish == nullptr &&
                               detail::tl_activity != nullptr &&
                               detail::tl_activity->credit != 0 &&
                               ctx.home->mode() == Pragma::kHere;
    if (parent_credit) {
      // FINISH_HERE: children of credit-carrying activities take a share of
      // the parent's weight (see kCreditUnit in activity.h).
      act.credit = take_credit_share(*detail::tl_activity);
    } else {
      ctx.home->local_spawn();
    }
  } else {
    switch (ctx.mode) {
      case Pragma::kDefault:
      case Pragma::kDense:
        fin_remote_local_spawn(rt, ctx);
        break;
      case Pragma::kHere:
        act.credit = take_credit_share(*detail::tl_activity);
        break;
      default:
        assert(false &&
               "FINISH_ASYNC/FINISH_SPMD remote activities must not spawn "
               "under the governing finish");
    }
  }
  rt.sched(here()).push(std::move(act));
}

namespace detail {

/// What the remote-spawn bookkeeping produces: the wire finish context (home
/// pointer stripped — resolved at the destination), the FINISH_HERE credit
/// travelling with the task, and the causal span pair. Shared by asyncAt
/// (closure path) and asyncAtFrame (registered-function path).
struct RemoteSpawn {
  FinCtx wire;
  std::uint64_t credit = 0;
  std::uint64_t span = 0;
  std::uint64_t parent_span = 0;
};

inline RemoteSpawn prepare_remote_spawn(Runtime& rt, int p) {
  RemoteSpawn rs;
  if (trace::enabled()) {
    rs.span = rt.new_span(here());
    rs.parent_span = current_span();
    trace::emit(trace::Ev::kActivitySpawn, rs.span,
                (1ull << 32) | static_cast<std::uint32_t>(p));
  }
  FinCtx ctx = current_spawn_ctx();
  if (ctx.home != nullptr) {
    const bool parent_credit = detail::tl_open_finish == nullptr &&
                               detail::tl_activity != nullptr &&
                               detail::tl_activity->credit != 0;
    ctx.home->remote_spawn(p);
    ctx.mode = ctx.home->mode();  // may have upgraded kAuto -> kDefault
    if (ctx.mode == Pragma::kHere) {
      // Spawns from the finish body mint fresh weight; spawns from a
      // credit-carrying activity split the parent's weight.
      rs.credit = parent_credit ? take_credit_share(*detail::tl_activity)
                                : ctx.home->mint_credit();
    }
  } else {
    if (fin_before_remote_spawn(rt, ctx, p,
                                detail::tl_activity->credit != 0)) {
      rs.credit = take_credit_share(*detail::tl_activity);
    }
  }
  rs.wire = ctx;
  rs.wire.home = nullptr;  // resolved at the destination
  return rs;
}

/// The remote half of every frame spawn (p != here()): `encode` writes the
/// task's args straight into the pooled spawn frame after its header, so a
/// spawn is encoded exactly once into one buffer. The args are encoded
/// before prepare_remote_spawn touches the finish books, so an encoder that
/// throws leaves them as they were.
template <typename Encode>
void ship_frame_spawn(int p, int fn_id, Encode&& encode) {
  Runtime& rt = Runtime::get();
  x10rt::ByteBuffer frame = rt.open_task_frame();
  encode(frame);
  const RemoteSpawn rs = prepare_remote_spawn(rt, p);
  rt.send_task_frame(p, fn_id, std::move(frame), rs.wire, rs.credit, rs.span,
                     rs.parent_span);
}

}  // namespace detail

/// `at(p) async S`: active message — spawns an activity at place p under the
/// innermost enclosing finish. Non-blocking.
inline void asyncAt(int p, std::function<void()> f) {
  Runtime& rt = Runtime::get();
  if (p == here()) {
    async(std::move(f));
    return;
  }
  // Closures cannot cross a process boundary; fail *before*
  // prepare_remote_spawn mints credit / remote_spawn state so the abort
  // leaves the finish books untouched (diagnosable, recoverable-in-principle).
  rt.check_closure_can_reach(p);
  detail::RemoteSpawn rs = detail::prepare_remote_spawn(rt, p);
  rt.send_task(p, std::move(f), rs.wire, rs.credit, rs.span, rs.parent_span);
}

/// `at(p) async S` for a *registered* task function (task_registry.h) plus
/// serialized args — the only spawn form that crosses a process boundary
/// under the socket backend (a closure's environment has no wire form).
/// In-process it ships the same wire frame through the same handler, so code
/// written against frames behaves identically on both backends.
inline void asyncAtFrame(int p, int fn_id, x10rt::ByteBuffer args = {}) {
  if (p == here()) {
    // The argument convention is "the task sees the unread suffix
    // [position(), size())" — identical to what the remote path ships — so
    // a caller that pre-read a prefix gets the same bytes locally as over
    // the wire.
    const TaskFn& fn = task_fn(fn_id);  // aborts on a bad id, like the wire
    const std::size_t pos = args.position();
    std::vector<std::byte> data = args.take_data();
    if (pos != 0) {
      data.erase(data.begin(),
                 data.begin() + static_cast<std::ptrdiff_t>(pos));
    }
    async([fn, data = std::move(data)]() mutable {
      x10rt::ByteBuffer b{std::move(data)};
      fn(b);
    });
    return;
  }
  detail::ship_frame_spawn(p, fn_id, [&args](x10rt::ByteBuffer& frame) {
    if (args.remaining() != 0) {
      frame.put_raw(args.bytes().data() + args.position(), args.remaining());
    }
  });
}

/// Blocking `at(p) e`: shifts to place p, evaluates f, and returns the
/// result. Implemented as its own FINISH_HERE round trip — exactly the
/// specialized protocol the paper says SPMD codes use for "gets".
template <typename F>
auto at(int p, F&& f) -> std::invoke_result_t<F> {
  using R = std::invoke_result_t<F>;
  if (p == here()) return std::forward<F>(f)();
  // Fail before the FINISH_HERE below opens (pre-bookkeeping diagnosable
  // abort); cross-process blocking gets use atArgs instead.
  Runtime::get().check_closure_can_reach(p);
  const int home = here();
  std::exception_ptr ex;
  if constexpr (std::is_void_v<R>) {
    finish(Pragma::kHere, [&] {
      asyncAt(p, [&ex, home, fn = std::forward<F>(f)] {
        std::exception_ptr thrown;
        try {
          fn();
        } catch (...) {
          thrown = std::current_exception();
        }
        asyncAt(home, [&ex, thrown] { ex = thrown; });
      });
    });
    if (ex) std::rethrow_exception(ex);
  } else {
    std::optional<R> slot;
    finish(Pragma::kHere, [&] {
      asyncAt(p, [&slot, &ex, home, fn = std::forward<F>(f)] {
        std::optional<R> value;
        std::exception_ptr thrown;
        try {
          value.emplace(fn());
        } catch (...) {
          thrown = std::current_exception();
        }
        // The value rides the returning async — this models the result
        // serialization X10 performs for `at` expressions.
        asyncAt(home, [&slot, &ex, v = std::move(value), thrown]() mutable {
          slot = std::move(v);
          ex = thrown;
        });
      });
    });
    if (ex) std::rethrow_exception(ex);
    return std::move(*slot);
  }
}

/// Fire-and-forget X10RT-level active message, *not* governed by any finish.
/// Library plumbing (e.g. GLB steal requests) uses this; user code should
/// prefer asyncAt.
inline void immediate_at(int p, std::function<void()> fn,
                         x10rt::MsgType type = x10rt::MsgType::kOther,
                         std::size_t bytes = 32) {
  trace::emit(trace::Ev::kMsgSend, static_cast<std::uint64_t>(type),
              static_cast<std::uint64_t>(p));
  x10rt::Message m;
  m.src = here();
  m.type = type;
  m.bytes = bytes;
  m.run = std::move(fn);
  Runtime::get().transport().send(p, std::move(m));
}

/// Fire-and-forget *frame* immediate: the wire twin of immediate_at for a
/// registered task function plus serialized args. Same accounting as
/// immediate_at (not finish-governed, no tasks_shipped, no ship-latency
/// sample) but crosses process boundaries. Always routed through the
/// transport, even to self, so both backends count it identically.
inline void immediateAtFrame(int p, int fn_id, x10rt::ByteBuffer args = {},
                             x10rt::MsgType type = x10rt::MsgType::kOther) {
  x10rt::ByteBuffer frame =
      Runtime::open_immediate_frame(fn_id, args.remaining());
  if (args.remaining() != 0) {
    frame.put_raw(args.bytes().data() + args.position(), args.remaining());
  }
  Runtime::get().send_immediate_frame(p, std::move(frame), type);
}

// --- typed remote tasks (ISSUE 10) ------------------------------------------
//
// The raw frame convention (fn id + hand-packed ByteBuffer) works but makes
// every call site a codec. These wrappers play the role of the X10 compiler's
// serialization pass: arguments travel through x10rt::Ser<T> in call order
// and are rebuilt as a tuple at the destination.
//
// Registration contract: construct RemoteFn/RemoteGet objects at namespace
// scope (pre-main, hence pre-fork) so every place process assigns the same
// ids — the same rule as register_task_fn.

namespace detail {

/// Spawns frame task `fn_id` at p with the args `encode` writes: into the
/// spawn frame itself when p is remote, into the local task's buffer when
/// p is here.
template <typename Encode>
void spawn_encoded(int p, int fn_id, Encode&& encode) {
  if (p == here()) {
    x10rt::ByteBuffer b;
    encode(b);
    asyncAtFrame(p, fn_id, std::move(b));
    return;
  }
  ship_frame_spawn(p, fn_id, std::forward<Encode>(encode));
}

}  // namespace detail

/// Packs `args` through Ser and spawns the registered frame task `fn_id` at
/// place p under the innermost finish. The handler is expected to unpack the
/// same types in the same order (use RemoteFn to get that by construction).
template <typename... Ts>
void asyncAtArgs(int p, int fn_id, const Ts&... args) {
  detail::spawn_encoded(p, fn_id, [&](x10rt::ByteBuffer& b) {
    x10rt::ser_put(b, args...);
  });
}

/// A void remote function with typed arguments. Wraps `void fn(Args...)` in
/// an auto-registered frame task whose trampoline Ser-decodes
/// std::tuple<std::decay_t<Args>...> and applies `fn`.
template <typename... Args>
class RemoteFn {
 public:
  explicit RemoteFn(void (*fn)(Args...))
      : id_(register_task_fn([fn](x10rt::ByteBuffer& b) {
          auto tup = x10rt::ser_get<std::tuple<std::decay_t<Args>...>>(b);
          std::apply(fn, std::move(tup));
        })) {}

  [[nodiscard]] int id() const { return id_; }

 private:
  int id_;
};

/// Typed spawn: each actual is encoded with the *declared* parameter type
/// (Ser<std::decay_t<Args>>), so literals and convertibles ship in the
/// registered signature's wire form, not their own.
template <typename... Args, typename... Actuals>
void asyncAtArgs(int p, const RemoteFn<Args...>& fn, const Actuals&... args) {
  static_assert(sizeof...(Args) == sizeof...(Actuals),
                "asyncAtArgs: argument count must match the RemoteFn");
  detail::spawn_encoded(p, fn.id(), [&](x10rt::ByteBuffer& b) {
    (x10rt::Ser<std::decay_t<Args>>::put(b, args), ...);
  });
}

namespace detail {

/// Home-side landing slot of one blocking typed get, addressed by pointer
/// token inside the request frame. Lives on the caller's stack for the
/// duration of its FINISH_HERE, which the response spawn is governed by.
template <typename R>
struct GetState {
  std::optional<R> value;
  std::exception_ptr ex;
};

/// Response leg of the typed get, one registered task per result type.
/// Frame: [token u64][home i32][has_ex u8][Ser<R> | encoded exception].
/// The id is a static data member of a class template: its dynamic
/// initialization runs pre-main wherever the type is instantiated, and the
/// launcher forks after static init, so every place process agrees on it.
template <typename R>
struct GetRsp {
  static void handler(x10rt::ByteBuffer& b) {
    const auto token = b.get<std::uint64_t>();
    const auto home = b.get<std::int32_t>();
    if (home != here()) {
      assert(false && "typed-get response landed away from home");
      return;
    }
    auto* st = reinterpret_cast<GetState<R>*>(
        static_cast<std::uintptr_t>(token));
    if (b.get<std::uint8_t>() != 0) {
      st->ex = wire_decode_exception(b);
    } else {
      st->value.emplace(x10rt::ser_get<R>(b));
    }
  }
  static const int id;
};

template <typename R>
const int GetRsp<R>::id = register_task_fn(&GetRsp<R>::handler);

}  // namespace detail

/// A value-returning remote function with typed arguments: the wire form of
/// the blocking `at(p) e` get. The request trampoline applies `fn` and
/// frame-spawns the Ser-encoded result (or the encoded exception) back to
/// the caller.
template <typename R, typename... Args>
class RemoteGet {
 public:
  explicit RemoteGet(R (*fn)(Args...))
      : id_(register_task_fn([fn](x10rt::ByteBuffer& b) {
          const auto token = b.get<std::uint64_t>();
          const auto home = b.get<std::int32_t>();
          x10rt::ByteBuffer rsp;
          rsp.put(token);
          rsp.put(home);
          try {
            auto tup = x10rt::ser_get<std::tuple<std::decay_t<Args>...>>(b);
            R value = std::apply(fn, std::move(tup));
            rsp.put<std::uint8_t>(0);
            x10rt::Ser<R>::put(rsp, value);
          } catch (...) {
            rsp.put<std::uint8_t>(1);
            wire_encode_exception(rsp, std::current_exception());
          }
          asyncAtFrame(home, detail::GetRsp<R>::id, std::move(rsp));
        })) {}

  [[nodiscard]] int id() const { return id_; }

 private:
  int id_;
};

/// Blocking typed get: `atArgs(p, fn, args...)` shifts to place p, applies
/// the registered function, and returns the Ser-decoded result — the
/// cross-process form of `at(p, e)`, same FINISH_HERE round-trip shape.
/// Remote exceptions arrive through the wire codec (standard exception
/// types preserved, others degrade to std::runtime_error).
template <typename R, typename... Args, typename... Actuals>
R atArgs(int p, const RemoteGet<R, Args...>& fn, const Actuals&... args) {
  static_assert(sizeof...(Args) == sizeof...(Actuals),
                "atArgs: argument count must match the RemoteGet");
  detail::GetState<R> st;
  const std::int32_t home = here();
  finish(Pragma::kHere, [&] {
    detail::spawn_encoded(p, fn.id(), [&](x10rt::ByteBuffer& req) {
      req.put(static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(&st)));
      req.put(home);
      (x10rt::Ser<std::decay_t<Args>>::put(req, args), ...);
    });
  });
  if (st.ex) std::rethrow_exception(st.ex);
  return std::move(*st.value);
}

/// A global reference: freely copyable between places, dereferenceable only
/// at its home place (checked, as X10's type system does statically).
template <typename T>
class GlobalRef {
 public:
  GlobalRef() = default;
  explicit GlobalRef(T* obj) : home_(here()), ptr_(obj) {}

  [[nodiscard]] int home() const { return home_; }
  [[nodiscard]] bool valid() const { return home_ >= 0; }

  T& operator*() const {
    assert(here() == home_ && "GlobalRef dereferenced away from home");
    return *ptr_;
  }
  T* operator->() const {
    assert(here() == home_ && "GlobalRef dereferenced away from home");
    return ptr_;
  }

 private:
  int home_ = -1;
  T* ptr_ = nullptr;
};

/// Per-place storage, X10's PlaceLocalHandle: one slot per place, each place
/// initializes and accesses only its own.
template <typename T>
class PlaceLocal {
 public:
  PlaceLocal() : slots_(static_cast<std::size_t>(num_places())) {}

  template <typename... Args>
  T& init_here(Args&&... args) {
    auto& slot = slots_[static_cast<std::size_t>(here())];
    slot = std::make_unique<T>(std::forward<Args>(args)...);
    return *slot;
  }

  [[nodiscard]] bool initialized_here() const {
    return slots_[static_cast<std::size_t>(here())] != nullptr;
  }

  T& local() {
    auto& slot = slots_[static_cast<std::size_t>(here())];
    assert(slot && "PlaceLocal accessed before init_here()");
    return *slot;
  }

 private:
  std::vector<std::unique_ptr<T>> slots_;
};

}  // namespace apgas
