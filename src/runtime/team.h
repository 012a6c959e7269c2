// Teams: X10's x10.util.Team collectives (paper §3.3).
//
// Three interchangeable implementations mirror the paper's split between
// hardware collectives and the emulation layer:
//   * kEmulated — point-to-point algorithms over active messages (binomial
//     broadcast/reduce, dissemination barrier, direct alltoall). This is the
//     X10RT emulation layer that "kicks in" when the network has no native
//     support.
//   * kNative   — shared-memory implementations (central barrier, shared
//     staging buffers) standing in for PAMI/Torrent hardware collectives.
//   * kHierarchical — topology-aware leader trees over the PERCS machine
//     model (docs/collectives.md): places sharing an octant form a leaf
//     group that exchanges payloads single-copy through shared memory
//     (XHC-style); octant leaders relay fragments up/down a
//     drawer/supernode leader tree with pipelined chunking, so a leader
//     forwards fragment k while receiving k+1. Applies to
//     barrier/bcast/reduce/allreduce; the remaining ops fall back to the
//     emulated algorithms.
//
// All operations are collective and blocking: every member place must call
// them in the same program order (SPMD discipline); waiting members keep
// pumping their scheduler, so unrelated activities continue to run.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "runtime/api.h"
#include "runtime/histogram.h"

namespace apgas {

enum class TeamMode { kEmulated, kNative, kHierarchical };

enum class ReduceOp { kSum, kMin, kMax };

namespace team_detail {

/// Collective op ids used for trace kTeamBegin/kTeamEnd events (arg a).
enum TeamOp : std::uint64_t {
  kOpBarrier = 0,
  kOpBcast = 1,
  kOpReduce = 2,
  kOpAllreduce = 3,
  kOpScatter = 4,
  kOpGather = 5,
  kOpAlltoall = 6,
  kOpAllgather = 7,
  kOpSplit = 8,
};

/// Stable lowercase op name ("barrier", "bcast", ...; used for the
/// team.op_ns.<op> latency histograms and docs).
const char* op_name(TeamOp op);

/// Records one team.op_ns.<op> latency sample (hist:: layer; resolves the
/// histogram through the current Runtime's MetricsRegistry).
void record_op_ns(TeamOp op, std::uint64_t ns);

/// Brackets one collective call in the flight recorder (arg b = team id) and
/// records its wall-clock into the team.op_ns.<op> histogram when histograms
/// are armed. Nested pairs (allreduce = reduce + bcast) nest properly:
/// waiting members pump the scheduler, so any interleaved activity begins
/// and ends inside — and allreduce contributes reduce + bcast + allreduce
/// samples, one per scope.
struct PhaseScope {
  std::uint64_t op;
  std::uint64_t team;
  std::uint64_t t0 = 0;
  PhaseScope(std::uint64_t op_id, std::uint64_t team_id)
      : op(op_id), team(team_id) {
    trace::emit(trace::Ev::kTeamBegin, op, team);
    if (hist::enabled()) t0 = hist::now_ns();
  }
  ~PhaseScope() {
    trace::emit(trace::Ev::kTeamEnd, op, team);
    if (hist::enabled() && t0 != 0) {
      record_op_ns(static_cast<TeamOp>(op), hist::now_ns() - t0);
    }
  }
};

// --- hierarchical plan (docs/collectives.md) --------------------------------

/// Mail-tag bases for hierarchical fragments; disjoint from the flat-path
/// tags (0..5 and 100+round) and from each other by 2^20, far beyond any
/// realistic fragment count.
inline constexpr int kTagBcastChunk = 1 << 20;
inline constexpr int kTagReduceChunk = 2 << 20;
inline constexpr int kTagBarrierUp = 3 << 20;
inline constexpr int kTagBarrierDown = 4 << 20;

/// Shared-memory state of one leaf group (an "octant": places that would
/// share a host on the modelled machine). All counters are *cumulative*
/// across ops — members track their own expected bases (Member::g_*), so
/// nothing ever resets and back-to-back reuse cannot race a reset.
struct GroupShared {
  /// Leader's payload buffer for the current bcast; members copy from it
  /// directly — the XHC single-copy idea. Written (release) before the
  /// first pub of an op; the leader keeps the buffer alive until every
  /// member bumped `done`.
  std::atomic<const std::byte*> src{nullptr};
  std::atomic<std::uint64_t> pub{0};     // fragments published / releases
  std::atomic<std::uint64_t> arrive{0};  // member barrier arrivals
  std::atomic<std::uint64_t> done{0};    // member copy-out completions
};

/// The per-root spanning tree over leaf-group leaders. Rank-indexed arrays;
/// non-leader ranks keep parent = -1 and empty children.
struct LeaderTree {
  std::vector<int> parent;                 // leader rank -> parent leader
  std::vector<std::vector<int>> children;  // leader rank -> child leaders
  std::vector<char> is_leader;             // rank -> leads its leaf group
  std::vector<int> leaf_leader;            // leaf group -> leader rank
  int depth = 1;                           // root-to-deepest-leader edges
};

/// The plan object built once per team (and rebuilt by split-derived teams
/// from the surviving members' coordinates) and reused across ops. Leaf
/// grouping comes from the PERCS topology model when configured
/// (Config::team_places_per_octant > 0), else from places_per_node; leader
/// trees are cached per op root.
struct Hierarchy {
  int levels = 1;                    // grouping levels above the members
  int fanout = 2;                    // leader-group tree fan-out
  std::size_t chunk_bytes = 64u << 10;
  std::vector<int> leaf_of;                    // rank -> leaf group index
  std::vector<std::vector<int>> leaf_members;  // group -> ranks, ascending
  std::vector<std::vector<int>> domain;        // rank -> domain id per level
  std::vector<std::unique_ptr<GroupShared>> groups;

  /// Leader tree rooted at `root`'s chain (root leads its own octant,
  /// drawer, and supernode — the promotion that makes any rank a valid
  /// collective root without reshuffling the grouping). Built lazily,
  /// cached forever; the returned reference stays valid for the
  /// hierarchy's lifetime.
  const LeaderTree& tree_for(int root);

  std::mutex mu;  // guards trees
  std::unordered_map<int, std::unique_ptr<LeaderTree>> trees;
};

/// Fragment plan: nchunks fragments of `chunk` bytes (last may be short).
/// `chunk` is always a multiple of the element size so reduce can combine
/// fragment-wise.
struct ChunkPlan {
  std::size_t nchunks = 0;
  std::size_t chunk = 0;
};
inline ChunkPlan plan_chunks(std::size_t bytes, std::size_t chunk_bytes,
                             std::size_t elem_size) {
  ChunkPlan p;
  if (bytes == 0) return p;
  std::size_t chunk = chunk_bytes == 0 ? bytes : chunk_bytes;
  chunk -= chunk % elem_size;         // element-aligned fragments
  if (chunk < elem_size) chunk = elem_size;
  if (chunk > bytes) chunk = bytes;
  p.chunk = chunk;
  p.nchunks = (bytes + chunk - 1) / chunk;
  return p;
}

/// Tallies one forwarded fragment into the team.hier.* gauges and the
/// flight recorder (kTeamChunk).
void note_chunk(std::uint64_t op, std::size_t chunk_idx, int dst_rank,
                std::size_t bytes);

/// One delivered mail payload. The receiver files the whole mail frame and
/// where the payload starts in it, instead of copying the payload out.
struct Mail {
  std::vector<std::byte> frame;
  std::size_t off = 0;

  [[nodiscard]] const std::byte* data() const { return frame.data() + off; }
  [[nodiscard]] std::size_t size() const { return frame.size() - off; }
};

struct Member {
  std::mutex mu;
  // (op sequence, phase tag, source rank) -> payload
  std::map<std::tuple<std::uint64_t, int, int>, Mail> mail;
  std::uint64_t op_seq = 0;  // collective calls in program order
  // Hierarchical-group counter mirrors: this member's expected base of the
  // cumulative GroupShared counters entering the next op. Every group
  // member executes the same collectives in the same order (SPMD), so all
  // mirrors agree; read/advanced under `mu` at op entry (the same lock that
  // hands out op_seq), giving cross-activity happens-before for free.
  std::uint64_t g_pub = 0;
  std::uint64_t g_arrive = 0;
  std::uint64_t g_done = 0;
};

struct TeamState {
  std::uint64_t id = 0;
  TeamMode mode = TeamMode::kEmulated;
  std::vector<int> members;                // rank -> place
  std::unordered_map<int, int> rank_of;    // place -> rank
  std::vector<std::unique_ptr<Member>> per;

  // Native-path shared structures (the "hardware").
  std::atomic<int> barrier_count{0};
  std::atomic<std::uint64_t> barrier_gen{0};
  std::mutex shared_mu;
  std::vector<std::byte> shared_buf;
  std::vector<const void*> src_ptrs;

  // Hierarchical-path plan, built from the current Config + this team's
  // member places on first use (so split-derived teams rebuild from the
  // surviving members' coordinates, never inherit the parent's grouping).
  std::once_flag hier_once;
  std::unique_ptr<Hierarchy> hier;
  Hierarchy& hierarchy();

  explicit TeamState(std::uint64_t team_id, TeamMode m, std::vector<int> mem);
};

std::shared_ptr<TeamState> get_or_create(std::uint64_t id, TeamMode mode,
                                         const std::vector<int>& members);
void registry_clear();  // called between runtimes

/// Cumulative team.hier.* tallies exported as MetricsRegistry gauges
/// (runtime.cc); levels/leaders describe the most recently built hierarchy.
struct HierStats {
  std::atomic<std::uint64_t> levels{0};
  std::atomic<std::uint64_t> leaders{0};
  std::atomic<std::uint64_t> chunks{0};
  std::atomic<std::uint64_t> chunk_bytes{0};
};
HierStats& hier_stats();

}  // namespace team_detail

class Team {
 public:
  /// The team of all places.
  static Team world(TeamMode mode = TeamMode::kEmulated);

  [[nodiscard]] int size() const {
    return static_cast<int>(state_->members.size());
  }
  [[nodiscard]] int rank() const {
    auto it = state_->rank_of.find(here());
    assert(it != state_->rank_of.end() && "place is not a team member");
    return it->second;
  }
  [[nodiscard]] int place_of(int r) const {
    return state_->members[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] TeamMode mode() const { return state_->mode; }

  /// The mode collectives actually dispatch on. kNative's shared atomics and
  /// staging buffers cannot cross a process boundary, so under the socket
  /// backend a team declared kNative runs the emulated point-to-point
  /// algorithms instead (mail rides registered frame tasks, which serialize).
  /// The declared mode() is unchanged — the downgrade is a per-call dispatch
  /// decision, mirroring X10RT falling back to the emulation layer when the
  /// network has no native collective support.
  [[nodiscard]] TeamMode effective_mode() const {
    if (state_->mode == TeamMode::kNative && Runtime::active() &&
        Runtime::get().multi_process()) {
      return TeamMode::kEmulated;
    }
    return state_->mode;
  }

  /// Collective barrier.
  void barrier();

  /// Broadcast `n` elements from `root` rank's buffer into every member's.
  template <typename T>
  void bcast(int root, T* buf, std::size_t n);

  /// Element-wise all-reduce in place.
  template <typename T>
  void allreduce(T* buf, std::size_t n, ReduceOp op);

  /// Element-wise reduce to `root` rank. On non-roots `buf` is scratch
  /// (clobbered with partial results), as in MPI_Reduce.
  template <typename T>
  void reduce(int root, T* buf, std::size_t n, ReduceOp op);

  /// Root's `send` holds size*n elements; every rank receives its n-block.
  template <typename T>
  void scatter(int root, const T* send, T* recv, std::size_t n);

  /// Every rank contributes n elements; root's `recv` gets size*n,
  /// rank-ordered. `recv` may be null on non-roots.
  template <typename T>
  void gather(int root, const T* send, T* recv, std::size_t n);

  /// Each rank contributes `n` elements per destination; recv gets size*n.
  template <typename T>
  void alltoall(const T* send, T* recv, std::size_t n);

  /// Each rank contributes `n` elements; recv gets size*n, rank-ordered.
  template <typename T>
  void allgather(const T* send, T* recv, std::size_t n);

  /// Collective split into sub-teams by color; ranks ordered by (key, rank).
  /// The child team inherits the parent's mode and — in hierarchical mode —
  /// rebuilds its own leader hierarchy from the surviving members' places.
  Team split(int color, int key);

  /// The lazily-built hierarchical plan (kHierarchical mode only; builds it
  /// on first call). Exposed for tests and benches that want to inspect the
  /// grouping; the runtime's own entry points are the collectives.
  team_detail::Hierarchy& hierarchy() { return state_->hierarchy(); }

 private:
  explicit Team(std::shared_ptr<team_detail::TeamState> s)
      : state_(std::move(s)) {}

  // --- emulated-path primitives ---------------------------------------------
  /// Mails `n` bytes at `data` to `dst_rank`: one copy, into the frame.
  void send_bytes(std::uint64_t seq, int tag, int dst_rank, const void* data,
                  std::size_t n);
  team_detail::Mail recv_bytes(std::uint64_t seq, int tag, int src_rank);
  std::uint64_t next_seq();

  // --- hierarchical-path primitives (docs/collectives.md) -------------------
  void hier_barrier();
  template <typename T>
  void hier_bcast(int root, T* buf, std::size_t n);
  template <typename T>
  void hier_reduce(int root, T* buf, std::size_t n, ReduceOp op);
  /// Claims the next op seq and advances this member's group-counter
  /// mirrors by the given deltas, all under the member lock; returns
  /// {seq, pub_base, arrive_base, done_base}.
  std::array<std::uint64_t, 4> hier_claim(std::uint64_t pub_delta,
                                          std::uint64_t arrive_delta,
                                          std::uint64_t done_delta);
  void notify_group(const team_detail::Hierarchy& h, int me);

  template <typename T>
  static void combine(ReduceOp op, T* acc, const T* in, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      switch (op) {
        case ReduceOp::kSum: acc[i] += in[i]; break;
        case ReduceOp::kMin: acc[i] = in[i] < acc[i] ? in[i] : acc[i]; break;
        case ReduceOp::kMax: acc[i] = in[i] > acc[i] ? in[i] : acc[i]; break;
      }
    }
  }

  void native_barrier();
  std::byte* native_stage(std::size_t bytes);  // rank-0 resizes, all get ptr

  std::shared_ptr<team_detail::TeamState> state_;
};

// --- template implementations ------------------------------------------------

template <typename T>
void Team::bcast(int root, T* buf, std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  team_detail::PhaseScope phase(team_detail::kOpBcast, state_->id);
  const int sz = size();
  if (sz == 1) return;
  const std::size_t bytes = n * sizeof(T);
  const TeamMode m = effective_mode();
  if (m == TeamMode::kNative) {
    native_barrier();
    std::byte* stage = native_stage(bytes);
    if (rank() == root) std::memcpy(stage, buf, bytes);
    native_barrier();
    if (rank() != root) std::memcpy(buf, stage, bytes);
    native_barrier();
    return;
  }
  if (m == TeamMode::kHierarchical) {
    hier_bcast(root, buf, n);
    return;
  }
  // Binomial tree over active messages.
  const std::uint64_t seq = next_seq();
  const int me = rank();
  const int rel = (me - root + sz) % sz;
  int mask = 1;
  while (mask < sz) {
    if (rel & mask) {
      const int src = (rel - mask + root) % sz;
      auto payload = recv_bytes(seq, /*tag=*/0, src);
      assert(payload.size() == bytes);
      std::memcpy(buf, payload.data(), bytes);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < sz) {
      const int dst = (rel + mask + root) % sz;
      send_bytes(seq, /*tag=*/0, dst, buf, bytes);
    }
    mask >>= 1;
  }
}

template <typename T>
void Team::reduce(int root, T* buf, std::size_t n, ReduceOp op) {
  static_assert(std::is_trivially_copyable_v<T>);
  team_detail::PhaseScope phase(team_detail::kOpReduce, state_->id);
  const int sz = size();
  if (sz == 1) return;
  const std::size_t bytes = n * sizeof(T);
  const TeamMode m = effective_mode();
  if (m == TeamMode::kNative) {
    native_barrier();
    std::byte* stage = native_stage(bytes);
    T* acc = reinterpret_cast<T*>(stage);
    if (rank() == root) std::memcpy(acc, buf, bytes);
    native_barrier();
    if (rank() != root) {
      // Hardware-combine stand-in: serialized atomic accumulation.
      std::scoped_lock lock(state_->shared_mu);
      combine(op, acc, buf, n);
    }
    native_barrier();
    if (rank() == root) std::memcpy(buf, acc, bytes);
    native_barrier();
    return;
  }
  if (m == TeamMode::kHierarchical) {
    hier_reduce(root, buf, n, op);
    return;
  }
  // Binomial reduce toward the root over relative ranks.
  const std::uint64_t seq = next_seq();
  const int rel = (rank() - root + sz) % sz;
  int mask = 1;
  while (mask < sz) {
    if ((rel & mask) == 0) {
      const int peer_rel = rel + mask;
      if (peer_rel < sz) {
        auto payload = recv_bytes(seq, /*tag=*/1, (peer_rel + root) % sz);
        combine(op, buf, reinterpret_cast<const T*>(payload.data()), n);
      }
    } else {
      send_bytes(seq, /*tag=*/1, (rel - mask + root) % sz, buf, bytes);
      break;
    }
    mask <<= 1;
  }
}

template <typename T>
void Team::allreduce(T* buf, std::size_t n, ReduceOp op) {
  team_detail::PhaseScope phase(team_detail::kOpAllreduce, state_->id);
  const int sz = size();
  if (sz == 1) return;
  reduce(0, buf, n, op);
  bcast(0, buf, n);
}

template <typename T>
void Team::scatter(int root, const T* send, T* recv, std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  team_detail::PhaseScope phase(team_detail::kOpScatter, state_->id);
  const int sz = size();
  const std::size_t bytes = n * sizeof(T);
  const int me = rank();
  if (sz == 1) {
    std::memcpy(recv, send, bytes);
    return;
  }
  if (effective_mode() == TeamMode::kNative) {
    native_barrier();
    std::byte* stage = native_stage(bytes * static_cast<std::size_t>(sz));
    if (me == root) {
      std::memcpy(stage, send, bytes * static_cast<std::size_t>(sz));
    }
    native_barrier();
    std::memcpy(recv, stage + static_cast<std::size_t>(me) * bytes, bytes);
    native_barrier();
    return;
  }
  const std::uint64_t seq = next_seq();
  if (me == root) {
    for (int r = 0; r < sz; ++r) {
      if (r == me) {
        std::memcpy(recv, send + static_cast<std::size_t>(r) * n, bytes);
        continue;
      }
      send_bytes(seq, /*tag=*/4, r, send + static_cast<std::size_t>(r) * n,
                 bytes);
    }
  } else {
    auto payload = recv_bytes(seq, /*tag=*/4, root);
    std::memcpy(recv, payload.data(), bytes);
  }
}

template <typename T>
void Team::gather(int root, const T* send, T* recv, std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  team_detail::PhaseScope phase(team_detail::kOpGather, state_->id);
  const int sz = size();
  const std::size_t bytes = n * sizeof(T);
  const int me = rank();
  if (sz == 1) {
    std::memcpy(recv, send, bytes);
    return;
  }
  if (effective_mode() == TeamMode::kNative) {
    native_barrier();
    std::byte* stage = native_stage(bytes * static_cast<std::size_t>(sz));
    std::memcpy(stage + static_cast<std::size_t>(me) * bytes, send, bytes);
    native_barrier();
    if (me == root) {
      std::memcpy(recv, stage, bytes * static_cast<std::size_t>(sz));
    }
    native_barrier();
    return;
  }
  const std::uint64_t seq = next_seq();
  if (me == root) {
    std::memcpy(recv + static_cast<std::size_t>(me) * n, send, bytes);
    for (int r = 0; r < sz; ++r) {
      if (r == me) continue;
      auto payload = recv_bytes(seq, /*tag=*/5, r);
      std::memcpy(recv + static_cast<std::size_t>(r) * n, payload.data(),
                  bytes);
    }
  } else {
    send_bytes(seq, /*tag=*/5, root, send, bytes);
  }
}

template <typename T>
void Team::alltoall(const T* send, T* recv, std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  team_detail::PhaseScope phase(team_detail::kOpAlltoall, state_->id);
  const int sz = size();
  const std::size_t bytes = n * sizeof(T);
  const int me = rank();
  if (effective_mode() == TeamMode::kNative) {
    // Publish our send buffer, then gather directly from every peer's —
    // the shared-memory stand-in for a hardware all-to-all.
    native_barrier();
    state_->src_ptrs[static_cast<std::size_t>(me)] = send;
    native_barrier();
    for (int s = 0; s < sz; ++s) {
      const T* src = static_cast<const T*>(state_->src_ptrs[s]);
      std::memcpy(recv + static_cast<std::size_t>(s) * n, src + me * n, bytes);
    }
    native_barrier();
    return;
  }
  const std::uint64_t seq = next_seq();
  std::memcpy(recv + static_cast<std::size_t>(me) * n, send + me * n, bytes);
  for (int d = 1; d < sz; ++d) {
    const int dst = (me + d) % sz;
    send_bytes(seq, /*tag=*/2, dst, send + static_cast<std::size_t>(dst) * n,
               bytes);
  }
  for (int d = 1; d < sz; ++d) {
    const int src = (me + sz - d) % sz;
    auto payload = recv_bytes(seq, /*tag=*/2, src);
    std::memcpy(recv + static_cast<std::size_t>(src) * n, payload.data(),
                bytes);
  }
}

template <typename T>
void Team::allgather(const T* send, T* recv, std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  team_detail::PhaseScope phase(team_detail::kOpAllgather, state_->id);
  const int sz = size();
  const std::size_t bytes = n * sizeof(T);
  const int me = rank();
  if (effective_mode() == TeamMode::kNative) {
    native_barrier();
    std::byte* stage =
        native_stage(bytes * static_cast<std::size_t>(sz));
    std::memcpy(stage + static_cast<std::size_t>(me) * bytes, send, bytes);
    native_barrier();
    std::memcpy(recv, stage, bytes * static_cast<std::size_t>(sz));
    native_barrier();
    return;
  }
  const std::uint64_t seq = next_seq();
  std::memcpy(recv + static_cast<std::size_t>(me) * n, send, bytes);
  for (int d = 1; d < sz; ++d) {
    send_bytes(seq, /*tag=*/3, (me + d) % sz, send, bytes);
  }
  for (int d = 1; d < sz; ++d) {
    const int src = (me + sz - d) % sz;
    auto payload = recv_bytes(seq, /*tag=*/3, src);
    std::memcpy(recv + static_cast<std::size_t>(src) * n, payload.data(),
                bytes);
  }
}

// --- hierarchical-path implementations (docs/collectives.md) ----------------

/// Pipelined hierarchical broadcast: the payload descends the per-root
/// leader tree fragment by fragment (a leader forwards fragment k to its
/// child leaders while fragment k+1 is still in flight to it), and inside
/// each leaf group members copy published fragments straight out of their
/// leader's buffer — one copy per member, no intermediate staging.
template <typename T>
void Team::hier_bcast(int root, T* buf, std::size_t n) {
  auto& h = state_->hierarchy();
  const auto& tree = h.tree_for(root);
  const int me = rank();
  const std::size_t bytes = n * sizeof(T);
  auto* data = reinterpret_cast<std::byte*>(buf);
  const auto plan = team_detail::plan_chunks(bytes, h.chunk_bytes, sizeof(T));
  const int gi = h.leaf_of[static_cast<std::size_t>(me)];
  auto& g = *h.groups[static_cast<std::size_t>(gi)];
  const std::size_t gsize = h.leaf_members[static_cast<std::size_t>(gi)].size();
  const auto [seq, pub_base, arrive_base, done_base] =
      hier_claim(/*pub=*/plan.nchunks, /*arrive=*/0, /*done=*/gsize - 1);
  (void)arrive_base;
  if (tree.is_leader[static_cast<std::size_t>(me)]) {
    if (gsize > 1 && plan.nchunks > 0) {
      // Roots rotate, so this op's leader may differ from the previous
      // bcast's — and that leader only waits for its *own* op's copy-outs.
      // Before overwriting the single src slot, wait until every member
      // finished copying from all prior bcasts (done reached this op's
      // base), or a straggler could latch the new pointer mid-copy.
      Runtime::get().sched(here()).run_until([&g, base = done_base] {
        return g.done.load(std::memory_order_acquire) >= base;
      });
      g.src.store(data, std::memory_order_release);
    }
    for (std::size_t k = 0; k < plan.nchunks; ++k) {
      const std::size_t off = k * plan.chunk;
      const std::size_t len = std::min(plan.chunk, bytes - off);
      if (me != root) {
        auto payload = recv_bytes(seq,
                                  team_detail::kTagBcastChunk +
                                      static_cast<int>(k),
                                  tree.parent[static_cast<std::size_t>(me)]);
        assert(payload.size() == len);
        std::memcpy(data + off, payload.data(), len);
      }
      for (int c : tree.children[static_cast<std::size_t>(me)]) {
        send_bytes(seq, team_detail::kTagBcastChunk + static_cast<int>(k), c,
                   data + off, len);
        team_detail::note_chunk(team_detail::kOpBcast, k, c, len);
      }
      if (gsize > 1) {
        g.pub.fetch_add(1, std::memory_order_release);
        notify_group(h, me);
      }
    }
    if (gsize > 1) {
      const std::uint64_t want = done_base + (gsize - 1);
      Runtime::get().sched(here()).run_until([&g, want] {
        return g.done.load(std::memory_order_acquire) >= want;
      });
    }
  } else {
    // Plain member: copy fragments out of the leader's buffer as they
    // publish (the predicate has side effects on purpose — recv_bytes sets
    // the precedent), then hand the buffer back with one `done` bump.
    std::size_t k = 0;
    const std::byte* src = nullptr;
    Runtime::get().sched(here()).run_until([&] {
      const std::uint64_t avail = g.pub.load(std::memory_order_acquire);
      while (k < plan.nchunks && avail >= pub_base + k + 1) {
        if (src == nullptr) src = g.src.load(std::memory_order_relaxed);
        const std::size_t off = k * plan.chunk;
        const std::size_t len = std::min(plan.chunk, bytes - off);
        std::memcpy(data + off, src + off, len);
        ++k;
      }
      return k == plan.nchunks;
    });
    g.done.fetch_add(1, std::memory_order_release);
    const int leader = tree.leaf_leader[static_cast<std::size_t>(gi)];
    Runtime::get().transport().notify(place_of(leader));
  }
}

/// Hierarchical reduce: leaf members stream fragments to their leaf leader,
/// which combines them (fixed ascending order, then child leaders) and
/// forwards the per-level partial up the tree, fragment-pipelined. On
/// non-roots `buf` is scratch, as in the emulated path.
template <typename T>
void Team::hier_reduce(int root, T* buf, std::size_t n, ReduceOp op) {
  auto& h = state_->hierarchy();
  const auto& tree = h.tree_for(root);
  const int me = rank();
  const std::size_t bytes = n * sizeof(T);
  const auto plan = team_detail::plan_chunks(bytes, h.chunk_bytes, sizeof(T));
  const int gi = h.leaf_of[static_cast<std::size_t>(me)];
  const std::uint64_t seq = next_seq();
  auto chunk_of = [&](std::size_t k, std::size_t& off, std::size_t& len) {
    off = k * plan.chunk;
    len = std::min(plan.chunk, bytes - off);
  };
  if (tree.is_leader[static_cast<std::size_t>(me)]) {
    const auto& mates = h.leaf_members[static_cast<std::size_t>(gi)];
    for (std::size_t k = 0; k < plan.nchunks; ++k) {
      std::size_t off, len;
      chunk_of(k, off, len);
      T* acc = buf + off / sizeof(T);
      const std::size_t elems = len / sizeof(T);
      for (int m : mates) {
        if (m == me) continue;
        auto payload = recv_bytes(
            seq, team_detail::kTagReduceChunk + static_cast<int>(k), m);
        assert(payload.size() == len);
        combine(op, acc, reinterpret_cast<const T*>(payload.data()), elems);
      }
      for (int c : tree.children[static_cast<std::size_t>(me)]) {
        auto payload = recv_bytes(
            seq, team_detail::kTagReduceChunk + static_cast<int>(k), c);
        assert(payload.size() == len);
        combine(op, acc, reinterpret_cast<const T*>(payload.data()), elems);
      }
      if (me != root) {
        const int parent = tree.parent[static_cast<std::size_t>(me)];
        send_bytes(seq, team_detail::kTagReduceChunk + static_cast<int>(k),
                   parent, reinterpret_cast<std::byte*>(buf) + off, len);
        team_detail::note_chunk(team_detail::kOpReduce, k, parent, len);
      }
    }
  } else {
    const int leader = tree.leaf_leader[static_cast<std::size_t>(gi)];
    for (std::size_t k = 0; k < plan.nchunks; ++k) {
      std::size_t off, len;
      chunk_of(k, off, len);
      send_bytes(seq, team_detail::kTagReduceChunk + static_cast<int>(k),
                 leader, reinterpret_cast<std::byte*>(buf) + off, len);
      team_detail::note_chunk(team_detail::kOpReduce, k, leader, len);
    }
  }
}

}  // namespace apgas
