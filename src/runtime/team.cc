#include "runtime/team.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "percs/topology.h"
#include "runtime/metrics.h"

namespace apgas {

namespace team_detail {

const char* op_name(TeamOp op) {
  switch (op) {
    case kOpBarrier: return "barrier";
    case kOpBcast: return "bcast";
    case kOpReduce: return "reduce";
    case kOpAllreduce: return "allreduce";
    case kOpScatter: return "scatter";
    case kOpGather: return "gather";
    case kOpAlltoall: return "alltoall";
    case kOpAllgather: return "allgather";
    case kOpSplit: return "split";
  }
  return "unknown";
}

void record_op_ns(TeamOp op, std::uint64_t ns) {
  // Name lookup takes the registry lock, but only when histograms are armed
  // (the caller gates on hist::enabled()) and only once per collective call.
  Runtime::get()
      .metrics()
      .histogram(std::string("team.op_ns.") + op_name(op))
      .record(ns);
}

HierStats& hier_stats() {
  static HierStats s;
  return s;
}

void note_chunk(std::uint64_t op, std::size_t chunk_idx, int dst_rank,
                std::size_t bytes) {
  auto& s = hier_stats();
  s.chunks.fetch_add(1, std::memory_order_relaxed);
  s.chunk_bytes.fetch_add(bytes, std::memory_order_relaxed);
  trace::emit(trace::Ev::kTeamChunk,
              (op << 32) | static_cast<std::uint64_t>(chunk_idx),
              (static_cast<std::uint64_t>(bytes) << 16) |
                  static_cast<std::uint64_t>(
                      static_cast<std::uint16_t>(dst_rank)));
}

Hierarchy& TeamState::hierarchy() {
  std::call_once(hier_once, [this] {
    auto h = std::make_unique<Hierarchy>();
    const Config& cfg = Runtime::get().config();
    h->fanout = cfg.team_fanout < 1 ? 1 : cfg.team_fanout;
    h->chunk_bytes = cfg.team_chunk_bytes;
    const int nranks = static_cast<int>(members.size());
    h->domain.assign(static_cast<std::size_t>(nranks),
                     std::vector<int>(3, 0));
    if (Runtime::get().multi_process()) {
      // Place processes share no memory, so the shared-memory leaf-group
      // fast path (GroupShared single-copy publish) cannot exist: collapse
      // every leaf group to a singleton. Each rank leads itself and all
      // payload movement rides mail frames up the leader tree — the
      // hierarchical algorithms then never touch a group counter (gsize==1)
      // and remain correct across processes.
      for (int r = 0; r < nranks; ++r) {
        h->domain[static_cast<std::size_t>(r)][0] = r;
      }
      h->levels = 1;
    } else if (cfg.team_places_per_octant > 0) {
      percs::MachineShape shape;
      shape.cores_per_octant = cfg.team_places_per_octant;
      shape.octants_per_drawer =
          cfg.team_octants_per_drawer < 1 ? 1 : cfg.team_octants_per_drawer;
      shape.drawers_per_supernode = cfg.team_drawers_per_supernode < 1
                                        ? 1
                                        : cfg.team_drawers_per_supernode;
      int max_place = 0;
      for (int p : members) max_place = std::max(max_place, p);
      const long per_sn = static_cast<long>(shape.cores_per_octant) *
                          shape.octants_per_drawer *
                          shape.drawers_per_supernode;
      shape.supernodes = static_cast<int>(max_place / per_sn) + 1;
      const percs::Machine machine(shape);
      for (int r = 0; r < nranks; ++r) {
        const long core = members[static_cast<std::size_t>(r)];
        for (int level = 0; level < 3; ++level) {
          h->domain[static_cast<std::size_t>(r)][static_cast<std::size_t>(
              level)] = machine.domain_of_core(core, level);
        }
      }
      h->levels = std::clamp(cfg.team_levels, 1, 3);
    } else {
      // No topology model: leaf-group consecutive places per "node" and
      // hang every leaf leader off one flat root tier.
      const int per = cfg.places_per_node < 1 ? 1 : cfg.places_per_node;
      for (int r = 0; r < nranks; ++r) {
        h->domain[static_cast<std::size_t>(r)][0] =
            members[static_cast<std::size_t>(r)] / per;
      }
      h->levels = 1;
    }
    std::map<int, std::vector<int>> by_octant;  // ordered -> stable group ids
    for (int r = 0; r < nranks; ++r) {
      by_octant[h->domain[static_cast<std::size_t>(r)][0]].push_back(r);
    }
    h->leaf_of.assign(static_cast<std::size_t>(nranks), 0);
    for (auto& [octant, ranks] : by_octant) {
      const int gi = static_cast<int>(h->leaf_members.size());
      for (int r : ranks) h->leaf_of[static_cast<std::size_t>(r)] = gi;
      h->leaf_members.push_back(ranks);  // ascending: map visit order
      h->groups.push_back(std::make_unique<GroupShared>());
    }
    auto& stats = hier_stats();
    stats.levels.store(static_cast<std::uint64_t>(h->levels),
                       std::memory_order_relaxed);
    stats.leaders.store(h->leaf_members.size(), std::memory_order_relaxed);
    hier = std::move(h);
  });
  return *hier;
}

const LeaderTree& Hierarchy::tree_for(int root) {
  std::scoped_lock lock(mu);
  auto& slot = trees[root];
  if (slot) return *slot;
  auto t = std::make_unique<LeaderTree>();
  const int n = static_cast<int>(leaf_of.size());
  t->parent.assign(static_cast<std::size_t>(n), -1);
  t->children.assign(static_cast<std::size_t>(n), {});
  t->is_leader.assign(static_cast<std::size_t>(n), 0);
  t->leaf_leader.assign(leaf_members.size(), -1);
  // Leaf leaders: the op root leads its own group (the promotion that makes
  // any rank a valid root without regrouping); every other group is led by
  // its minimum rank.
  for (std::size_t g = 0; g < leaf_members.size(); ++g) {
    const auto& ranks = leaf_members[g];
    int lead = ranks.front();  // ascending, so front() is the minimum
    for (int r : ranks) {
      if (r == root) {
        lead = root;
        break;
      }
    }
    t->leaf_leader[g] = lead;
    t->is_leader[static_cast<std::size_t>(lead)] = 1;
  }
  // Heap-attach `nodes` under `head`: ordered = [head, rest ascending],
  // parent of ordered[j] is ordered[(j-1)/fanout] — a complete fanout-ary
  // tree, so depth is logarithmic in the tier size.
  auto attach = [&](const std::vector<int>& nodes, int head) {
    std::vector<int> ordered;
    ordered.reserve(nodes.size());
    ordered.push_back(head);
    for (int r : nodes) {
      if (r != head) ordered.push_back(r);
    }
    for (std::size_t j = 1; j < ordered.size(); ++j) {
      const int p = ordered[(j - 1) / static_cast<std::size_t>(fanout)];
      t->parent[static_cast<std::size_t>(ordered[j])] = p;
      t->children[static_cast<std::size_t>(p)].push_back(ordered[j]);
    }
  };
  // Tier by tier: leaf leaders group by drawer, drawer heads by supernode,
  // and whatever tier remains hangs under the root. The root heads every
  // group it belongs to, so it survives to the top by construction.
  std::vector<int> cur = t->leaf_leader;
  std::sort(cur.begin(), cur.end());
  for (int level = 1; level < levels; ++level) {
    std::map<int, std::vector<int>> by;
    for (int r : cur) {
      by[domain[static_cast<std::size_t>(r)][static_cast<std::size_t>(level)]]
          .push_back(r);
    }
    std::vector<int> next;
    for (auto& [d, nodes] : by) {
      int head = nodes.front();
      for (int r : nodes) {
        if (r == root) {
          head = root;
          break;
        }
      }
      attach(nodes, head);
      next.push_back(head);
    }
    std::sort(next.begin(), next.end());
    cur = std::move(next);
  }
  attach(cur, root);
  int depth = 1;
  for (int r = 0; r < n; ++r) {
    if (t->is_leader[static_cast<std::size_t>(r)] == 0) continue;
    int d = 0;
    for (int p = r; t->parent[static_cast<std::size_t>(p)] != -1;
         p = t->parent[static_cast<std::size_t>(p)]) {
      ++d;
    }
    depth = std::max(depth, d);
  }
  t->depth = depth;
  slot = std::move(t);
  return *slot;
}

TeamState::TeamState(std::uint64_t team_id, TeamMode m, std::vector<int> mem)
    : id(team_id), mode(m), members(std::move(mem)) {
  for (int r = 0; r < static_cast<int>(members.size()); ++r) {
    rank_of[members[static_cast<std::size_t>(r)]] = r;
  }
  per.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    per.push_back(std::make_unique<Member>());
  }
  src_ptrs.assign(members.size(), nullptr);
}

namespace {
std::mutex g_registry_mu;
std::unordered_map<std::uint64_t, std::shared_ptr<TeamState>> g_registry;

/// Mail that arrived (as a frame task) before this process created the team
/// it addresses — possible only across processes, where each place builds
/// its registry independently and a fast sender can beat the receiver's
/// get_or_create. Drained, in arrival order, when the team appears.
struct PendingMail {
  std::uint64_t seq;
  int tag;
  int src_rank;
  int dst_rank;
  Mail payload;
};
std::unordered_map<std::uint64_t, std::vector<PendingMail>> g_pending;

/// Files one payload into the destination member's mailbox. Lock order is
/// registry -> member everywhere (get_or_create drains pending mail while
/// holding the registry lock), never the reverse.
void file_mail(TeamState& team, std::uint64_t seq, int tag, int src_rank,
               int dst_rank, Mail payload) {
  if (dst_rank < 0 || dst_rank >= static_cast<int>(team.per.size())) {
    std::fprintf(stderr,
                 "[apgas] fatal: team mail frame addresses rank %d of team "
                 "%llu (size %zu)\n",
                 dst_rank, static_cast<unsigned long long>(team.id),
                 team.per.size());
    std::abort();
  }
  auto& member = *team.per[static_cast<std::size_t>(dst_rank)];
  std::scoped_lock lock(member.mu);
  member.mail.emplace(std::make_tuple(seq, tag, src_rank),
                      std::move(payload));
}

/// The registered frame task carrying emulated/hierarchical Team mail:
/// [team_id u64][seq u64][tag i32][src_rank i32][dst_rank i32][payload raw].
/// Registered pre-main (pre-fork), so every place process of one binary
/// agrees on the id — the same contract as every other frame task. The
/// payload is the frame's unread suffix; the task keeps the frame's storage
/// (the transport then has nothing to recycle) rather than copying it out.
void team_mail_task(x10rt::ByteBuffer& b) {
  const auto team_id = b.get<std::uint64_t>();
  const auto seq = b.get<std::uint64_t>();
  const int tag = b.get<std::int32_t>();
  const int src_rank = b.get<std::int32_t>();
  const int dst_rank = b.get<std::int32_t>();
  Mail payload;
  payload.off = b.position();
  payload.frame = b.take_data();
  std::shared_ptr<TeamState> team;
  {
    std::scoped_lock lock(g_registry_mu);
    auto it = g_registry.find(team_id);
    if (it == g_registry.end()) {
      g_pending[team_id].push_back(
          {seq, tag, src_rank, dst_rank, std::move(payload)});
      return;
    }
    team = it->second;
  }
  file_mail(*team, seq, tag, src_rank, dst_rank, std::move(payload));
}
}  // namespace

const int kTeamMailTask = apgas::register_task_fn(&team_mail_task);

std::shared_ptr<TeamState> get_or_create(std::uint64_t id, TeamMode mode,
                                         const std::vector<int>& members) {
  std::scoped_lock lock(g_registry_mu);
  auto& slot = g_registry[id];
  if (!slot) {
    slot = std::make_shared<TeamState>(id, mode, members);
    // Deliver mail frames that raced ahead of this process's create.
    if (auto it = g_pending.find(id); it != g_pending.end()) {
      for (auto& m : it->second) {
        file_mail(*slot, m.seq, m.tag, m.src_rank, m.dst_rank,
                  std::move(m.payload));
      }
      g_pending.erase(it);
    }
  }
  assert(slot->members == members && slot->mode == mode &&
         "team id collision with different membership");
  return slot;
}

void registry_clear() {
  std::scoped_lock lock(g_registry_mu);
  g_registry.clear();
  g_pending.clear();
  auto& s = hier_stats();
  s.levels.store(0, std::memory_order_relaxed);
  s.leaders.store(0, std::memory_order_relaxed);
  s.chunks.store(0, std::memory_order_relaxed);
  s.chunk_bytes.store(0, std::memory_order_relaxed);
}

}  // namespace team_detail

Team Team::world(TeamMode mode) {
  std::vector<int> members(static_cast<std::size_t>(num_places()));
  for (int p = 0; p < num_places(); ++p) members[static_cast<std::size_t>(p)] = p;
  const std::uint64_t id = mode == TeamMode::kNative         ? 1
                           : mode == TeamMode::kHierarchical ? 2
                                                             : 0;
  return Team(team_detail::get_or_create(id, mode, members));
}

std::uint64_t Team::next_seq() {
  auto& member = *state_->per[static_cast<std::size_t>(rank())];
  std::scoped_lock lock(member.mu);
  return ++member.op_seq;
}

void Team::send_bytes(std::uint64_t seq, int tag, int dst_rank,
                      const void* data, std::size_t n) {
  // Mail rides a registered frame task instead of a closure, so it crosses
  // process boundaries under the socket backend; the in-process backend runs
  // the identical frame path, keeping both backends' accounting equal. The
  // whole immediate frame — fn id, mail header, payload — is built in one
  // exactly sized buffer, the payload's only copy on the way out.
  constexpr std::size_t kMailHeaderBytes =
      sizeof(std::uint64_t) * 2 + sizeof(std::int32_t) * 3;
  const int dst_place = place_of(dst_rank);
  x10rt::ByteBuffer frame = Runtime::open_immediate_frame(
      team_detail::kTeamMailTask, kMailHeaderBytes + n);
  frame.put(state_->id);
  frame.put(seq);
  frame.put(static_cast<std::int32_t>(tag));
  frame.put(static_cast<std::int32_t>(rank()));
  frame.put(static_cast<std::int32_t>(dst_rank));
  if (n != 0) frame.put_raw(data, n);
  Runtime::get().send_immediate_frame(dst_place, std::move(frame),
                                      x10rt::MsgType::kCollective);
}

team_detail::Mail Team::recv_bytes(std::uint64_t seq, int tag, int src_rank) {
  auto& member = *state_->per[static_cast<std::size_t>(rank())];
  const auto key = std::make_tuple(seq, tag, src_rank);
  team_detail::Mail out;
  bool got = false;
  Runtime::get().sched(here()).run_until([&] {
    std::scoped_lock lock(member.mu);
    auto it = member.mail.find(key);
    if (it == member.mail.end()) return false;
    out = std::move(it->second);
    member.mail.erase(it);
    got = true;
    return true;
  });
  if (!got) {
    // Must never happen: run_until only returns once the predicate holds.
    // Under NDEBUG an assert would compile out and silently hand an empty
    // payload to the collective; abort loudly instead (same policy as
    // Activity::take_credit_share).
    std::fprintf(stderr,
                 "[apgas] fatal: Team::recv_bytes returned without a matching "
                 "mail entry (team=%llu seq=%llu tag=%d src_rank=%d)\n",
                 static_cast<unsigned long long>(state_->id),
                 static_cast<unsigned long long>(seq), tag, src_rank);
    std::abort();
  }
  return out;
}

void Team::barrier() {
  team_detail::PhaseScope phase(team_detail::kOpBarrier, state_->id);
  const int sz = size();
  if (sz == 1) return;
  const TeamMode m = effective_mode();
  if (m == TeamMode::kNative) {
    native_barrier();
    return;
  }
  if (m == TeamMode::kHierarchical) {
    hier_barrier();
    return;
  }
  // Dissemination barrier: ceil(log2(n)) rounds of partner signalling.
  const std::uint64_t seq = next_seq();
  const int me = rank();
  for (int round = 0, dist = 1; dist < sz; ++round, dist <<= 1) {
    send_bytes(seq, /*tag=*/100 + round, (me + dist) % sz, nullptr, 0);
    (void)recv_bytes(seq, /*tag=*/100 + round, (me + sz - dist) % sz);
  }
}

std::array<std::uint64_t, 4> Team::hier_claim(std::uint64_t pub_delta,
                                              std::uint64_t arrive_delta,
                                              std::uint64_t done_delta) {
  auto& member = *state_->per[static_cast<std::size_t>(rank())];
  std::scoped_lock lock(member.mu);
  const std::array<std::uint64_t, 4> out{++member.op_seq, member.g_pub,
                                         member.g_arrive, member.g_done};
  member.g_pub += pub_delta;
  member.g_arrive += arrive_delta;
  member.g_done += done_delta;
  return out;
}

void Team::notify_group(const team_detail::Hierarchy& h, int me) {
  const int gi = h.leaf_of[static_cast<std::size_t>(me)];
  for (int r : h.leaf_members[static_cast<std::size_t>(gi)]) {
    if (r != me) Runtime::get().transport().notify(place_of(r));
  }
}

/// Hierarchical barrier: members bump the group `arrive` counter and wait
/// for one `pub` release; leaf leaders gather (local arrivals, then mail
/// from tree children), signal up the per-root tree, wait for the release
/// wave coming back down, relay it to children, and finally publish to
/// their own group.
void Team::hier_barrier() {
  auto& h = state_->hierarchy();
  const auto& tree = h.tree_for(/*root=*/0);
  const int me = rank();
  const int gi = h.leaf_of[static_cast<std::size_t>(me)];
  auto& g = *h.groups[static_cast<std::size_t>(gi)];
  const std::size_t gsize = h.leaf_members[static_cast<std::size_t>(gi)].size();
  const auto [seq, pub_base, arrive_base, done_base] =
      hier_claim(/*pub=*/1, /*arrive=*/gsize - 1, /*done=*/0);
  (void)done_base;
  if (tree.is_leader[static_cast<std::size_t>(me)]) {
    if (gsize > 1) {
      const std::uint64_t want = arrive_base + (gsize - 1);
      Runtime::get().sched(here()).run_until([&g, want] {
        return g.arrive.load(std::memory_order_acquire) >= want;
      });
    }
    for (int c : tree.children[static_cast<std::size_t>(me)]) {
      (void)recv_bytes(seq, team_detail::kTagBarrierUp, c);
    }
    if (tree.parent[static_cast<std::size_t>(me)] != -1) {
      const int parent = tree.parent[static_cast<std::size_t>(me)];
      send_bytes(seq, team_detail::kTagBarrierUp, parent, nullptr, 0);
      (void)recv_bytes(seq, team_detail::kTagBarrierDown, parent);
    }
    for (int c : tree.children[static_cast<std::size_t>(me)]) {
      send_bytes(seq, team_detail::kTagBarrierDown, c, nullptr, 0);
    }
    if (gsize > 1) {
      g.pub.fetch_add(1, std::memory_order_release);
      notify_group(h, me);
    }
  } else {
    g.arrive.fetch_add(1, std::memory_order_release);
    const int leader = tree.leaf_leader[static_cast<std::size_t>(gi)];
    Runtime::get().transport().notify(place_of(leader));
    const std::uint64_t want = pub_base + 1;
    Runtime::get().sched(here()).run_until([&g, want] {
      return g.pub.load(std::memory_order_acquire) >= want;
    });
  }
}

void Team::native_barrier() {
  auto& state = *state_;
  const int sz = size();
  const std::uint64_t gen = state.barrier_gen.load(std::memory_order_acquire);
  if (state.barrier_count.fetch_add(1, std::memory_order_acq_rel) + 1 == sz) {
    state.barrier_count.store(0, std::memory_order_relaxed);
    state.barrier_gen.fetch_add(1, std::memory_order_acq_rel);
    // Wake members parked on their transport inboxes.
    for (int p : state.members) Runtime::get().transport().notify(p);
    return;
  }
  Runtime::get().sched(here()).run_until([&state, gen] {
    return state.barrier_gen.load(std::memory_order_acquire) != gen;
  });
}

std::byte* Team::native_stage(std::size_t bytes) {
  auto& state = *state_;
  if (rank() == 0) {
    std::scoped_lock lock(state.shared_mu);
    if (state.shared_buf.size() < bytes) state.shared_buf.resize(bytes);
  }
  native_barrier();
  return state.shared_buf.data();
}

Team Team::split(int color, int key) {
  team_detail::PhaseScope phase(team_detail::kOpSplit, state_->id);
  struct Entry {
    int color;
    int key;
    int rank;
    int place;
    std::uint64_t seq;  // sender's op count entering the split
  };
  const int sz = size();
  const int me = rank();
  // The derived team id hangs off the parent's op count, so the count must
  // be read under the member lock (collectives on other worker threads bump
  // it via next_seq) and *before* the allgather below advances it — the
  // post-allgather value would race with whatever collective runs next.
  std::uint64_t my_seq;
  {
    auto& member = *state_->per[static_cast<std::size_t>(me)];
    std::scoped_lock lock(member.mu);
    my_seq = member.op_seq;
  }
  std::vector<Entry> entries(static_cast<std::size_t>(sz));
  const Entry mine{color, key, me, here(), my_seq};
  allgather(&mine, entries.data(), 1);

  std::vector<Entry> same;
  for (const auto& e : entries) {
    // Every member must enter the split at the same op count, or the
    // "identical derived id" assumption the registry rendezvous depends on
    // is already broken — fail here, not at the id-collision assert.
    assert(e.seq == my_seq &&
           "Team::split members entered at different op counts");
    if (e.color == color) same.push_back(e);
  }
  std::sort(same.begin(), same.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.key, a.rank) < std::tie(b.key, b.rank);
  });
  std::vector<int> members;
  members.reserve(same.size());
  for (const auto& e : same) members.push_back(e.place);

  // Deterministic id every member computes identically: derived from the
  // parent team, the color, and the parent's op count entering the split.
  const std::uint64_t id = (state_->id * 1315423911ULL) ^
                           (static_cast<std::uint64_t>(color) << 32) ^ my_seq ^
                           0x51ed2701ULL;
  return Team(team_detail::get_or_create(id, state_->mode, members));
}

}  // namespace apgas
