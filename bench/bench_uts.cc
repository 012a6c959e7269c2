// Figure 1 "UTS" (paper §6.2): weak-scaling traversal rate of geometric
// trees (b0=4, r=19), depth growing with the place count as in the paper
// (14 at one place to 22 at 55,680). Also reports the load-balance quality
// (max/mean nodes per place), which is the hardware-independent shape of the
// paper's 98% parallel efficiency claim.
#include <algorithm>
#include <chrono>
#include <deque>

#include "bench_common.h"
#include "kernels/uts/uts.h"
#include "runtime/api.h"

namespace {

// --- socket-mode UTS (frame tasks) ------------------------------------------
//
// The GLB traversal above ships closures, which cannot cross a process
// boundary. Under APGAS_BACKEND=socket (apgas_launch) we run a frame-task
// variant instead: place 0 expands the tree breadth-first until the frontier
// is wide enough, then round-robins each frontier subtree to the places as a
// registered task (asyncAtFrame). Every place accumulates its traversal into
// the "uts.nodes" counter; the launcher's metrics aggregation sums the
// counter across place processes, and the parent verifies the total against
// the sequential count. Tree shape is a pure function of the root seed, so
// the partitioned traversal must count exactly the same nodes.

struct UtsFrontierNode {
  kernels::UtsNodeState state;
  int depth = 0;
};

std::uint64_t uts_count_subtree(const kernels::UtsNodeState& s, int depth,
                                double b0, int max_depth) {
  std::uint64_t nodes = 1;
  const int k = kernels::uts_geo_children(s, depth, b0, max_depth);
  for (int i = 0; i < k; ++i) {
    nodes += uts_count_subtree(s.spawn(static_cast<std::uint32_t>(i)),
                               depth + 1, b0, max_depth);
  }
  return nodes;
}

/// Frame: [state 20B][depth i32][b0 double][max_depth i32]
void uts_subtree_task(x10rt::ByteBuffer& args) {
  kernels::UtsNodeState s{};
  args.get_raw(s.digest.data(), s.digest.size());
  const auto depth = args.get<std::int32_t>();
  const auto b0 = args.get<double>();
  const auto max_depth = args.get<std::int32_t>();
  const std::uint64_t n = uts_count_subtree(s, depth, b0, max_depth);
  apgas::Runtime::get().metrics().counter("uts.nodes").fetch_add(
      n, std::memory_order_relaxed);
}

// Registered pre-main, hence pre-fork: every place process agrees on the id.
const int kUtsSubtreeTask = apgas::register_task_fn(&uts_subtree_task);

int run_socket_uts() {
  using namespace apgas;
  Config cfg;
  bench::observe(cfg);  // APGAS_PLACES/APGAS_BACKEND/chaos/metrics knobs

  kernels::UtsParams p;
  if (const char* d = std::getenv("APGAS_UTS_DEPTH")) {
    const int v = std::atoi(d);
    if (v > 0) p.depth = v;
  }
  p.glb.chunk = 128;
  // APGAS_UTS_GLB=1 runs the *real* lifeline GLB across place processes —
  // bags ride the wire through their Ser hooks (ISSUE 10) — instead of the
  // static frontier partitioning below.
  const char* glb_env = std::getenv("APGAS_UTS_GLB");
  const bool use_glb = glb_env != nullptr && glb_env[0] != '\0' &&
                       glb_env[0] != '0';
  const std::uint64_t expected = kernels::uts_sequential(p).nodes;

  const auto t0 = std::chrono::steady_clock::now();
  Runtime::run(cfg, [p, use_glb] {
    using namespace apgas;
    const int P = num_places();
    if (use_glb) {
      glb::Glb<kernels::UtsBag> balancer(p.glb);
      balancer.run(kernels::UtsBag(p, true));
      std::uint64_t nodes = 0;
      for (int q = 0; q < P; ++q) nodes += balancer.bag_at(q).nodes();
      // One counter bump at place 0 with the gathered total: the parent's
      // metrics aggregation then verifies it like the frontier path's.
      Runtime::get().metrics().counter("uts.nodes").fetch_add(
          nodes, std::memory_order_relaxed);
      return;
    }
    std::deque<UtsFrontierNode> frontier;
    frontier.push_back({kernels::UtsNodeState::root(p.seed), 0});
    std::uint64_t expanded = 0;
    while (!frontier.empty() &&
           frontier.size() < static_cast<std::size_t>(P) * 8) {
      const UtsFrontierNode node = frontier.front();
      frontier.pop_front();
      ++expanded;  // the expanded node itself is counted here at place 0
      const int k =
          kernels::uts_geo_children(node.state, node.depth, p.b0, p.depth);
      for (int i = 0; i < k; ++i) {
        frontier.push_back({node.state.spawn(static_cast<std::uint32_t>(i)),
                            node.depth + 1});
      }
    }
    Runtime::get().metrics().counter("uts.nodes").fetch_add(
        expanded, std::memory_order_relaxed);
    int rr = 0;
    for (const UtsFrontierNode& node : frontier) {
      x10rt::ByteBuffer args;
      args.put_raw(node.state.digest.data(), node.state.digest.size());
      args.put<std::int32_t>(node.depth);
      args.put<double>(p.b0);
      args.put<std::int32_t>(p.depth);
      asyncAtFrame(rr++ % P, kUtsSubtreeTask, std::move(args));
    }
  });
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();

  // This process is the supervising parent: last_run_metrics() holds the
  // summed per-place counters.
  const auto& m = last_run_metrics();
  const auto it = m.find("uts.nodes");
  const std::uint64_t nodes = it == m.end() ? 0 : it->second;
  const bool verified = nodes == expected;
  bench::header(use_glb
                    ? "UTS (geometric) — socket backend, lifeline GLB across "
                      "place processes"
                    : "UTS (geometric) — socket backend, one process per "
                      "place");
  bench::row("%8s %6s %14s %14s %10s", "places", "depth", "nodes", "Mnodes/s",
             "verified");
  bench::row("%8d %6d %14llu %14.3f %10s", cfg.places, p.depth,
             static_cast<unsigned long long>(nodes),
             static_cast<double>(nodes) / secs / 1e6, verified ? "yes" : "NO");
  if (!verified) {
    std::fprintf(stderr, "bench_uts: socket-mode count %llu != sequential "
                 "%llu\n",
                 static_cast<unsigned long long>(nodes),
                 static_cast<unsigned long long>(expected));
    return 1;
  }
  return 0;
}

}  // namespace

int main() {
  using namespace apgas;
  if (Config::from_env().backend == BackendKind::kSocket) {
    return run_socket_uts();
  }
  bench::header("Figure 1 / UTS on geometric trees — weak scaling");
  bench::row("%8s %6s %14s %14s %16s %12s %10s", "places", "depth", "nodes",
             "Mnodes/s", "Mnodes/s/place", "imbalance", "verified");
  for (int places : bench::sweep_places()) {
    Config cfg;
    cfg.places_per_node = 8;
    Runtime::run(bench::observe_places(cfg, places), [&] {
      kernels::UtsParams p;
      // Weak scaling: one extra depth level every 4x places (b0 = 4).
      int extra = 0;
      for (int q = places; q >= 4; q /= 4) ++extra;
      p.depth = 10 + extra;
      p.glb.chunk = 128;

      glb::Glb<kernels::UtsBag> balancer(p.glb);
      const auto t0 = std::chrono::steady_clock::now();
      balancer.run(kernels::UtsBag(p, true));
      const auto t1 = std::chrono::steady_clock::now();
      const double secs = std::chrono::duration<double>(t1 - t0).count();

      std::uint64_t nodes = 0;
      std::uint64_t max_nodes = 0;
      for (int q = 0; q < places; ++q) {
        const auto n = balancer.bag_at(q).nodes();
        nodes += n;
        max_nodes = std::max(max_nodes, n);
      }
      const double mean =
          static_cast<double>(nodes) / static_cast<double>(places);
      const bool verified = kernels::uts_sequential(p).nodes == nodes;
      bench::row("%8d %6d %14llu %14.3f %16.4f %11.2fx %10s", places, p.depth,
                 static_cast<unsigned long long>(nodes), nodes / secs / 1e6,
                 nodes / secs / 1e6 / places,
                 static_cast<double>(max_nodes) / mean,
                 bench::verified(verified));
    });
    bench::maybe_emit_metrics("uts.geometric.places" + std::to_string(places));
  }
  bench::row("(paper: 10.929 Mnodes/s/core at 1 core -> 10.712 at 55,680"
             " cores, 98%% efficiency; 69.3T nodes in 116s at scale)");

  bench::header("UTS on binomial trees (deep/narrow, §6.1's hard shape)");
  bench::row("%8s %14s %14s %12s %10s", "places", "nodes", "Mnodes/s",
             "imbalance", "verified");
  for (int places : {1, 4, 8}) {
    Config cfg;
    cfg.places_per_node = 8;
    Runtime::run(bench::observe_places(cfg, places), [&] {
      kernels::UtsParams p;
      p.shape = kernels::UtsShape::kBinomial;
      p.bin_root = 2000;
      p.bin_m = 4;
      p.bin_q = 0.246;  // expected size 2000/(1-mq) ~= 120k nodes
      p.glb.chunk = 128;
      glb::Glb<kernels::UtsBag> balancer(p.glb);
      const auto t0 = std::chrono::steady_clock::now();
      balancer.run(kernels::UtsBag(p, true));
      const auto t1 = std::chrono::steady_clock::now();
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      std::uint64_t nodes = 0;
      std::uint64_t max_nodes = 0;
      for (int q = 0; q < places; ++q) {
        nodes += balancer.bag_at(q).nodes();
        max_nodes = std::max(max_nodes, balancer.bag_at(q).nodes());
      }
      const bool verified = kernels::uts_sequential(p).nodes == nodes;
      bench::row("%8d %14llu %14.3f %11.2fx %10s", places,
                 static_cast<unsigned long long>(nodes), nodes / secs / 1e6,
                 static_cast<double>(max_nodes) * places /
                     static_cast<double>(nodes),
                 bench::verified(verified));
    });
    bench::maybe_emit_metrics("uts.binomial.places" + std::to_string(places));
  }
  return bench::exit_status();
}
