// §3.1 (no figure, load-bearing claims): control-message cost of each finish
// implementation. The paper: specialized finishes "start to make a
// difference with hundreds of places and become critical with thousands";
// FINISH_DENSE shapes traffic through node masters, bounding out-degree.
// Message counts are exact and hardware-independent.
#include <algorithm>

#include "bench_common.h"
#include "runtime/api.h"

using namespace apgas;

namespace {

struct Pattern {
  const char* name;
  Pragma pragma;
};

// SPMD-style fan-out: one activity per place (the FINISH_SPMD use case).
void run_fanout(Pragma pragma, int places, std::uint64_t& ctrl_msgs,
                std::uint64_t& ctrl_bytes, double& secs) {
  Config cfg;
  cfg.places = places;
  cfg.places_per_node = 8;
  Runtime::run(cfg, [&] {
    auto& tr = Runtime::get().transport();
    tr.reset_stats();
    const auto t0 = std::chrono::steady_clock::now();
    for (int round = 0; round < 20; ++round) {
      finish(pragma, [&] {
        for (int p = 1; p < num_places(); ++p) asyncAt(p, [] {});
      });
    }
    const auto t1 = std::chrono::steady_clock::now();
    ctrl_msgs = tr.count(x10rt::MsgType::kControl);
    ctrl_bytes = tr.bytes(x10rt::MsgType::kControl);
    secs = std::chrono::duration<double>(t1 - t0).count();
  });
}

void run_dense_pattern(Pragma pragma, int places, std::uint64_t& ctrl_msgs,
                       int& out_degree) {
  Config cfg;
  cfg.places = places;
  cfg.places_per_node = 8;
  cfg.count_pairs = true;
  Runtime::run(cfg, [&] {
    auto& tr = Runtime::get().transport();
    tr.reset_stats();
    // The paper's FINISH_DENSE example verbatim (§3.1): nested finishes,
    // one homed at every place, with direct communication between any two
    // places — so under DEFAULT every place reports its counter block (once
    // per drain) to every other place's finish home.
    finish(pragma, [&, pragma] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [pragma] {
          finish(pragma, [pragma] {
            for (int q = 0; q < num_places(); ++q) {
              asyncAt(q, [] {});
            }
          });
        });
      }
    });
    ctrl_msgs = tr.count(x10rt::MsgType::kControl);
    out_degree = tr.max_ctrl_out_degree();
  });
}

}  // namespace

int main() {
  bench::header("§3.1 — finish implementations: SPMD fan-out, 20 rounds");
  bench::row("%8s %14s %12s %12s %10s", "places", "finish", "ctrl msgs",
             "ctrl bytes", "time (s)");
  const Pattern patterns[] = {
      {"DEFAULT", Pragma::kDefault},
      {"FINISH_SPMD", Pragma::kSpmd},
      {"FINISH_DENSE", Pragma::kDense},
  };
  for (int places : bench::sweep_places(32)) {
    for (const auto& pat : patterns) {
      std::uint64_t msgs = 0, bytes = 0;
      double secs = 0;
      run_fanout(pat.pragma, places, msgs, bytes, secs);
      bench::row("%8d %14s %12llu %12llu %10.3f", places, pat.name,
                 static_cast<unsigned long long>(msgs),
                 static_cast<unsigned long long>(bytes), secs);
    }
  }

  bench::header(
      "§3.1 — FINISH_DENSE software routing: all-to-all spawn graph");
  bench::row("%8s %14s %12s %14s", "places", "finish", "ctrl msgs",
             "ctrl out-degree");
  // FINISH_SPMD is excluded here: remote activities spawning under the
  // governing finish is exactly the pattern SPMD forbids (the runtime
  // asserts); dense irregular graphs are what DEFAULT vs DENSE is about.
  const Pattern dense_patterns[] = {
      {"DEFAULT", Pragma::kDefault},
      {"FINISH_DENSE", Pragma::kDense},
  };
  for (int places : {8, 16, 32}) {
    for (const auto& pat : dense_patterns) {
      std::uint64_t msgs = 0;
      int deg = 0;
      run_dense_pattern(pat.pragma, places, msgs, deg);
      bench::row("%8d %14s %12llu %14d", places, pat.name,
                 static_cast<unsigned long long>(msgs), deg);
    }
  }
  bench::row("(paper: default finish is O(n^2) space and floods the root;"
             " specialized finishes are exact-count; DENSE routes via one"
             " master per node — b places per node, here 8)");

  bench::header(
      "§3.1 — dynamic optimization: plain finish assumes locality");
  bench::row("%8s %12s %12s %12s", "places", "mode", "ctrl msgs", "time (s)");
  for (int places : {4, 16}) {
    for (Pragma pragma : {Pragma::kAuto, Pragma::kDefault}) {
      Config cfg;
      cfg.places = places;
      cfg.places_per_node = 8;
      std::uint64_t msgs = 0;
      double secs = 0;
      Runtime::run(cfg, [&] {
        auto& tr = Runtime::get().transport();
        tr.reset_stats();
        const auto t0 = std::chrono::steady_clock::now();
        // A purely local workload: the optimistic kAuto finish never pays
        // for distribution; forcing the general protocol allocates the
        // matrix every time (no messages either, but heavier state).
        for (int round = 0; round < 2000; ++round) {
          finish(pragma, [] {
            for (int i = 0; i < 4; ++i) async([] {});
          });
        }
        const auto t1 = std::chrono::steady_clock::now();
        msgs = tr.count(x10rt::MsgType::kControl);
        secs = std::chrono::duration<double>(t1 - t0).count();
      });
      bench::row("%8d %12s %12llu %12.4f", places,
                 pragma == Pragma::kAuto ? "kAuto" : "kDefault",
                 static_cast<unsigned long long>(msgs), secs);
    }
  }
  return 0;
}
