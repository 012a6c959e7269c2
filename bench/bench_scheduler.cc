// Scheduler + transport fast-path microbenchmarks (ISSUE 2 baseline +
// acceptance measurements). Three probes, each isolating one hot path the
// work-stealing overhaul targets:
//   (a) spawn  — spawn-to-completion throughput of empty tasks under one
//                finish at 1/2/4 workers per place (push/pop/notify cost);
//   (b) steal  — the same task count produced by a single worker so sibling
//                workers must steal everything they run (steal throughput
//                under imbalanced spawn);
//   (c) pump   — back-to-back send_am pairs through the raw transport
//                (per-message lock cost of the poll path), plus the batched
//                drain variant, as min-of-means over 40 interleaved reps;
//   (d) remote_spawn — 4 places x 1 worker, each spawning 64 typed 64-byte
//                tasks at every other place under one finish: ns per remote
//                spawn on the sender (send_ns) and for the whole step
//                (step_ns), min-of-means over the reps.
// Writes machine-readable JSON (BENCH_scheduler.json, override with
// APGAS_BENCH_OUT) so before/after runs can be committed side by side.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "runtime/api.h"
#include "x10rt/transport.h"

using namespace apgas;

namespace {

double now_secs() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpawnResult {
  int workers = 0;
  int tasks = 0;
  double secs = 0;
  double tasks_per_sec = 0;
  std::uint64_t steals = 0;
  std::uint64_t overflow = 0;
};

/// (a) Flat spawn burst: the finish body spawns `tasks` empty activities.
/// Every worker both produces (its stolen tasks spawn nothing) and consumes.
SpawnResult run_spawn(int workers, int tasks, int reps) {
  SpawnResult r;
  r.workers = workers;
  r.tasks = tasks;
  r.secs = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    Config cfg;
    cfg.places = 1;
    cfg.workers_per_place = workers;
    std::atomic<long> ran{0};
    double secs = 0;
    Runtime::run(cfg, [&] {
      const double t0 = now_secs();
      finish([&] {
        for (int i = 0; i < tasks; ++i) {
          async([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        }
      });
      secs = now_secs() - t0;
    });
    if (ran.load() != tasks) {
      std::fprintf(stderr, "spawn bench lost tasks: %ld != %d\n", ran.load(),
                   tasks);
      std::exit(1);
    }
    r.secs = std::min(r.secs, secs);
    const auto& m = last_run_metrics();
    auto it = m.find("sched.p0.steals");
    if (it != m.end()) r.steals = it->second;
    it = m.find("sched.p0.overflow");
    if (it != m.end()) r.overflow = it->second;
  }
  r.tasks_per_sec = r.tasks / r.secs;
  return r;
}

/// (b) Imbalanced spawn: one producer activity owns all spawns; with W > 1
/// the siblings only make progress by stealing. Tasks carry a little work so
/// the producer cannot drain its own deque faster than thieves can steal.
SpawnResult run_steal(int workers, int tasks, int reps) {
  SpawnResult r;
  r.workers = workers;
  r.tasks = tasks;
  r.secs = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    Config cfg;
    cfg.places = 1;
    cfg.workers_per_place = workers;
    std::atomic<long> ran{0};
    double secs = 0;
    Runtime::run(cfg, [&] {
      const double t0 = now_secs();
      finish([&] {
        async([&ran, tasks = r.tasks] {
          for (int i = 0; i < tasks; ++i) {
            async([&ran] {
              // ~100ns of private work per task.
              volatile int sink = 0;
              for (int k = 0; k < 32; ++k) sink = sink + k;
              ran.fetch_add(1, std::memory_order_relaxed);
            });
          }
        });
      });
      secs = now_secs() - t0;
    });
    if (ran.load() != tasks) {
      std::fprintf(stderr, "steal bench lost tasks: %ld != %d\n", ran.load(),
                   tasks);
      std::exit(1);
    }
    r.secs = std::min(r.secs, secs);
    const auto& m = last_run_metrics();
    auto it = m.find("sched.p0.steals");
    if (it != m.end()) r.steals = std::max(r.steals, it->second);
    it = m.find("sched.p0.overflow");
    if (it != m.end()) r.overflow = std::max(r.overflow, it->second);
  }
  r.tasks_per_sec = r.tasks / r.secs;
  return r;
}

struct PumpResult {
  std::string mode;
  int msgs = 0;
  double secs = 1e30;  // fastest rep (the min of per-rep means)
  double msgs_per_sec = 0;
};

/// (c) Message pump, one rep of `mode` over `msgs` messages; returns seconds.
///   poll       — place 0 sends an AM to place 1 whose handler replies to
///                place 0, the caller drains both inboxes: two send_am and
///                two poll operations per pair (msgs / 2 pairs);
///   poll_flood — one-way flood of msgs AMs drained one poll() per message;
///   poll_batch — the same flood drained with poll_batch(32).
double pump_once(const std::string& mode, int msgs) {
  const bool pairs = mode == "poll";
  const int n = pairs ? msgs / 2 : msgs;  // sends from place 0
  x10rt::TransportConfig tc;
  tc.places = 2;
  tc.dma_threads = 0;
  x10rt::Transport tr(tc);
  long received = 0;
  const int sink = tr.register_am([&received](x10rt::ByteBuffer&) {
    ++received;
  });
  const int echo = tr.register_am([&tr, sink](x10rt::ByteBuffer&) {
    tr.send_am(1, 0, sink, x10rt::ByteBuffer{});
  });
  std::deque<x10rt::Message> batch;
  auto drain_batch = [&tr, &batch] {
    const std::size_t got = tr.poll_batch(1, batch, 32);
    while (!batch.empty()) {
      batch.front().run();
      batch.pop_front();
    }
    return got;
  };
  const double t0 = now_secs();
  if (pairs) {
    for (int i = 0; i < n; ++i) {
      tr.send_am(0, 1, echo, x10rt::ByteBuffer{});
      while (auto m = tr.poll(1)) m->run();
      while (auto m = tr.poll(0)) m->run();
    }
  } else {
    const bool batched = mode == "poll_batch";
    for (int i = 0; i < n; ++i) {
      tr.send_am(0, 1, sink, x10rt::ByteBuffer{});
      if ((i & 31) != 31) continue;
      if (batched) {
        drain_batch();
      } else {
        while (auto m = tr.poll(1)) m->run();
      }
    }
    if (batched) {
      while (drain_batch() != 0) {
      }
    } else {
      while (auto m = tr.poll(1)) m->run();
    }
  }
  const double secs = now_secs() - t0;
  if (received != n) {
    std::fprintf(stderr, "%s bench lost messages: %ld != %d\n", mode.c_str(),
                 received, n);
    std::exit(1);
  }
  return secs;
}

/// The three pump modes as min-of-means over `reps` short reps, interleaved
/// mode by mode so host noise (steal, frequency) spreads over all of them.
std::vector<PumpResult> run_pumps(int msgs, int reps) {
  std::vector<PumpResult> out{
      {"poll", msgs}, {"poll_flood", msgs}, {"poll_batch", msgs}};
  for (int rep = 0; rep < reps; ++rep) {
    for (auto& r : out) r.secs = std::min(r.secs, pump_once(r.mode, r.msgs));
  }
  for (auto& r : out) r.msgs_per_sec = r.msgs / r.secs;
  return out;
}

// (d) Remote spawn: 4 places x 1 worker, each place spawning kSpawnsPerPair
// typed 64-byte tasks at every other place under one finish — the frame
// build + send + receive + dispatch path of asyncAtArgs.
constexpr int kSpawnPlaces = 4;
constexpr int kSpawnsPerPair = 64;

struct Payload64 {
  std::uint64_t w[8];
};

std::atomic<long> g_spawn_ran{0};
std::atomic<long> g_spawn_bad{0};
std::atomic<std::uint64_t> g_spawn_send_ns{0};

void spawn_leaf(Payload64 p) {
  bool ok = true;
  for (int i = 1; i < 8; ++i) ok = ok && p.w[i] == p.w[0] + i;
  if (!ok) g_spawn_bad.fetch_add(1, std::memory_order_relaxed);
  g_spawn_ran.fetch_add(1, std::memory_order_relaxed);
}
const RemoteFn<Payload64> kSpawnLeaf{&spawn_leaf};

void spawn_burst(std::uint64_t rep) {
  const int me = here();
  const auto t0 = std::chrono::steady_clock::now();
  for (int p = 0; p < num_places(); ++p) {
    if (p == me) continue;
    for (int i = 0; i < kSpawnsPerPair; ++i) {
      Payload64 l;
      l.w[0] = rep * 1000003u + static_cast<std::uint64_t>(i);
      for (int k = 1; k < 8; ++k) l.w[k] = l.w[0] + k;
      asyncAtArgs(p, kSpawnLeaf, l);
    }
  }
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  g_spawn_send_ns.fetch_add(static_cast<std::uint64_t>(ns),
                            std::memory_order_relaxed);
}
const RemoteFn<std::uint64_t> kSpawnBurst{&spawn_burst};

struct RemoteSpawnResult {
  long spawns = 0;             // remote spawns per rep
  double send_ns = 1e30;       // sender loop time per remote spawn
  double step_ns = 1e30;       // finish wall time per remote spawn
  bool verified = true;
};

/// One Runtime::run with `reps` bursts; each metric is the min over reps of
/// that rep's mean per remote spawn.
RemoteSpawnResult run_remote_spawn(int reps) {
  RemoteSpawnResult r;
  r.spawns = static_cast<long>(kSpawnPlaces) * (kSpawnPlaces - 1) *
             kSpawnsPerPair;
  Config cfg;
  bench::observe_places(cfg, kSpawnPlaces);
  cfg.workers_per_place = 1;
  cfg.dma_threads = 0;
  Runtime::run(cfg, [&r, reps] {
    for (int rep = 0; rep < reps; ++rep) {
      g_spawn_ran.store(0);
      g_spawn_send_ns.store(0);
      const double t0 = now_secs();
      finish([rep] {
        for (int p = 0; p < num_places(); ++p) {
          asyncAtArgs(p, kSpawnBurst, static_cast<std::uint64_t>(rep));
        }
      });
      const double wall = now_secs() - t0;
      r.verified = r.verified && g_spawn_ran.load() == r.spawns;
      r.step_ns = std::min(r.step_ns, wall * 1e9 / r.spawns);
      r.send_ns = std::min(r.send_ns,
                           static_cast<double>(g_spawn_send_ns.load()) /
                               r.spawns);
    }
  });
  r.verified = r.verified && g_spawn_bad.load() == 0;
  return r;
}

}  // namespace

int main() {
  const int kTasks = 100000;
  const int kReps = 3;
  const int kPumpMsgs = 20000;
  const int kPumpReps = 40;
  const int kSpawnReps = 200;

  bench::header("scheduler — spawn-to-completion throughput (empty tasks)");
  bench::row("%8s %10s %10s %14s %10s %10s", "workers", "tasks", "secs",
             "tasks/s", "steals", "overflow");
  std::vector<SpawnResult> spawn;
  for (int w : {1, 2, 4}) {
    spawn.push_back(run_spawn(w, kTasks, kReps));
    const auto& r = spawn.back();
    bench::row("%8d %10d %10.4f %14.0f %10llu %10llu", r.workers, r.tasks,
               r.secs, r.tasks_per_sec,
               static_cast<unsigned long long>(r.steals),
               static_cast<unsigned long long>(r.overflow));
  }

  bench::header("scheduler — steal throughput (single-producer spawn)");
  bench::row("%8s %10s %10s %14s %10s %10s", "workers", "tasks", "secs",
             "tasks/s", "steals", "overflow");
  std::vector<SpawnResult> steal;
  for (int w : {1, 2, 4}) {
    steal.push_back(run_steal(w, kTasks, kReps));
    const auto& r = steal.back();
    bench::row("%8d %10d %10.4f %14.0f %10llu %10llu", r.workers, r.tasks,
               r.secs, r.tasks_per_sec,
               static_cast<unsigned long long>(r.steals),
               static_cast<unsigned long long>(r.overflow));
  }

  bench::header(
      "transport — message pump (min of per-rep means, interleaved reps)");
  bench::row("%12s %10s %6s %10s %14s", "mode", "msgs", "reps", "secs",
             "msgs/s");
  const std::vector<PumpResult> pump = run_pumps(kPumpMsgs, kPumpReps);
  for (const auto& r : pump) {
    bench::row("%12s %10d %6d %10.6f %14.0f", r.mode.c_str(), r.msgs,
               kPumpReps, r.secs, r.msgs_per_sec);
  }

  bench::header(
      "runtime — remote spawn, 4 places x 1 worker (min of per-rep means)");
  bench::row("%10s %6s %12s %12s %9s", "spawns", "reps", "send_ns", "step_ns",
             "verified");
  const RemoteSpawnResult rs = run_remote_spawn(kSpawnReps);
  bench::row("%10ld %6d %12.1f %12.1f %9s", rs.spawns, kSpawnReps, rs.send_ns,
             rs.step_ns, bench::verified(rs.verified));

  const char* out = std::getenv("APGAS_BENCH_OUT");
  const std::string path = out != nullptr ? out : "BENCH_scheduler.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"scheduler\",\n  \"spawn\": [\n");
  for (std::size_t i = 0; i < spawn.size(); ++i) {
    const auto& r = spawn[i];
    std::fprintf(f,
                 "    {\"workers\": %d, \"tasks\": %d, \"secs\": %.6f, "
                 "\"tasks_per_sec\": %.0f, \"steals\": %llu, "
                 "\"overflow\": %llu}%s\n",
                 r.workers, r.tasks, r.secs, r.tasks_per_sec,
                 static_cast<unsigned long long>(r.steals),
                 static_cast<unsigned long long>(r.overflow),
                 i + 1 < spawn.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"steal\": [\n");
  for (std::size_t i = 0; i < steal.size(); ++i) {
    const auto& r = steal[i];
    std::fprintf(f,
                 "    {\"workers\": %d, \"tasks\": %d, \"secs\": %.6f, "
                 "\"tasks_per_sec\": %.0f, \"steals\": %llu, "
                 "\"overflow\": %llu}%s\n",
                 r.workers, r.tasks, r.secs, r.tasks_per_sec,
                 static_cast<unsigned long long>(r.steals),
                 static_cast<unsigned long long>(r.overflow),
                 i + 1 < steal.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"pump\": [\n");
  for (std::size_t i = 0; i < pump.size(); ++i) {
    const auto& r = pump[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"msgs\": %d, \"secs\": %.6f, "
                 "\"msgs_per_sec\": %.0f}%s\n",
                 r.mode.c_str(), r.msgs, r.secs, r.msgs_per_sec,
                 i + 1 < pump.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"remote_spawn\": {\"spawns\": %ld, \"reps\": %d, "
               "\"send_ns\": %.1f, \"step_ns\": %.1f, \"verified\": %s}\n}\n",
               rs.spawns, kSpawnReps, rs.send_ns, rs.step_ns,
               rs.verified ? "true" : "false");
  std::fclose(f);
  std::printf("\n[wrote %s]\n", path.c_str());
  return bench::exit_status();
}
