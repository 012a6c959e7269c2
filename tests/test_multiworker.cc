// Multiple workers per place (X10_NTHREADS > 1). The paper's runs use one
// worker per place, but the runtime supports more; these tests exercise the
// work-stealing deques and the remaining locked paths (finish state, remote
// blocks, monitors, team mailboxes) under real intra-place parallelism,
// including a steal-storm stress test and a chaos sweep of all six finish
// protocols at four workers per place. The whole binary carries the `tsan`
// ctest label (see CMakePresets.json) so the lock-free deque is
// TSan-checked in tier-1.
#include "runtime/api.h"
#include "runtime/dist_rail.h"
#include "runtime/metrics.h"
#include "runtime/monitor.h"
#include "runtime/team.h"
#include "x10rt/transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <array>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace {

using namespace apgas;

Config cfg_w(int places, int workers) {
  Config cfg;
  cfg.places = places;
  cfg.workers_per_place = workers;
  cfg.places_per_node = 4;
  return cfg;
}

class WorkerCounts : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Workers, WorkerCounts, ::testing::Values(2, 4));

TEST_P(WorkerCounts, LocalFinishUnderContention) {
  std::atomic<int> n{0};
  Runtime::run(cfg_w(1, GetParam()), [&] {
    finish([&] {
      for (int i = 0; i < 500; ++i) async([&n] { n.fetch_add(1); });
    });
  });
  EXPECT_EQ(n.load(), 500);
}

TEST_P(WorkerCounts, DistributedFinishUnderContention) {
  std::atomic<int> n{0};
  Runtime::run(cfg_w(3, GetParam()), [&] {
    finish([&] {
      for (int i = 0; i < 300; ++i) {
        asyncAt(i % num_places(), [&n] {
          async([&n] { n.fetch_add(1); });
          n.fetch_add(1);
        });
      }
    });
  });
  EXPECT_EQ(n.load(), 600);
}

TEST_P(WorkerCounts, ConcurrentFinishesFromSiblingWorkers) {
  // Two workers at one place can each be blocked in their own finish wait;
  // both must make progress (each pumps the shared inbox).
  std::atomic<int> n{0};
  Runtime::run(cfg_w(2, GetParam()), [&] {
    finish([&] {
      for (int lane = 0; lane < 4; ++lane) {
        async([&n] {
          finish([&n] {
            asyncAt(1, [&n] { n.fetch_add(1); });
          });
          n.fetch_add(1);
        });
      }
    });
  });
  EXPECT_EQ(n.load(), 8);
}

TEST_P(WorkerCounts, MonitorsSerializeAcrossWorkers) {
  long counter = 0;
  Runtime::run(cfg_w(1, GetParam()), [&] {
    finish([&] {
      for (int i = 0; i < 600; ++i) {
        async([&counter] { atomic_do([&counter] { ++counter; }); });
      }
    });
  });
  EXPECT_EQ(counter, 600);
}

TEST_P(WorkerCounts, RemoteOpsFromParallelWorkers) {
  Config cfg = cfg_w(2, GetParam());
  cfg.congruent_bytes = 4u << 20;
  Runtime::run(cfg, [&] {
    auto& space = Runtime::get().congruent();
    auto cell = space.alloc<std::uint64_t>(1);
    *space.at_place(1, cell) = 0;
    finish([&] {
      for (int i = 0; i < 400; ++i) {
        async([cell] { remote_add(global_rail(cell, 1), 0, 1); });
      }
    });
    EXPECT_EQ(*space.at_place(1, cell), 400u);
  });
}

TEST(StealStorm, SingleProducerManyThieves) {
  // One producer activity spawns 100k tasks into its own deque; the other
  // three workers can only make progress by stealing from its top. Asserts
  // every task ran exactly once and that stealing actually happened (the
  // counter is also how the bench's acceptance criterion is audited).
  constexpr int kTasks = 100000;
  std::atomic<long> ran{0};
  Runtime::run(cfg_w(1, 4), [&] {
    finish([&] {
      async([&ran] {
        for (int i = 0; i < kTasks; ++i) {
          async([&ran] {
            // A little private work so the producer cannot outrun thieves.
            volatile int sink = 0;
            for (int k = 0; k < 16; ++k) sink = sink + k;
            ran.fetch_add(1, std::memory_order_relaxed);
          });
        }
      });
    });
    EXPECT_EQ(ran.load(), kTasks);
  });
  const auto& m = last_run_metrics();
  EXPECT_EQ(ran.load(), kTasks);
  ASSERT_NE(m.find("sched.p0.steals"), m.end());
  EXPECT_GT(m.at("sched.p0.steals"), 0u);
}

TEST(StealStorm, NestedSpawnsAcrossWorkers) {
  // Recursive fan-out: stolen tasks spawn into the thief's own deque, so
  // every worker is simultaneously producer and victim.
  std::atomic<long> ran{0};
  Runtime::run(cfg_w(1, 4), [&] {
    finish([&] {
      for (int i = 0; i < 64; ++i) {
        async([&ran] {
          for (int j = 0; j < 64; ++j) {
            async([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
          }
          ran.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  });
  EXPECT_EQ(ran.load(), 64 * 64 + 64);
}

// --- chaos sweep at four workers per place ----------------------------------
// The single-worker sweep lives in test_chaos_sweep.cc; this one re-runs a
// compact workload for each of the six finish protocols with message chaos
// *and* intra-place work stealing active at once.

Config chaos4_cfg(std::uint64_t seed, int places = 4) {
  Config cfg;
  cfg.places = places;
  cfg.workers_per_place = 4;
  cfg.places_per_node = 2;  // dense routing really relays
  cfg.chaos.delay_prob = 0.3;
  cfg.chaos.seed = seed;
  return cfg;
}

constexpr std::uint64_t kChaosSeeds[] = {0x1ULL, 0xdeadbeefULL,
                                         0x9e3779b97f4a7c15ULL};

class ChaosFourWorkers : public ::testing::TestWithParam<Pragma> {};
INSTANTIATE_TEST_SUITE_P(Protocols, ChaosFourWorkers,
                         ::testing::Values(Pragma::kLocal, Pragma::kAsync,
                                           Pragma::kHere, Pragma::kSpmd,
                                           Pragma::kDense, Pragma::kDefault),
                         [](const auto& info) {
                           switch (info.param) {
                             case Pragma::kLocal: return "Local";
                             case Pragma::kAsync: return "Async";
                             case Pragma::kHere: return "Here";
                             case Pragma::kSpmd: return "Spmd";
                             case Pragma::kDense: return "Dense";
                             case Pragma::kDefault: return "Default";
                             default: return "Auto";
                           }
                         });

TEST_P(ChaosFourWorkers, ProtocolSurvivesChaosAndStealing) {
  const Pragma pragma = GetParam();
  for (std::uint64_t seed : kChaosSeeds) {
  for (const bool coalesce : {false, true}) {
    SCOPED_TRACE("seed " + std::to_string(seed) +
                 (coalesce ? " coalesce-on" : " coalesce-off"));
    std::atomic<int> ran{0};
    int expected = 0;
    Config cfg = chaos4_cfg(seed);
    if (coalesce) {
      // Small thresholds: four workers per place hammer the same coalescing
      // shard while chaos reorders the envelopes — the TSan-audited
      // configuration of the aggregation layer.
      cfg.coalesce_bytes = 512;
      cfg.coalesce_msgs = 8;
    }
    Runtime::run(cfg, [&] {
      switch (pragma) {
        case Pragma::kLocal:
          finish(Pragma::kLocal, [&] {
            for (int i = 0; i < 64; ++i) async([&ran] { ran.fetch_add(1); });
          });
          expected = 64;
          break;
        case Pragma::kAsync:
          for (int i = 0; i < 8; ++i) {
            finish(Pragma::kAsync, [&] {
              asyncAt(1 + i % 3, [&ran] { ran.fetch_add(1); });
            });
          }
          expected = 8;
          break;
        case Pragma::kHere:
          finish(Pragma::kHere, [&] {
            asyncAt(1, [&ran] {
              ran.fetch_add(1);
              asyncAt(2, [&ran] {
                ran.fetch_add(1);
                asyncAt(0, [&ran] { ran.fetch_add(1); });
              });
            });
          });
          expected = 3;
          break;
        case Pragma::kSpmd:
          finish(Pragma::kSpmd, [&] {
            for (int p = 1; p < num_places(); ++p) {
              asyncAt(p, [&ran] {
                finish(Pragma::kLocal, [&] {
                  for (int i = 0; i < 8; ++i) {
                    async([&ran] { ran.fetch_add(1); });
                  }
                });
              });
            }
          });
          expected = 8 * 3;
          break;
        case Pragma::kDense:
        case Pragma::kDefault:
        default:
          finish(pragma, [&] {
            for (int p = 0; p < num_places(); ++p) {
              asyncAt(p, [&ran] {
                ran.fetch_add(1);
                async([&ran] { ran.fetch_add(1); });
              });
            }
          });
          expected = 2 * 4;
          break;
      }
      ASSERT_EQ(ran.load(), expected);
    });
    // Conservation at teardown must hold under chaos + stealing.
    const auto& m = last_run_metrics();
    EXPECT_EQ(m.at("finish.snapshots.sent"),
              m.at("finish.snapshots.applied") + m.at("finish.snapshots.stale"));
    EXPECT_EQ(m.at("runtime.tasks_shipped"), m.at("sched.msgs.task"));
  }
  }
}

TEST(DrainFlushFourWorkers, AllToAllFanInUnderChaos) {
  // The drain check and the snapshot cut share one fin_mu critical section
  // with the completion: sibling workers completing and receiving under the
  // same finish must never lose or double-report a block state.
  constexpr int kPlaces = 4;
  constexpr std::uint64_t kNonHomeCompletions =
      (kPlaces - 1) + kPlaces * (kPlaces - 1);  // roots + leaves
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 0x5eedULL, 0xdeadbeefULL}) {
    SCOPED_TRACE(seed);
    Config cfg = cfg_w(kPlaces, 4);
    cfg.chaos.delay_prob = 0.5;
    cfg.chaos.seed = seed;
    std::atomic<int> n{0};
    Runtime::run(cfg, [&] {
      finish(Pragma::kDefault, [&] {
        for (int p = 0; p < num_places(); ++p) {
          asyncAt(p, [&n] {
            for (int q = 0; q < num_places(); ++q) {
              asyncAt(q, [&n] { n.fetch_add(1); });
            }
          });
        }
      });
    });
    EXPECT_EQ(n.load(), kPlaces * kPlaces);
    const auto& m = last_run_metrics();
    const std::uint64_t sent = m.at("finish.snapshots.sent");
    EXPECT_EQ(sent,
              m.at("finish.snapshots.applied") + m.at("finish.snapshots.stale"));
    EXPECT_GE(sent, static_cast<std::uint64_t>(kPlaces - 1));
    EXPECT_LE(sent, kNonHomeCompletions);
  }
}

TEST_P(WorkerCounts, RepeatedSplitDerivesStableIds) {
  // Regression (ISSUE 5): Team::split read the parent's op count without the
  // member lock while collectives bump it via next_seq() — and with work
  // stealing, consecutive collectives of one logical rank can run on
  // different worker threads, so the unlocked read had no happens-before
  // edge to the last locked increment. The fix reads the count under the
  // lock *before* the allgather and asserts every member entered the split
  // at the same count. Repeated rounds with live collective traffic between
  // splits give TSan the interleavings to check.
  static constexpr int kPlaces = 4;
  static constexpr int kRounds = 8;
  std::atomic<int> ok{0};
  Runtime::run(cfg_w(kPlaces, GetParam()), [&ok] {
    finish(Pragma::kSpmd, [&ok] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [&ok] {
          Team world = Team::world();
          for (int r = 0; r < kRounds; ++r) {
            world.barrier();  // bumps op_seq right before split reads it
            Team half = world.split(world.rank() % 2, world.rank());
            double v = 1.0;
            half.allreduce(&v, 1, ReduceOp::kSum);
            if (static_cast<int>(v) == half.size()) ok.fetch_add(1);
            world.barrier();
          }
        });
      }
    });
  });
  EXPECT_EQ(ok.load(), kPlaces * kRounds);
}

TEST(ChaosFourWorkersLossy, FanoutSurvivesDropAndDupWithStealing) {
  // The reliability sublayer's TSan-audited configuration: four workers per
  // place race over poll_batch admission (dedup windows, ack processing) and
  // the retransmit pump while chaos drops and duplicates the wire.
  for (std::uint64_t seed : kChaosSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::atomic<int> ran{0};
    Config cfg = chaos4_cfg(seed);
    cfg.chaos.drop_prob = 0.05;
    cfg.chaos.dup_prob = 0.02;
    cfg.retx_timeout_us = 300;
    Runtime::run(cfg, [&ran] {
      finish(Pragma::kDefault, [&ran] {
        for (int p = 0; p < num_places(); ++p) {
          asyncAt(p, [&ran] {
            ran.fetch_add(1);
            async([&ran] { ran.fetch_add(1); });
          });
        }
      });
      ASSERT_EQ(ran.load(), 2 * 4);
    });
    const auto& m = last_run_metrics();
    EXPECT_EQ(m.at("finish.snapshots.sent"),
              m.at("finish.snapshots.applied") +
                  m.at("finish.snapshots.stale"));
    EXPECT_EQ(m.at("runtime.tasks_shipped"), m.at("sched.msgs.task"));
    // Teardown reached the all-acked fixpoint despite active loss.
    EXPECT_EQ(m.at("transport.retx.sent"), m.at("transport.retx.acked"));
  }
}

TEST_P(WorkerCounts, HierarchicalCollectivesStressWithRepeatedSplit) {
  // ISSUE 7 tsan stress: hierarchical barrier/bcast/allreduce back to back
  // at multiple workers per place. Work stealing means consecutive
  // collectives of one logical rank run on different worker threads, so the
  // cumulative group counters (GroupShared pub/arrive/done) and the
  // per-member mirror bases get real cross-thread interleavings; repeated
  // split rebuilds a child hierarchy every round and runs chunked ops on it.
  static constexpr int kPlaces = 6;
  static constexpr int kRounds = 6;
  std::atomic<int> ok{0};
  Config cfg = cfg_w(kPlaces, GetParam());  // places_per_node = 4: 2 groups
  cfg.team_chunk_bytes = 128;               // force multi-fragment pipelines
  Runtime::run(cfg, [&ok] {
    finish(Pragma::kSpmd, [&ok] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [&ok] {
          Team world = Team::world(TeamMode::kHierarchical);
          for (int r = 0; r < kRounds; ++r) {
            bool good = true;
            world.barrier();
            const int root = r % world.size();
            std::vector<double> buf(200,
                                    world.rank() == root ? r + 0.5 : 0.0);
            world.bcast(root, buf.data(), buf.size());
            for (double v : buf) good = good && v == r + 0.5;
            long acc = world.rank() + r;
            world.allreduce(&acc, 1, ReduceOp::kSum);
            good = good && acc == 15 + static_cast<long>(kPlaces) * r;
            // Split into halves; the child rebuilds its own hierarchy and
            // must survive chunked collectives immediately.
            Team half = world.split(world.rank() % 2, world.rank());
            good = good && half.mode() == TeamMode::kHierarchical;
            std::vector<long> sub(40, half.rank());
            half.allreduce(sub.data(), sub.size(), ReduceOp::kSum);
            const long want =
                static_cast<long>(half.size()) * (half.size() - 1) / 2;
            for (long v : sub) good = good && v == want;
            world.barrier();
            if (good) ok.fetch_add(1);
          }
        });
      }
    });
  });
  EXPECT_EQ(ok.load(), kPlaces * kRounds);
}

TEST_P(WorkerCounts, BlockingAtFromSiblingWorkers) {
  std::atomic<long> sum{0};
  Runtime::run(cfg_w(3, GetParam()), [&] {
    finish([&] {
      for (int i = 0; i < 30; ++i) {
        async([&sum, i] {
          sum.fetch_add(at((i % 2) + 1, [] { return here(); }));
        });
      }
    });
  });
  EXPECT_EQ(sum.load(), 15 * 1 + 15 * 2);
}

std::atomic<bool> g_spin_flag{false};
void set_spin_flag(int) { g_spin_flag.store(true); }
const RemoteFn<int> kSetSpinFlag{&set_spin_flag};

// A coalesced send from an activity that keeps running (it spins instead of
// blocking, so it never reaches its own busy->idle transition) leaves only
// when an idle sibling worker flushes the place's partial envelopes. The
// spin is bounded: on failure the finish wait flushes and the test ends.
TEST(IdleSiblingFlush, SpinningSenderCoalescedSendArrives) {
  Config cfg = cfg_w(2, 2);
  cfg.coalesce_bytes = 4096;
  bool arrived = false;
  Runtime::run(cfg, [&] {
    finish([&] {
      // Let the sibling worker settle into its park rounds, past its own
      // busy->idle transition, so only a park-round flush can ship the send.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      asyncAtArgs(1, kSetSpinFlag, 0);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!g_spin_flag.load() &&
             std::chrono::steady_clock::now() < deadline) {
      }
      arrived = g_spin_flag.load();
    });
  });
  EXPECT_TRUE(arrived);
}

// --- place-local wire-buffer pool under cross-place traffic -----------------
//
// Every remote spawn frame is acquired from the sender's pool shard and
// released into the receiver's, so with 4 places x 2 workers each shard is
// hit by its own workers, by peers' refills, and never by a lock it shares.

struct PoolLeaf {
  std::uint64_t round;
  std::int32_t src;
  std::int32_t dst;
  std::array<std::uint64_t, 6> words;
};

std::uint64_t pool_word(const PoolLeaf& l, int w) {
  return (l.round * 1000003u) ^ (static_cast<std::uint64_t>(l.src) << 40) ^
         (static_cast<std::uint64_t>(l.dst) << 20) ^
         static_cast<std::uint64_t>(w);
}

std::atomic<int> g_pool_leaves{0};
std::atomic<int> g_pool_bad{0};

void pool_leaf(PoolLeaf l) {
  bool ok = l.dst == here();
  for (int w = 0; w < 6; ++w) {
    ok = ok && l.words[static_cast<std::size_t>(w)] == pool_word(l, w);
  }
  if (!ok) g_pool_bad.fetch_add(1);
  g_pool_leaves.fetch_add(1);
}
const RemoteFn<PoolLeaf> kPoolLeaf{&pool_leaf};

void pool_exchange(std::uint64_t round) {
  for (int p = 0; p < num_places(); ++p) {
    for (int i = 0; i < 16; ++i) {
      PoolLeaf l{round, here(), p, {}};
      for (int w = 0; w < 6; ++w) {
        l.words[static_cast<std::size_t>(w)] = pool_word(l, w);
      }
      asyncAtArgs(p, kPoolLeaf, l);
    }
  }
}
const RemoteFn<std::uint64_t> kPoolExchange{&pool_exchange};

TEST(PoolStress, FramesCrossPlacesUnderTwoWorkers) {
  constexpr int kPlaces = 4;
  constexpr int kRounds = 20;
  g_pool_leaves.store(0);
  g_pool_bad.store(0);
  Runtime::run(cfg_w(kPlaces, 2), [] {
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      finish([r] {
        for (int p = 0; p < num_places(); ++p) asyncAtArgs(p, kPoolExchange, r);
      });
    }
  });
  EXPECT_EQ(g_pool_leaves.load(), kRounds * kPlaces * kPlaces * 16);
  EXPECT_EQ(g_pool_bad.load(), 0);
  const auto& m = last_run_metrics();
  // One pooled frame per remote spawn, at least: the leaves plus the
  // exchange tasks that left place 0.
  const std::uint64_t remote_spawns =
      static_cast<std::uint64_t>(kRounds) *
      (kPlaces * (kPlaces - 1) * 16 + (kPlaces - 1));
  EXPECT_GE(m.at("transport.pool.hits") + m.at("transport.pool.misses"),
            remote_spawns);
  EXPECT_GE(m.at("transport.pool.recycled") + m.at("transport.pool.dropped"),
            remote_spawns);
}

TEST(PoolStress, ExactBooksWithTwoThreadsPerPlace) {
  // The transport alone: two threads per place send AMs built in pooled
  // buffers to every other place and drain their own inbox, whose handlers
  // release into the receiving place's shard.
  constexpr int kPlaces = 4;
  constexpr int kThreads = 2;
  constexpr int kPerThread = 2000;
  x10rt::TransportConfig tc;
  tc.places = kPlaces;
  tc.dma_threads = 0;
  x10rt::Transport tr(tc);
  std::atomic<int> handled{0};
  const int h = tr.register_am([&handled](x10rt::ByteBuffer& b) {
    (void)b.get<std::uint64_t>();
    handled.fetch_add(1);
  });
  constexpr int kTotal = kPlaces * kThreads * kPerThread;
  std::vector<std::thread> threads;
  for (int p = 0; p < kPlaces; ++p) {
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&tr, &handled, h, p, t] {
        for (int i = 0; i < kPerThread; ++i) {
          x10rt::ByteBuffer b = tr.acquire_buffer(p);
          b.put(static_cast<std::uint64_t>(i));
          const int dst = (p + 1 + (i + t) % (kPlaces - 1)) % kPlaces;
          tr.send_am(p, dst, h, std::move(b));
          if (auto m = tr.poll(p)) m->run();
        }
        while (handled.load() < kTotal) {
          if (auto m = tr.poll(p)) {
            m->run();
          } else {
            std::this_thread::yield();
          }
        }
      });
    }
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(handled.load(), kTotal);
  const auto& pool = tr.pool();
  const auto t = pool.totals();
  EXPECT_EQ(t.hits + t.misses, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(t.recycled + t.dropped, static_cast<std::uint64_t>(kTotal));
  for (int p = 0; p < kPlaces; ++p) {
    const auto s = pool.stats(p);
    EXPECT_EQ(s.hits + s.misses,
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(s.retained, s.recycled + s.refill_in - s.refill_out - s.hits);
    EXPECT_LE(s.retained, pool.max_retained());
  }
}

}  // namespace
