// Stall-watchdog tests (ISSUE satellite d): injected stall fires exactly one
// diagnosis, progress re-arms without refiring, and the default-off contract.
//
// Deliberately NOT in the tsan label set: the stall injection is timing-based
// (spin against real watchdog intervals) and sanitizer slowdowns would make
// the deadlines flaky.
#include "runtime/watchdog.h"

#include "runtime/api.h"
#include "runtime/config.h"
#include "runtime/metrics.h"
#include "runtime/runtime.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace {

TEST(Watchdog, InjectedStallFiresExactlyOneDiagnosis) {
  apgas::Config cfg;
  cfg.places = 2;
  cfg.watchdog_interval_ms = 20;
  cfg.watchdog_stall_intervals = 3;
  apgas::Runtime::run(cfg, [] {
    apgas::Runtime& rt = apgas::Runtime::get();
    auto& diagnoses = rt.metrics().counter("watchdog.diagnoses");
    // Park an activity at place 1 inside an open finish: it spins without
    // touching any monotone progress counter, so the watchdog sees a stall.
    apgas::finish([&] {
      apgas::asyncAt(1, [] {
        apgas::Runtime& r = apgas::Runtime::get();
        auto& d = r.metrics().counter("watchdog.diagnoses");
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(30);
        while (d.load(std::memory_order_relaxed) == 0 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      });
    });
    ASSERT_EQ(diagnoses.load(std::memory_order_relaxed), 1u)
        << "stall did not produce exactly one diagnosis";
    // Now make steady progress for many intervals: the one-shot latch must
    // re-arm on progress but never refire while work keeps flowing.
    for (int i = 0; i < 20; ++i) {
      apgas::finish([] { apgas::async([] {}); });
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(diagnoses.load(std::memory_order_relaxed), 1u)
        << "watchdog refired while the job was making progress";
  });
  const auto& metrics = apgas::last_run_metrics();
  auto it = metrics.find("watchdog.diagnoses");
  ASSERT_NE(it, metrics.end());
  EXPECT_EQ(it->second, 1u);
}

TEST(Watchdog, OffByDefault) {
  apgas::Config cfg;
  cfg.places = 2;
  ASSERT_EQ(cfg.watchdog_interval_ms, 0);  // default: no sampler thread
  apgas::Runtime::run(cfg, [] {
    apgas::finish([] {
      apgas::asyncAt(1, [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      });
    });
  });
  const auto& metrics = apgas::last_run_metrics();
  auto it = metrics.find("watchdog.diagnoses");
  // The counter is only created when a watchdog is constructed.
  if (it != metrics.end()) {
    EXPECT_EQ(it->second, 0u);
  }
}

}  // namespace
