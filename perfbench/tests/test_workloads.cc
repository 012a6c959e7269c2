// Smoke runs of every workload at toy sizes, failure counting with an
// injected wrong expectation, and the seed -> UTS tree mapping.
#include <gtest/gtest.h>

#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

Options tiny(Workload w) {
  Options o;
  o.workload = w;
  o.seed = 4242;
  o.seconds = 0.2;
  o.setup_probes = 2;
  o.min_units = 0;
  o.uts_depth = 7;  // ~10^4-node trees
  o.uts_nodes_lo = 5'000;
  o.uts_nodes_hi = 40'000;
  o.spmd_warmup_steps = 3;
  return o;
}

void expect_all(const Report& r, const std::map<std::string, std::string>& names) {
  for (const auto& [name, unit] : names) {
    EXPECT_TRUE(r.metrics.count(name)) << "missing metric " << name;
  }
}

class Smoke : public ::testing::TestWithParam<Workload> {};

TEST_P(Smoke, EndToEndRunVerifiesEveryUnit) {
  const Report r = run_workload(tiny(GetParam()));
  EXPECT_GT(r.tally.attempted, 0u);
  EXPECT_EQ(r.tally.failed, 0u) << r.tally.first_failure;
  expect_all(r, end_to_end_units());
  EXPECT_GT(r.metrics.at("units_per_s"), 0);
  EXPECT_GT(r.metrics.at("setup_s"), 0);
  EXPECT_GT(r.metrics.at("teardown_s"), 0);
  EXPECT_GT(r.metrics.at("peak_rss_mb"), 0);
}

TEST_P(Smoke, TracedRunReportsEveryPerLayerMetric) {
  Options o = tiny(GetParam());
  o.traced = true;
  const Report r = run_workload(o);
  EXPECT_EQ(r.tally.failed, 0u) << r.tally.first_failure;
  expect_all(r, per_layer_units());
  EXPECT_GT(r.metrics.at("obs.trace_overhead"), 0);
  EXPECT_GT(r.metrics.at("span.unit.self_us_p50"), 0);
  if (GetParam() == Workload::kUts) {
    EXPECT_GT(r.metrics.at("kernels.uts_seq_mnodes_per_s"), 0);
    EXPECT_GT(r.metrics.at("glb.run_s"), 0);
    EXPECT_GE(r.metrics.at("glb.imbalance"), 1.0);
  } else {
    EXPECT_GT(r.metrics.at("finish.exchange_us_p50"), 0);
    EXPECT_GT(r.metrics.at("team.collective_us_p50"), 0);
    EXPECT_GT(r.metrics.at("team.allreduce_ns_p50"), 0);
    EXPECT_GT(r.metrics.at("x10rt.msgs_per_step"), 0);
  }
  if (GetParam() == Workload::kSpmdSocket) {
    EXPECT_GT(r.metrics.at("x10rt.frames_per_step"), 0);
  }
}

TEST_P(Smoke, WrongExpectationFailsEveryUnit) {
  Options o = tiny(GetParam());
  o.inject_wrong_expectation = true;
  const Report r = run_workload(o);
  EXPECT_GT(r.tally.attempted, 0u);
  EXPECT_EQ(r.tally.failed, r.tally.attempted);
  EXPECT_FALSE(r.tally.first_failure.empty());
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         ::testing::Values(Workload::kUts, Workload::kSpmd,
                                           Workload::kSpmdSocket),
                         [](const auto& info) {
                           switch (info.param) {
                             case Workload::kUts: return std::string("uts");
                             case Workload::kSpmd: return std::string("spmd");
                             default: return std::string("spmd_socket");
                           }
                         });

TEST(UtsTree, SeedMapsDeterministicallyIntoTheBand) {
  const Options o = tiny(Workload::kUts);
  const UtsTree a = choose_uts_tree(o);
  const UtsTree b = choose_uts_tree(o);
  EXPECT_EQ(a.root_seed, b.root_seed);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_GE(a.nodes, o.uts_nodes_lo);
  EXPECT_LE(a.nodes, o.uts_nodes_hi);
}

TEST(Workload, ParsesTheThreeNames) {
  Workload w = Workload::kUts;
  EXPECT_TRUE(parse_workload("spmd_socket", &w));
  EXPECT_EQ(w, Workload::kSpmdSocket);
  EXPECT_TRUE(parse_workload("spmd", &w));
  EXPECT_TRUE(parse_workload("uts", &w));
  EXPECT_FALSE(parse_workload("hit", &w));
}

}  // namespace
}  // namespace perfbench
