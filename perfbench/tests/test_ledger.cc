// Unit tests of the benchmark's arithmetic: percentiles, medians, span self
// time and the step residual.
#include <gtest/gtest.h>

#include <vector>

#include "ledger.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, ReportsValueCountAndSamplesBeyond) {
  const Percentile p50 = percentile(one_to(100), 0.5);
  EXPECT_TRUE(p50.ok);
  EXPECT_EQ(p50.value, 50);
  EXPECT_EQ(p50.n, 100u);
  EXPECT_EQ(p50.beyond, 50u);

  const Percentile p90 = percentile(one_to(100), 0.9);
  EXPECT_TRUE(p90.ok);
  EXPECT_EQ(p90.value, 90);
  EXPECT_EQ(p90.beyond, 10u);
}

TEST(Percentile, RefusesFewerThanTenSamplesBeyond) {
  const Percentile p90 = percentile(one_to(99), 0.9);
  EXPECT_FALSE(p90.ok);
  EXPECT_EQ(p90.n, 99u);
  EXPECT_EQ(p90.beyond, 9u);

  EXPECT_TRUE(percentile(one_to(1000), 0.99).ok);
  EXPECT_FALSE(percentile(one_to(999), 0.99).ok);
  EXPECT_FALSE(percentile(one_to(19), 0.5).ok);
  EXPECT_TRUE(percentile(one_to(21), 0.5).ok);
}

TEST(Percentile, EmptyAndOutOfRange) {
  EXPECT_FALSE(percentile({}, 0.5).ok);
  EXPECT_EQ(percentile({}, 0.5).n, 0u);
  EXPECT_FALSE(percentile(one_to(100), 0.0).ok);
  EXPECT_FALSE(percentile(one_to(100), 1.0).ok);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0);
}

Span span(SpanName name, std::int64_t s, std::int64_t e, std::uint32_t p) {
  Span x;
  x.name = name;
  x.start_ns = s;
  x.end_ns = e;
  x.parent = p;
  return x;
}

// run [0,100] > step [10,60] > exchange [10,30], collective [35,55]
//                              collective > allreduce [36,40], bcast [41,50]
std::vector<Span> step_tree() {
  return {
      span(SpanName::kRun, 0, 100, 0),       span(SpanName::kUnit, 10, 60, 1),
      span(SpanName::kExchange, 10, 30, 2),  span(SpanName::kCollective, 35, 55, 2),
      span(SpanName::kAllreduce, 36, 40, 4), span(SpanName::kBcast, 41, 50, 4),
  };
}

TEST(Spans, SelfTimeSubtractsChildren) {
  const std::vector<Span> s = step_tree();
  const std::vector<double> self = self_times_ns(s.data(), s.size());
  ASSERT_EQ(self.size(), 6u);
  EXPECT_EQ(self[0], 50);  // 100 - step 50
  EXPECT_EQ(self[1], 10);  // 50 - 20 - 20
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 7);   // 20 - 4 - 9
  EXPECT_EQ(self[4], 4);
  EXPECT_EQ(self[5], 9);
}

TEST(Spans, OverlappingChildrenCountOnceAndAreClipped) {
  const std::vector<Span> s = {
      span(SpanName::kRun, 0, 20, 0),
      span(SpanName::kUnit, 0, 10, 1),
      span(SpanName::kUnit, 5, 15, 1),   // overlaps the first: union 0..15
      span(SpanName::kUnit, 18, 30, 1),  // clipped to 18..20
  };
  const std::vector<double> self = self_times_ns(s.data(), s.size());
  EXPECT_EQ(self[0], 20 - 15 - 2);
}

TEST(Spans, StepResidualIsStepMinusBothPhases) {
  std::vector<Span> s = step_tree();
  s.push_back(span(SpanName::kUnit, 60, 70, 1));  // a traversal: no phases
  const std::vector<double> r = step_residuals_ns(s.data(), s.size());
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], 50 - 20 - 20);
}

TEST(Spans, LogRespectsEnabledAndCapacity) {
  Span storage[2];
  std::uint32_t count = 0;
  SpanLog log(storage, &count, 2);
  EXPECT_EQ(log.open(SpanName::kRun, 0), 0u);  // disabled
  log.enabled = true;
  const std::uint32_t a = log.open(SpanName::kRun, 0);
  const std::uint32_t b = log.open(SpanName::kUnit, a);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(log.open(SpanName::kUnit, a), 0u);  // full
  log.close(b);
  log.close(a);
  log.close(0);  // no-op
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(storage[1].parent, 1u);
  EXPECT_GE(storage[1].end_ns, storage[1].start_ns);
  EXPECT_GE(storage[0].end_ns, storage[1].end_ns);
}

Chunk chunk(std::size_t first, std::size_t last, double steal) {
  Chunk c;
  c.first = first;
  c.last = last;
  c.steal = steal;
  c.busy = 100 - steal;
  c.total = 400;
  return c;
}

TEST(QuietChunks, KeepsUnstolenChunksWhenTheyHoldEnoughUnits) {
  const std::vector<Chunk> c = {chunk(0, 10, 0), chunk(10, 20, 40),
                                chunk(20, 30, 0)};
  EXPECT_EQ(quiet_chunks(c, 0.02, 15), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(quiet_chunks(c, 0.02, 0), (std::vector<std::size_t>{0, 2}));
}

TEST(QuietChunks, TopsUpWithTheLeastStolenInRunOrder) {
  const std::vector<Chunk> c = {chunk(0, 10, 40), chunk(10, 20, 120),
                                chunk(20, 30, 80)};
  EXPECT_EQ(quiet_chunks(c, 0.02, 15), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(quiet_chunks(c, 0.02, 10), (std::vector<std::size_t>{0}));
  EXPECT_EQ(quiet_chunks(c, 0.02, 1), (std::vector<std::size_t>{0}));
  EXPECT_EQ(quiet_chunks(c, 0.02, 100),
            (std::vector<std::size_t>{0, 1, 2}));  // all there is
  EXPECT_EQ(quiet_chunks({chunk(0, 5, 1)}, 0.02, 0),
            (std::vector<std::size_t>{0}));
  EXPECT_TRUE(quiet_chunks({}, 0.02, 10).empty());
}

}  // namespace
}  // namespace perfbench
