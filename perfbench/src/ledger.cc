#include "ledger.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <utility>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.n = samples.size();
  if (samples.empty() || !(q > 0.0 && q < 1.0)) return p;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest value with at least q*n samples at or below.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(p.n) - 1e-9));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  p.value = samples[idx];
  p.beyond = p.n - idx - 1;
  p.ok = p.beyond >= kMinBeyond;
  return p;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::kRun: return "run";
    case SpanName::kUnit: return "unit";
    case SpanName::kExchange: return "exchange";
    case SpanName::kCollective: return "collective";
    case SpanName::kAllreduce: return "allreduce";
    case SpanName::kBcast: return "bcast";
    case SpanName::kGlbRun: return "glb_run";
    case SpanName::kUtsSequential: return "uts_sequential";
  }
  return "?";
}

std::uint32_t SpanLog::open(SpanName name, std::uint32_t parent) {
  if (!enabled) return 0;
  if (*count_ >= capacity_) return 0;
  Span& s = spans_[*count_];
  s.name = name;
  s.parent = parent;
  s.start_ns = now_ns();
  s.end_ns = s.start_ns;
  return ++*count_;
}

void SpanLog::close(std::uint32_t handle) {
  if (handle == 0) return;
  spans_[handle - 1].end_ns = now_ns();
}

std::vector<double> self_times_ns(const Span* spans, std::size_t n) {
  // Children of each span, as [start, end) clipped to the parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t p = spans[i].parent;
    if (p == 0 || p > n) continue;
    const Span& par = spans[p - 1];
    const std::int64_t lo = std::max(spans[i].start_ns, par.start_ns);
    const std::int64_t hi = std::min(spans[i].end_ns, par.end_ns);
    if (hi > lo) kids[p - 1].emplace_back(lo, hi);
  }
  std::vector<double> self(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : k) {
      if (!open || lo > cur_hi) {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                                  covered);
  }
  return self;
}

std::vector<double> step_residuals_ns(const Span* spans, std::size_t n) {
  std::vector<std::int64_t> exch(n, -1);
  std::vector<std::int64_t> coll(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t p = spans[i].parent;
    if (p == 0 || p > n) continue;
    const std::int64_t d = spans[i].end_ns - spans[i].start_ns;
    if (spans[i].name == SpanName::kExchange) exch[p - 1] = d;
    if (spans[i].name == SpanName::kCollective) coll[p - 1] = d;
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < n; ++i) {
    if (spans[i].name != SpanName::kUnit || exch[i] < 0 || coll[i] < 0) {
      continue;
    }
    out.push_back(static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                                      exch[i] - coll[i]));
  }
  return out;
}

bool write_spans(const std::string& path, const Span* spans, std::size_t n) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = self_times_ns(spans, n);
  for (std::size_t i = 0; i < n; ++i) {
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%u,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"self_ns\":%.0f}\n",
                 i + 1, spans[i].parent, span_name(spans[i].name),
                 static_cast<long long>(spans[i].start_ns),
                 static_cast<long long>(spans[i].end_ns), self[i]);
  }
  return std::fclose(f) == 0;
}

std::vector<std::size_t> quiet_chunks(const std::vector<Chunk>& chunks,
                                      double max_share, std::size_t min_keep) {
  auto share = [&chunks](std::size_t i) {
    return chunks[i].total > 0 ? chunks[i].steal / chunks[i].total : 0.0;
  };
  std::vector<std::size_t> order(chunks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&share](std::size_t a, std::size_t b) {
                     return share(a) < share(b);
                   });
  std::vector<char> keep(chunks.size(), 0);
  std::size_t kept = 0;
  for (const std::size_t i : order) {
    if (share(i) > max_share && kept >= min_keep) break;
    keep[i] = 1;
    kept += chunks[i].last - chunks[i].first;
  }
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    if (keep[i]) out.push_back(i);
  }
  return out;
}

}  // namespace perfbench
