// The benchmark's measurement ledger: percentiles that state their sample
// count, spans with parent links and self time, and the unit/failure tally.
// Everything here is plain data and arithmetic so it can be unit-tested
// without a runtime (tests/test_ledger.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (CLOCK_MONOTONIC via steady_clock). The clock is
/// system-wide, so stamps taken in a forked place process compare directly
/// with the parent's.
std::int64_t now_ns();

/// A percentile with the evidence behind it. `ok` is false when fewer than
/// `kMinBeyond` samples lie above the requested rank: such a tail is one or
/// two samples wide and not worth reporting.
struct Percentile {
  bool ok = false;
  double value = 0;
  std::size_t n = 0;       ///< samples the percentile was taken over
  std::size_t beyond = 0;  ///< samples strictly above the chosen rank
};
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile, q in (0, 1). Refuses (ok = false) when fewer
/// than kMinBeyond samples lie beyond the rank.
Percentile percentile(std::vector<double> samples, double q);

/// Median without the tail rule (for small sets such as set-up probes).
/// Returns 0 for an empty set.
double median(std::vector<double> samples);

// --- spans ------------------------------------------------------------------

enum class SpanName : std::uint8_t {
  kRun,            ///< Runtime::run, entry to return
  kUnit,           ///< one traversal or one step
  kExchange,       ///< step phase 1: finish over the exchange tasks
  kCollective,     ///< step phase 2: finish(kSpmd) over the Team tasks
  kAllreduce,      ///< Team allreduce, at place 0
  kBcast,          ///< Team bcast, at place 0
  kGlbRun,         ///< glb::Glb::run
  kUtsSequential,  ///< kernels::uts_sequential
};
inline constexpr int kNumSpanNames = 8;
const char* span_name(SpanName n);

/// One closed span. `parent` is an index into the same log plus one; 0 means
/// a root span.
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = 0;
  SpanName name = SpanName::kRun;
};

/// Fixed-capacity span log over caller-provided storage, so the storage can
/// live in memory shared with forked place processes. Single writer: only
/// place 0's worker thread (or the parent before/after Runtime::run) records.
class SpanLog {
 public:
  SpanLog(Span* storage, std::uint32_t* count, std::size_t capacity)
      : spans_(storage), count_(count), capacity_(capacity) {}

  /// Opens a span and returns its handle (index + 1), or 0 when the log is
  /// full or disabled. Children pass the handle as `parent`.
  std::uint32_t open(SpanName name, std::uint32_t parent);
  /// Closes the span `handle` names; no-op for handle 0.
  void close(std::uint32_t handle);

  [[nodiscard]] std::size_t size() const { return *count_; }
  [[nodiscard]] const Span* data() const { return spans_; }

  bool enabled = false;

 private:
  Span* spans_;
  std::uint32_t* count_;
  std::size_t capacity_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children counted once, children
/// clipped to the parent).
std::vector<double> self_times_ns(const Span* spans, std::size_t n);

/// Per-step residual: the step span's duration minus its exchange and
/// collective child spans. One entry per step span that has both phases.
std::vector<double> step_residuals_ns(const Span* spans, std::size_t n);

/// Writes the spans as JSON lines ({"id","parent","name","start_ns",
/// "end_ns","self_ns"}) to `path`. Returns false on I/O failure.
bool write_spans(const std::string& path, const Span* spans, std::size_t n);

// --- host CPU steal ---------------------------------------------------------

/// Consecutive timed units between two readings of /proc/stat, with the
/// jiffies (summed over every CPU) that passed meanwhile.
struct Chunk {
  std::size_t first = 0;  ///< index of the first unit
  std::size_t last = 0;   ///< one past the last unit
  double steal = 0;       ///< taken by the hypervisor while a vCPU wanted to run
  double busy = 0;        ///< spent running anything in the VM
  double total = 0;       ///< all of them
};

/// The chunks a run's figures are taken from, in run order: every chunk
/// whose steal share is at most `max_share` and, when those hold fewer than
/// `min_keep` units, the least-stolen others until they do.
std::vector<std::size_t> quiet_chunks(const std::vector<Chunk>& chunks,
                                      double max_share, std::size_t min_keep);

// --- verification tally -----------------------------------------------------

/// Units verified and the ones whose verification failed, with a short
/// description of the first mismatch.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
};

}  // namespace perfbench
