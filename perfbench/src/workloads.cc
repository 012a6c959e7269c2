#include "workloads.h"

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "glb/glb.h"
#include "kernels/uts/uts.h"
#include "runtime/api.h"
#include "runtime/config.h"
#include "runtime/metrics.h"
#include "runtime/runtime.h"
#include "runtime/team.h"

namespace perfbench {
namespace {

using apgas::BackendKind;
using apgas::Config;
using apgas::Pragma;

constexpr std::size_t kMaxUnits = 1u << 18;
constexpr std::size_t kMaxSpans = 1u << 20;
constexpr std::size_t kMaxMarks = 1u << 15;
constexpr int kMaxPlaces = 16;
constexpr double kMaxSecondsFactor = 2.5;
constexpr std::size_t kUtsChunk = 128;   // GLB units between steal services
constexpr int kLeavesPerPair = 16;       // leaf tasks per (source, target)
constexpr int kBcastWords = 8192;        // 64 KiB bcast payload
// Host CPU steal is read from /proc/stat about every kMarkNs between units;
// chunks above kQuietSteal are left out of the figures as long as a quarter
// of the units (and at least min_units) remain (quiet_chunks).
constexpr std::int64_t kMarkNs = 100'000'000;
constexpr double kQuietSteal = 0.02;

/// One timed unit. uts: work = nodes, a = Glb::run ns, b = imbalance.
/// spmd: work = 1, a = exchange ns, b = collective ns.
struct UnitRec {
  double ns;
  double work;
  double a;
  double b;
};

/// Jiffies of the aggregate "cpu" line of /proc/stat, summed over CPUs.
struct CpuJiffies {
  double steal = 0;
  double busy = 0;
  double total = 0;
};

/// A /proc/stat reading taken in the timed loop before unit `unit`.
struct Mark {
  std::uint32_t unit;
  CpuJiffies at;
};

CpuJiffies read_cpu_jiffies() {
  CpuJiffies j;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return j;
  // user nice system idle iowait irq softirq steal
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  if (got != 8) return j;
  for (unsigned long long x : v) j.total += static_cast<double>(x);
  j.steal = static_cast<double>(v[7]);
  j.busy = static_cast<double>(v[0] + v[1] + v[2] + v[5] + v[6]);
  return j;
}

/// Everything place 0's main reports back to the benchmark process. It lives
/// in a MAP_SHARED mapping made before Runtime::run, so in socket mode the
/// forked place-0 process writes straight into the parent's view.
struct Shared {
  std::int64_t t_main_start;
  std::int64_t t_main_end;
  std::int64_t timed_start;
  std::int64_t timed_end;
  std::uint64_t attempted;  // accumulates across runs
  std::uint64_t failed;     // accumulates across runs
  char first_failure[256];
  std::uint32_t nunits;     // timed units of the current run
  std::uint32_t all_units;  // every unit of the current run
  std::uint32_t run_span;
  std::uint32_t nspans;
  std::uint32_t nmarks;
  Mark marks[kMaxMarks];
  UnitRec units[kMaxUnits];
  Span spans[kMaxSpans];
};

Shared* g_sh = nullptr;
SpanLog* g_spans = nullptr;

void map_shared() {
  if (g_sh != nullptr) return;
  void* p = mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) {
    std::perror("perfbench: mmap");
    std::abort();
  }
  g_sh = static_cast<Shared*>(p);
  static SpanLog log(g_sh->spans, &g_sh->nspans, kMaxSpans);
  g_spans = &log;
}

void check(bool ok, const char* what) {
  ++g_sh->attempted;
  if (ok) return;
  if (g_sh->failed++ == 0) {
    std::snprintf(g_sh->first_failure, sizeof g_sh->first_failure, "%s",
                  what);
  }
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The closed loop shared by every workload: a warm-up, then timed units
/// until `seconds` have passed and at least `min_units` were measured (never
/// past kMaxSecondsFactor x `seconds`). Host steal is read from /proc/stat
/// between units, about every kMarkNs.
struct LoopShape {
  bool probe = false;  // set-up probe: a single unit, no timed loop
  double seconds = 0;
  std::size_t min_units = 0;
};

void mark() {
  if (g_sh->nmarks < kMaxMarks) {
    g_sh->marks[g_sh->nmarks++] = {g_sh->nunits, read_cpu_jiffies()};
  }
}

void timed_loop(const LoopShape& s, const std::function<void()>& unit) {
  const std::int64_t start = now_ns();
  const auto min_end = start + static_cast<std::int64_t>(s.seconds * 1e9);
  const auto max_end =
      start + static_cast<std::int64_t>(s.seconds * kMaxSecondsFactor * 1e9);
  g_sh->timed_start = start;
  g_sh->nmarks = 0;
  mark();
  std::int64_t last_mark = start;
  while (g_sh->nunits < kMaxUnits) {
    const std::int64_t now = now_ns();
    if (now >= max_end) break;
    if (now >= min_end && g_sh->nunits >= s.min_units) break;
    unit();
    if (now_ns() - last_mark >= kMarkNs) {
      mark();
      last_mark = now_ns();
    }
  }
  if (g_sh->marks[g_sh->nmarks - 1].unit != g_sh->nunits) mark();
  g_sh->timed_end = now_ns();
}

void push_unit(const UnitRec& r) { g_sh->units[g_sh->nunits++] = r; }

// --- uts ----------------------------------------------------------------------

struct UtsJob {
  kernels::UtsParams params;
  std::uint64_t expected = 0;
  LoopShape loop;
};

void uts_traversal(const UtsJob& j, bool timed) {
  const std::uint32_t u = g_spans->open(SpanName::kUnit, g_sh->run_span);
  const std::int64_t t0 = now_ns();
  glb::Glb<kernels::UtsBag> balancer(j.params.glb);
  const std::uint32_t gs = g_spans->open(SpanName::kGlbRun, u);
  const std::int64_t g0 = now_ns();
  balancer.run(kernels::UtsBag(j.params, /*with_root=*/true));
  const std::int64_t g1 = now_ns();
  g_spans->close(gs);
  std::uint64_t nodes = 0;
  std::uint64_t most = 0;
  const int places = apgas::num_places();
  for (int q = 0; q < places; ++q) {
    nodes += balancer.bag_at(q).nodes();
    most = std::max<std::uint64_t>(most, balancer.bag_at(q).nodes());
  }
  const std::int64_t t1 = now_ns();
  g_spans->close(u);
  ++g_sh->all_units;
  check(nodes == j.expected, "uts: traversal node count != uts_sequential");
  if (timed) {
    const double mean = static_cast<double>(nodes) / places;
    push_unit({static_cast<double>(t1 - t0), static_cast<double>(nodes),
               static_cast<double>(g1 - g0),
               mean > 0 ? static_cast<double>(most) / mean : 0});
  }
}

void uts_main(const UtsJob& j) {
  g_sh->t_main_start = now_ns();
  uts_traversal(j, false);  // warm-up
  if (!j.loop.probe) timed_loop(j.loop, [&j] { uts_traversal(j, true); });
  g_sh->t_main_end = now_ns();
}

// --- spmd step ----------------------------------------------------------------

struct StepArgs {
  std::uint64_t seed;
  std::uint64_t step;
};

/// A leaf task's payload: 64 bytes, checked at the destination.
struct LeafArgs {
  std::uint64_t seed;
  std::uint64_t step;
  std::int32_t src;
  std::int32_t dst;
  std::int32_t idx;
  std::int32_t pad;
  std::uint64_t data[4];
};
static_assert(sizeof(LeafArgs) == 64);

std::uint64_t leaf_word(const LeafArgs& l, int w) {
  return mix(l.seed ^ mix(l.step * 0x100000001b3ULL +
                          static_cast<std::uint64_t>(l.src) * 7919 +
                          static_cast<std::uint64_t>(l.dst) * 104729 +
                          static_cast<std::uint64_t>(l.idx) * 1299709 +
                          static_cast<std::uint64_t>(w)));
}

std::uint64_t bcast_word(std::uint64_t seed, std::uint64_t step, int w) {
  return mix(seed * 0x2545f4914f6cdd1dULL + step * 0x9e3779b97f4a7c15ULL +
             static_cast<std::uint64_t>(w));
}

/// Rank r's allreduce contribution to slot j: an integer below 2^40, so any
/// summation order of up to 2^12 ranks is exact in a double.
double contribution(std::uint64_t seed, std::uint64_t step, int rank, int j) {
  return static_cast<double>(
      mix(seed ^ mix(step * 31 + static_cast<std::uint64_t>(rank) * 8 +
                     static_cast<std::uint64_t>(j))) >>
      24);
}

/// Per-place books, one slot per place. In socket mode every process has its
/// own copy and touches only its own slot.
struct PlaceBook {
  std::atomic<std::uint64_t> leaves{0};
  std::atomic<std::uint64_t> bad{0};
  std::uint64_t reported = 0;
  std::vector<std::uint64_t> bcast_buf;
};
PlaceBook g_book[kMaxPlaces];

// Place 0's view of the step in flight (touched only at place 0).
double g_allreduce_out[8];
std::uint32_t g_coll_span = 0;

void leaf_task(LeafArgs l) {
  PlaceBook& b = g_book[apgas::here()];
  bool ok = l.dst == apgas::here();
  for (int w = 0; w < 4; ++w) ok = ok && l.data[w] == leaf_word(l, w);
  if (!ok) b.bad.fetch_add(1, std::memory_order_relaxed);
  b.leaves.fetch_add(1, std::memory_order_relaxed);
}
const apgas::RemoteFn<LeafArgs> kLeaf(&leaf_task);

void exchange_task(StepArgs a) {
  const int me = apgas::here();
  const int places = apgas::num_places();
  for (int p = 0; p < places; ++p) {
    for (int i = 0; i < kLeavesPerPair; ++i) {
      LeafArgs l{a.seed, a.step, me, p, i, 0, {}};
      for (int w = 0; w < 4; ++w) l.data[w] = leaf_word(l, w);
      apgas::asyncAtArgs(p, kLeaf, l);
    }
  }
}
const apgas::RemoteFn<StepArgs> kExchange(&exchange_task);

void collective_task(StepArgs a) {
  const int me = apgas::here();
  PlaceBook& b = g_book[me];
  apgas::Team team = apgas::Team::world();
  const int rank = team.rank();
  double v[8];
  for (int j = 0; j < 6; ++j) v[j] = contribution(a.seed, a.step, rank, j);
  // Leaves that landed here since the last collective, and every payload
  // mismatch seen here so far: the allreduce doubles as the step's check.
  const std::uint64_t leaves = b.leaves.load(std::memory_order_relaxed);
  v[6] = static_cast<double>(leaves - b.reported);
  b.reported = leaves;
  v[7] = static_cast<double>(b.bad.load(std::memory_order_relaxed));
  const bool at0 = me == 0;
  std::uint32_t s = at0 ? g_spans->open(SpanName::kAllreduce, g_coll_span) : 0;
  team.allreduce(v, 8, apgas::ReduceOp::kSum);
  g_spans->close(s);

  auto& buf = b.bcast_buf;
  buf.assign(kBcastWords, 0);
  if (rank == 0) {
    for (int w = 0; w < kBcastWords; ++w) {
      buf[static_cast<std::size_t>(w)] = bcast_word(a.seed, a.step, w);
    }
  }
  s = at0 ? g_spans->open(SpanName::kBcast, g_coll_span) : 0;
  team.bcast(0, buf.data(), buf.size());
  g_spans->close(s);
  if (rank != 0) {
    for (int w = 0; w < kBcastWords; ++w) {
      if (buf[static_cast<std::size_t>(w)] != bcast_word(a.seed, a.step, w)) {
        b.bad.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
  }
  if (at0) std::memcpy(g_allreduce_out, v, sizeof v);
}
const apgas::RemoteFn<StepArgs> kCollective(&collective_task);

struct SpmdJob {
  std::uint64_t seed = 0;
  int warmup = 1;
  bool inject = false;
  LoopShape loop;
};

void spmd_step(const SpmdJob& j, std::uint64_t k, bool timed) {
  const int places = apgas::num_places();
  const StepArgs a{j.seed, k};
  const std::uint32_t u = g_spans->open(SpanName::kUnit, g_sh->run_span);
  const std::int64_t t0 = now_ns();
  const std::uint32_t e = g_spans->open(SpanName::kExchange, u);
  apgas::finish([&] {
    for (int p = 0; p < places; ++p) apgas::asyncAtArgs(p, kExchange, a);
  });
  g_spans->close(e);
  const std::int64_t t1 = now_ns();
  g_coll_span = g_spans->open(SpanName::kCollective, u);
  apgas::finish(Pragma::kSpmd, [&] {
    for (int p = 0; p < places; ++p) apgas::asyncAtArgs(p, kCollective, a);
  });
  g_spans->close(g_coll_span);
  const std::int64_t t2 = now_ns();
  g_spans->close(u);

  bool sums = true;
  for (int jj = 0; jj < 6; ++jj) {
    double want = 0;
    for (int r = 0; r < places; ++r) want += contribution(j.seed, k, r, jj);
    sums = sums && g_allreduce_out[jj] == want;
  }
  const double leaves_want =
      static_cast<double>(places) * places * kLeavesPerPair +
      (j.inject ? 1 : 0);
  // The leaf count and the payload/bcast mismatch count ride the same
  // allreduce; a bcast mismatch at rank r shows in the next step's check.
  const bool leaves_ok = g_allreduce_out[6] == leaves_want;
  const bool clean = g_allreduce_out[7] == 0;
  ++g_sh->all_units;
  const char* why =
      !sums        ? "spmd: allreduce sum differs from the seeded contributions"
      : !leaves_ok ? "spmd: leaf-task count delta differs from places^2 x 16"
                   : "spmd: leaf payload or bcast bytes differ from the pattern";
  check(sums && leaves_ok && clean, why);
  if (timed) {
    push_unit({static_cast<double>(t2 - t0), 1.0, static_cast<double>(t1 - t0),
               static_cast<double>(t2 - t1)});
  }
}

void spmd_main(const SpmdJob& j) {
  g_sh->t_main_start = now_ns();
  std::uint64_t k = 0;
  if (j.loop.probe) {
    spmd_step(j, k++, false);
  } else {
    for (int w = 0; w < j.warmup; ++w) spmd_step(j, k++, false);
    timed_loop(j.loop, [&j, &k] { spmd_step(j, k++, true); });
  }
  // Untimed closing step: its allreduce carries the last step's bcast check.
  spmd_step(j, k++, false);
  g_sh->t_main_end = now_ns();
}

// --- one Runtime::run, measured from outside ----------------------------------

struct RunOutcome {
  CpuJiffies jiffies;      // /proc/stat over the whole run
  double steal_share = 0;  // host CPU steal over the run
  double setup_s = 0;
  double teardown_s = 0;
  double timed_s = 0;
  std::uint32_t all_units = 0;
  std::size_t timed_units = 0;
  /// The timed units of the quiet chunks, in run order, and the VM's busy
  /// CPUs over those chunks.
  std::vector<UnitRec> units;
  double busy_cpus = 0;
  std::map<std::string, std::uint64_t> metrics;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(self.ru_maxrss + kids.ru_maxrss) / 1024.0;
}

void reset_books() {
  for (PlaceBook& b : g_book) {
    b.leaves.store(0);
    b.bad.store(0);
    b.reported = 0;
  }
}

RunOutcome measured_run(const Config& cfg, const std::function<void()>& main,
                        bool spans, std::size_t min_units = 0) {
  reset_books();
  g_sh->t_main_start = g_sh->t_main_end = 0;
  g_sh->timed_start = g_sh->timed_end = 0;
  g_sh->nunits = 0;
  g_sh->nmarks = 0;
  g_sh->all_units = 0;
  g_spans->enabled = spans;
  const CpuJiffies j0 = read_cpu_jiffies();
  const std::int64_t entry = now_ns();
  g_sh->run_span = g_spans->open(SpanName::kRun, 0);
  apgas::Runtime::run(cfg, main);
  g_spans->close(g_sh->run_span);
  const std::int64_t exit = now_ns();
  RunOutcome o;
  const CpuJiffies j1 = read_cpu_jiffies();
  o.jiffies = {j1.steal - j0.steal, j1.busy - j0.busy, j1.total - j0.total};
  o.steal_share = ratio(o.jiffies.steal, o.jiffies.total);
  o.setup_s = 1e-9 * static_cast<double>(g_sh->t_main_start - entry);
  o.teardown_s = 1e-9 * static_cast<double>(exit - g_sh->t_main_end);
  o.timed_s = 1e-9 * static_cast<double>(g_sh->timed_end - g_sh->timed_start);
  o.all_units = g_sh->all_units;
  o.timed_units = g_sh->nunits;
  std::vector<Chunk> chunks;
  for (std::uint32_t i = 1; i < g_sh->nmarks && g_sh->nunits > 0; ++i) {
    const Mark& a = g_sh->marks[i - 1];
    const Mark& b = g_sh->marks[i];
    chunks.push_back({a.unit, b.unit, b.at.steal - a.at.steal,
                      b.at.busy - a.at.busy, b.at.total - a.at.total});
  }
  double busy = 0;
  double total = 0;
  const std::size_t n = g_sh->nunits;
  const std::size_t min_keep =
      std::max({std::size_t{1}, n / 4, std::min(n, min_units)});
  for (const std::size_t c : quiet_chunks(chunks, kQuietSteal, min_keep)) {
    o.units.insert(o.units.end(), g_sh->units + chunks[c].first,
                   g_sh->units + chunks[c].last);
    busy += chunks[c].busy;
    total += chunks[c].total;
  }
  o.busy_cpus = ratio(busy, total) *
                static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  o.metrics = apgas::last_run_metrics();
  g_spans->enabled = false;
  return o;
}

Config make_config(Workload w, bool histograms) {
  Config c;  // built in code: no APGAS_* environment is consulted
  c.places = w == Workload::kSpmdSocket ? 2 : 4;
  c.workers_per_place = 1;
  c.backend = w == Workload::kSpmdSocket ? BackendKind::kSocket
                                         : BackendKind::kInProc;
  c.dma_threads = 0;  // one worker (+ one I/O thread in socket mode) a place
  c.histograms = histograms;
  return c;
}

// --- metrics ------------------------------------------------------------------

double get(const std::map<std::string, std::uint64_t>& m,
           const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : static_cast<double>(it->second);
}

std::vector<double> column(const std::vector<UnitRec>& u,
                           double (*f)(const UnitRec&)) {
  std::vector<double> out;
  out.reserve(u.size());
  for (const UnitRec& r : u) out.push_back(f(r));
  return out;
}

/// Units per second: Mnodes/s for uts (a "unit" is a million tree nodes
/// there), steps/s for the spmd workloads. The timed units are cut into
/// kRateBlocks consecutive blocks of equal count; each block's rate is its
/// work over its time, and the median block rate is reported, so a burst of
/// outside load on the host moves one block instead of the whole figure.
constexpr std::size_t kRateBlocks = 10;

double units_per_s(Workload w, const RunOutcome& o) {
  const std::size_t n = o.units.size();
  const double scale = w == Workload::kUts ? 1e6 : 1.0;
  std::vector<double> rates;
  for (std::size_t b = 0; b < kRateBlocks; ++b) {
    const std::size_t lo = n * b / kRateBlocks;
    const std::size_t hi = n * (b + 1) / kRateBlocks;
    double work = 0;
    double ns = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      work += o.units[i].work;
      ns += o.units[i].ns;
    }
    if (ns > 0) rates.push_back(work / scale / (ns / 1e9));
  }
  return median(rates);
}

/// Per-unit latency samples in µs: per-traversal µs per million nodes for
/// uts, step µs for the spmd workloads.
std::vector<double> unit_latency_us(Workload w, const RunOutcome& o) {
  std::vector<double> out;
  for (const UnitRec& r : o.units) {
    out.push_back(w == Workload::kUts ? r.ns / 1e3 / (r.work / 1e6)
                                      : r.ns / 1e3);
  }
  return out;
}

}  // namespace

bool parse_workload(const std::string& name, Workload* out) {
  if (name == "uts") *out = Workload::kUts;
  else if (name == "spmd") *out = Workload::kSpmd;
  else if (name == "spmd_socket") *out = Workload::kSpmdSocket;
  else return false;
  return true;
}

UtsTree choose_uts_tree(const Options& opt) {
  // Geometric trees of one shape differ in size by orders of magnitude from
  // seed to seed (from 1 node to tens of millions at depth 11). The seed
  // itself is the first candidate root; later candidates are hashed from
  // (seed, k), so every seed gets its own tree. A cheap traversal four
  // levels shallower predicts the full size (x 4^4); the full traversal
  // then confirms it.
  const double lo = static_cast<double>(opt.uts_nodes_lo);
  const double hi = static_cast<double>(opt.uts_nodes_hi);
  for (std::uint64_t k = 0;; ++k) {
    const auto root = static_cast<std::uint32_t>(
        k == 0 ? opt.seed : mix(opt.seed * 0x9e3779b97f4a7c15ULL + k));
    kernels::UtsParams p;
    p.seed = root;
    p.depth = std::max(1, opt.uts_depth - 4);
    const double est =
        static_cast<double>(kernels::uts_sequential(p).nodes) * 256.0;
    if (est < 0.8 * lo || est > 1.25 * hi) continue;
    p.depth = opt.uts_depth;
    const std::uint32_t s =
        g_spans != nullptr ? g_spans->open(SpanName::kUtsSequential, 0) : 0;
    const kernels::UtsResult full = kernels::uts_sequential(p);
    if (g_spans != nullptr) g_spans->close(s);
    if (full.nodes < opt.uts_nodes_lo || full.nodes > opt.uts_nodes_hi) {
      continue;
    }
    return {root, full.nodes, full.mnodes_per_sec};
  }
}

const std::map<std::string, std::string>& end_to_end_units() {
  static const std::map<std::string, std::string> m = {
      {"setup_s", "s"},         {"teardown_s", "s"},
      {"units_per_s", "1/s"},   {"unit_p50_us", "us"},
      {"unit_p90_us", "us"},    {"cpu_per_wall", "ratio"},
      {"peak_rss_mb", "MB"},
  };
  return m;
}

const std::map<std::string, std::string>& per_layer_units() {
  static const std::map<std::string, std::string> m = [] {
    std::map<std::string, std::string> u = {
        {"kernels.uts_seq_mnodes_per_s", "Mnodes/s"},
        {"uts_efficiency", "ratio"},
        {"glb.run_s", "s"},
        {"glb.steal_hit_ratio", "ratio"},
        {"glb.steal_to_work_ns_p50", "ns"},
        {"glb.resuscitations", "count"},
        {"glb.imbalance", "ratio"},
        {"glb.collapsed_traversals", "count"},
        {"sched.ship_ns_p50", "ns"},
        {"sched.ship_ns_p99", "ns"},
        {"sched.idle_transitions_per_unit", "count"},
        {"sched.exec_ns_p50", "ns"},
        {"finish.exchange_us_p50", "us"},
        {"finish.close_ns_p50.auto", "ns"},
        {"finish.close_ns_p50.spmd", "ns"},
        {"finish.ctrl_msgs_per_step", "count"},
        {"team.collective_us_p50", "us"},
        {"team.allreduce_ns_p50", "ns"},
        {"team.bcast_ns_p50", "ns"},
        {"team.msgs_per_step", "count"},
        {"x10rt.msgs_per_step", "count"},
        {"x10rt.bytes_per_step", "bytes"},
        {"x10rt.frames_per_step", "count"},
        {"x10rt.pool_hit_ratio", "ratio"},
        {"x10rt.coalesce_records_per_envelope", "ratio"},
        {"x10rt.retx_spurious_ratio", "ratio"},
        {"x10rt.standalone_acks_per_step", "count"},
        {"x10rt.ship_xproc_ns_p50", "ns"},
        {"launcher.setup_excess_s", "s"},
        {"obs.trace_overhead", "ratio"},
        {"step.residual_us_p50", "us"},
    };
    for (int i = 0; i < kNumSpanNames; ++i) {
      u[std::string("span.") + span_name(static_cast<SpanName>(i)) +
        ".self_us_p50"] = "us";
    }
    return u;
  }();
  return m;
}

Report run_workload(const Options& opt) {
  map_shared();
  Report rep;
  g_sh->attempted = g_sh->failed = 0;
  g_sh->first_failure[0] = '\0';
  g_sh->nspans = 0;
  g_spans->enabled = opt.traced;
  const Workload w = opt.workload;

  // Inputs, derived from the seed.
  UtsJob uts;
  SpmdJob spmd;
  UtsTree tree;
  if (w == Workload::kUts) {
    tree = choose_uts_tree(opt);
    uts.params.seed = tree.root_seed;
    uts.params.depth = opt.uts_depth;
    uts.params.glb.chunk = kUtsChunk;
    uts.expected = tree.nodes + (opt.inject_wrong_expectation ? 1 : 0);
    rep.info["uts_root_seed"] = std::to_string(tree.root_seed);
    rep.info["uts_nodes"] = std::to_string(tree.nodes);
  } else {
    spmd.seed = opt.seed;
    spmd.warmup = opt.spmd_warmup_steps;
    spmd.inject = opt.inject_wrong_expectation;
  }
  g_spans->enabled = false;

  auto main_for = [&](const LoopShape& loop) -> std::function<void()> {
    if (w == Workload::kUts) {
      UtsJob j = uts;
      j.loop = loop;
      return [j] { uts_main(j); };
    }
    SpmdJob j = spmd;
    j.loop = loop;
    return [j] { spmd_main(j); };
  };
  LoopShape timed;
  timed.seconds = opt.traced ? opt.seconds / 2 : opt.seconds;
  timed.min_units = opt.traced ? 0 : opt.min_units;
  LoopShape probe;
  probe.probe = true;

  // Set-up probes: the run's configuration, one unit each. Like the timed
  // units, probes the host stole from are left out while a third remain.
  const Config cfg = make_config(w, opt.traced);
  auto probe_medians = [&](const Config& c) -> std::pair<double, double> {
    std::vector<RunOutcome> runs;
    std::vector<Chunk> chunks;
    for (int i = 0; i < opt.setup_probes; ++i) {
      runs.push_back(measured_run(c, main_for(probe), false));
      const CpuJiffies& j = runs.back().jiffies;
      chunks.push_back({runs.size() - 1, runs.size(), j.steal, j.busy, j.total});
    }
    std::vector<double> setups;
    std::vector<double> teardowns;
    for (const std::size_t i :
         quiet_chunks(chunks, kQuietSteal,
                      std::max<std::size_t>(1, runs.size() / 3))) {
      setups.push_back(runs[i].setup_s);
      teardowns.push_back(runs[i].teardown_s);
    }
    return {median(setups), median(teardowns)};
  };
  const auto [setup_s, teardown_s] = probe_medians(cfg);

  auto& m = rep.metrics;
  if (!opt.traced) {
    const RunOutcome o = measured_run(cfg, main_for(timed), false,
                                      opt.min_units);
    const std::vector<double> lat = unit_latency_us(w, o);
    const Percentile p50 = percentile(lat, 0.5);
    const Percentile p90 = percentile(lat, 0.9);
    m["setup_s"] = setup_s;
    m["teardown_s"] = teardown_s;
    m["units_per_s"] = units_per_s(w, o);
    m["unit_p50_us"] = p50.value;
    m["unit_p90_us"] = p90.value;
    m["cpu_per_wall"] = o.busy_cpus;
    m["peak_rss_mb"] = peak_rss_mb();
    rep.info["timed_units"] = std::to_string(o.timed_units);
    rep.info["quiet_units"] = std::to_string(o.units.size());
    rep.info["timed_seconds"] = std::to_string(o.timed_s);
    rep.info["p90_samples_beyond"] = std::to_string(p90.beyond);
    rep.info["setup_probes"] = std::to_string(opt.setup_probes);
    rep.info["host_steal_share"] = std::to_string(o.steal_share);
    if (!p50.ok || !p90.ok) {
      rep.error = "too few timed units for p90 (" +
                  std::to_string(o.units.size()) + ")";
    }
  } else {
    // Untraced reference run, then the traced run the ledger is read from.
    const Config plain = make_config(w, false);
    const RunOutcome ref = measured_run(plain, main_for(timed), false);
    const RunOutcome o = measured_run(cfg, main_for(timed), true);
    const auto& mm = o.metrics;
    const double units = std::max<double>(1, o.all_units);
    const double ref_rate = units_per_s(w, ref);

    // kernels + glb (uts only; zero where the layer does no work).
    if (w == Workload::kUts) {
      m["kernels.uts_seq_mnodes_per_s"] = tree.seq_mnodes_per_s;
      m["uts_efficiency"] =
          ratio(ref_rate, cfg.places * tree.seq_mnodes_per_s);
      m["glb.run_s"] = median(column(o.units, [](const UnitRec& r) {
                         return r.a;
                       })) / 1e9;
      m["glb.imbalance"] =
          median(column(o.units, [](const UnitRec& r) { return r.b; }));
      double collapsed = 0;
      for (const RunOutcome* run : {&ref, &o}) {
        for (const UnitRec& r : run->units) {
          const double rate = r.work / (r.ns / 1e3);  // Mnodes/s
          if (rate < 1.5 * tree.seq_mnodes_per_s) ++collapsed;
        }
      }
      m["glb.collapsed_traversals"] = collapsed;
      rep.info["collapsed_of"] =
          std::to_string(ref.units.size() + o.units.size());
    } else {
      m["kernels.uts_seq_mnodes_per_s"] = 0;
      m["uts_efficiency"] = 0;
      m["glb.run_s"] = 0;
      m["glb.imbalance"] = 0;
      m["glb.collapsed_traversals"] = 0;
    }
    m["glb.steal_hit_ratio"] =
        ratio(get(mm, "glb.steal_hits"), get(mm, "glb.steal_attempts"));
    m["glb.steal_to_work_ns_p50"] = get(mm, "hist.glb.steal_to_work_ns.p50");
    m["glb.resuscitations"] = get(mm, "glb.resuscitations") / units;

    // sched
    m["sched.ship_ns_p50"] = get(mm, "hist.task.ship_ns.p50");
    m["sched.ship_ns_p99"] = get(mm, "hist.task.ship_ns.p99");
    double idle = 0;
    for (int p = 0; p < cfg.places; ++p) {
      idle += get(mm, "sched.p" + std::to_string(p) + ".idle_transitions");
    }
    m["sched.idle_transitions_per_unit"] = idle / units;
    m["sched.exec_ns_p50"] = get(mm, "hist.activity.exec_ns.p50");

    // finish + team: phase times from the step records.
    const bool steps = w != Workload::kUts;
    m["finish.exchange_us_p50"] =
        steps ? median(column(o.units, [](const UnitRec& r) { return r.a; })) /
                    1e3
              : 0;
    m["team.collective_us_p50"] =
        steps ? median(column(o.units, [](const UnitRec& r) { return r.b; })) /
                    1e3
              : 0;
    m["finish.close_ns_p50.auto"] = get(mm, "hist.finish.close_ns.auto.p50");
    m["finish.close_ns_p50.spmd"] = get(mm, "hist.finish.close_ns.spmd.p50");
    m["finish.ctrl_msgs_per_step"] = get(mm, "transport.msgs.control") / units;
    m["team.allreduce_ns_p50"] = get(mm, "hist.team.op_ns.allreduce.p50");
    m["team.bcast_ns_p50"] = get(mm, "hist.team.op_ns.bcast.p50");
    m["team.msgs_per_step"] = get(mm, "transport.msgs.collective") / units;

    // x10rt
    double bytes = 0;
    for (const char* cls : {"task", "control", "collective", "data", "rdma",
                            "steal", "other"}) {
      bytes += get(mm, std::string("transport.bytes.") + cls);
    }
    m["x10rt.msgs_per_step"] = get(mm, "transport.msgs.total") / units;
    m["x10rt.bytes_per_step"] = bytes / units;
    m["x10rt.frames_per_step"] =
        get(mm, "transport.backend.frames_sent") / units;
    m["x10rt.pool_hit_ratio"] =
        ratio(get(mm, "transport.pool.hits"),
              get(mm, "transport.pool.hits") + get(mm, "transport.pool.misses"));
    m["x10rt.coalesce_records_per_envelope"] =
        ratio(get(mm, "transport.coalesce.records"),
              get(mm, "transport.coalesce.envelopes"));
    m["x10rt.retx_spurious_ratio"] = ratio(
        get(mm, "transport.retx.retransmits"), get(mm, "transport.retx.sent"));
    m["x10rt.standalone_acks_per_step"] =
        get(mm, "transport.retx.standalone_acks") / units;
    m["x10rt.ship_xproc_ns_p50"] = get(mm, "hist.task.ship_xproc_ns.p50");

    // launcher: socket set-up against the in-process spmd set-up.
    m["launcher.setup_excess_s"] = 0;
    if (w == Workload::kSpmdSocket) {
      m["launcher.setup_excess_s"] =
          setup_s - probe_medians(make_config(Workload::kSpmd, true)).first;
    }

    // observability: traced over untraced primary metric.
    m["obs.trace_overhead"] = ratio(units_per_s(w, o), ref_rate);

    // spans: self time per span name, and the step residual.
    const std::size_t n = g_spans->size();
    const std::vector<double> self = self_times_ns(g_spans->data(), n);
    std::vector<std::vector<double>> by_name(kNumSpanNames);
    for (std::size_t i = 0; i < n; ++i) {
      by_name[static_cast<int>(g_spans->data()[i].name)].push_back(self[i]);
    }
    for (int i = 0; i < kNumSpanNames; ++i) {
      m[std::string("span.") + span_name(static_cast<SpanName>(i)) +
        ".self_us_p50"] = median(by_name[static_cast<std::size_t>(i)]) / 1e3;
    }
    m["step.residual_us_p50"] =
        median(step_residuals_ns(g_spans->data(), n)) / 1e3;
    rep.info["spans"] = std::to_string(n);
    rep.info["traced_units"] = std::to_string(o.units.size());
    rep.info["host_steal_share"] = std::to_string(
        std::max(ref.steal_share, o.steal_share));
    if (!opt.spans_path.empty() &&
        !write_spans(opt.spans_path, g_spans->data(), n)) {
      rep.info["spans_write"] = "failed: " + opt.spans_path;
    }
  }

  rep.tally.attempted = g_sh->attempted;
  rep.tally.failed = g_sh->failed;
  rep.tally.first_failure = g_sh->first_failure;
  return rep;
}

}  // namespace perfbench
