// The benchmark's three closed-loop workloads (README.md "Workloads") and
// the report they produce. Only the public runtime API is used:
// Runtime::run, finish / asyncAtArgs / RemoteFn, Team, glb::Glb,
// kernels::uts_sequential and last_run_metrics().
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "ledger.h"

namespace perfbench {

enum class Workload { kUts, kSpmd, kSpmdSocket };

/// "uts" / "spmd" / "spmd_socket"; false for anything else.
bool parse_workload(const std::string& name, Workload* out);

struct Options {
  Workload workload = Workload::kUts;
  std::uint64_t seed = 1;
  /// Timed interval of the measured Runtime::run. The traced mode splits it
  /// between an untraced and a traced run.
  double seconds = 10;
  /// Per-layer mode: histograms armed, spans recorded, per_layer metrics.
  bool traced = false;
  /// Runtime::run repetitions used only to time set-up and teardown; each
  /// runs one unit (and, on spmd, the closing check step).
  int setup_probes = 21;
  /// Minimum timed units before the loop may stop, so the p90 has ten
  /// samples beyond it. The loop runs at most 2.5 x `seconds` to get them.
  std::size_t min_units = 100;

  // UTS tree: geometric, b0 = 4, `uts_depth` levels. Root seeds are searched
  // from `seed` until the tree's node count lies in [uts_nodes_lo,
  // uts_nodes_hi] (README.md explains why).
  int uts_depth = 11;
  std::uint64_t uts_nodes_lo = 1'000'000;
  std::uint64_t uts_nodes_hi = 1'500'000;

  /// Untimed steps before the spmd timers start.
  int spmd_warmup_steps = 50;

  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_path;

  /// Test hook: verify every unit against a deliberately wrong expectation.
  bool inject_wrong_expectation = false;
};

struct Report {
  Tally tally;
  /// Metric name -> value. Units are fixed per name (metric_unit()).
  std::map<std::string, double> metrics;
  /// Human-readable lines (sample counts, root seed, ...), printed before
  /// the result line.
  std::map<std::string, std::string> info;
  /// Set when a metric could not be computed (e.g. too few samples).
  std::string error;
};

/// The UTS root seed the workload uses for `seed`, and that tree's node
/// count. The search is deterministic.
struct UtsTree {
  std::uint32_t root_seed = 0;
  std::uint64_t nodes = 0;
  double seq_mnodes_per_s = 0;
};
UtsTree choose_uts_tree(const Options& opt);

/// Runs the workload as configured. Must be called while the process is
/// single-threaded (the socket backend forks).
Report run_workload(const Options& opt);

/// The end-to-end and per-layer metric names, with units.
const std::map<std::string, std::string>& end_to_end_units();
const std::map<std::string, std::string>& per_layer_units();

}  // namespace perfbench
