// perfbench: the repository benchmark (README.md).
//
//   perfbench --workload uts|spmd|spmd_socket --seed N --seconds S
//             --trace 0|1 [--spans-out PATH] [--commit ID]
//
// Prints "# key=value" information lines, then one JSON result line:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits nonzero when any unit fails verification or a metric cannot be
// computed.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "workloads.h"

extern char** environ;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload uts|spmd|"
               "spmd_socket --seed N --seconds S --trace 0|1 "
               "[--spans-out PATH] [--commit ID]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The configuration is built in code; an APGAS_* override would silently
  // change what is measured, so refuse to start instead.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "APGAS_", 6) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
      return 2;
    }
  }

  perfbench::Options opt;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (i + 1 >= argc) return usage("missing value");
    const char* v = argv[++i];
    if (a == "--workload") {
      if (!perfbench::parse_workload(v, &opt.workload)) {
        return usage("unknown workload");
      }
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.traced = std::strcmp(v, "0") != 0;
    } else if (a == "--spans-out") {
      opt.spans_path = v;
    } else if (a == "--commit") {
      commit = v;
    } else {
      return usage("unknown argument");
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  const perfbench::Report rep = perfbench::run_workload(opt);

  std::printf("# host nproc=%ld build_type=%s commit=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
              commit.c_str());
  for (const auto& [k, v] : rep.info) std::printf("# %s=%s\n", k.c_str(), v.c_str());
  if (rep.tally.failed > 0) {
    std::printf("# first_failure=%s\n", rep.tally.first_failure.c_str());
  }
  if (!rep.error.empty()) std::printf("# error=%s\n", rep.error.c_str());

  const auto& units = opt.traced ? perfbench::per_layer_units()
                                 : perfbench::end_to_end_units();
  const bool correct = rep.tally.failed == 0 && rep.error.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(rep.tally.attempted),
              static_cast<unsigned long long>(rep.tally.failed));
  bool first = true;
  for (const auto& [name, unit] : units) {
    const auto it = rep.metrics.find(name);
    const double value = it == rep.metrics.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value, unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
