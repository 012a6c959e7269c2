// Table 2 (paper §5.2): relative efficiency — per-place performance of the
// same implementation at scale versus at one place (one host in the paper),
// for all eight kernels. Wall-clock columns are affected by core
// oversubscription (see DESIGN.md §6); the UTS row also reports the exact
// work-balance quality, which is hardware-independent.
#include <algorithm>
#include <thread>

#include "bench_common.h"
#include "kernels/bc/bc.h"
#include "kernels/fft/fft.h"
#include "kernels/hpl/hpl.h"
#include "kernels/kmeans/kmeans.h"
#include "kernels/ra/randomaccess.h"
#include "kernels/stream/stream.h"
#include "kernels/sw/smith_waterman.h"
#include "kernels/uts/uts.h"
#include "runtime/api.h"

using namespace apgas;

namespace {

Config cfg_n(int places) {
  Config cfg;
  cfg.places_per_node = 8;
  cfg.congruent_bytes = 16u << 20;
  return bench::observe_places(cfg, places);
}

template <typename F>
double per_place_rate(int places, F kernel_rate) {
  double rate = 0;
  Runtime::run(cfg_n(places), [&] { rate = kernel_rate(); });
  bench::maybe_emit_metrics("places" + std::to_string(places));
  return rate;
}

double core_adjust() {
  const double cores = std::thread::hardware_concurrency();
  return 8.0 / std::min(8.0, cores);  // kScale places timeshare the cores
}

void report(const char* name, double at_one, double at_scale,
            const char* unit) {
  bench::row("%-22s %14.4f %14.4f %-12s %9.0f%% %9.0f%%", name, at_one,
             at_scale, unit, 100.0 * at_scale / at_one,
             100.0 * core_adjust() * at_scale / at_one);
}

}  // namespace

int main() {
  constexpr int kScale = 8;
  bench::header("Table 2 — relative efficiency: per-place rate, 1 place vs "
                "at scale");
  bench::row("%-22s %14s %14s %-12s %10s %10s", "benchmark", "1 place",
             "at scale", "unit", "rel. eff.", "core-adj");

  report("Global HPL",
         per_place_rate(1,
                        [] {
                          kernels::HplParams p;
                          p.n = 256;
                          return kernels::hpl_run(p).gflops_per_place;
                        }),
         per_place_rate(kScale,
                        [] {
                          kernels::HplParams p;
                          p.n = 512;
                          return kernels::hpl_run(p).gflops_per_place;
                        }),
         "Gflop/s");

  report("Global RandomAccess",
         per_place_rate(1,
                        [] {
                          kernels::RaParams p;
                          p.log2_table_per_place = 14;
                          return kernels::randomaccess_run(p).gups_per_place;
                        }),
         per_place_rate(kScale,
                        [] {
                          kernels::RaParams p;
                          p.log2_table_per_place = 14;
                          return kernels::randomaccess_run(p).gups_per_place;
                        }),
         "GUP/s");

  report("Global FFT",
         per_place_rate(1,
                        [] {
                          kernels::FftParams p;
                          p.log2_size = 16;
                          return kernels::fft_run(p).gflops_per_place;
                        }),
         per_place_rate(kScale,
                        [] {
                          kernels::FftParams p;
                          p.log2_size = 19;
                          return kernels::fft_run(p).gflops_per_place;
                        }),
         "Gflop/s");

  report("EP Stream (Triad)",
         per_place_rate(1,
                        [] {
                          kernels::StreamParams p;
                          p.elements_per_place = 1u << 17;
                          return kernels::stream_run(p).gb_per_sec_per_place;
                        }),
         per_place_rate(kScale,
                        [] {
                          kernels::StreamParams p;
                          p.elements_per_place = 1u << 17;
                          return kernels::stream_run(p).gb_per_sec_per_place;
                        }),
         "GB/s");

  report("UTS",
         per_place_rate(1,
                        [] {
                          kernels::UtsParams p;
                          p.depth = 10;
                          return kernels::uts_run(p).mnodes_per_sec_per_place;
                        }),
         per_place_rate(kScale,
                        [] {
                          kernels::UtsParams p;
                          p.depth = 11;
                          return kernels::uts_run(p).mnodes_per_sec_per_place;
                        }),
         "Mnodes/s");

  // K-Means and Smith-Waterman report run time (lower is better), so
  // efficiency is t1 / tP as in the paper.
  {
    double t1 = 0, tp = 0;
    Runtime::run(cfg_n(1), [&] {
      kernels::KmeansParams p;
      p.points_per_place = 2000;
      t1 = kernels::kmeans_run(p).seconds;
    });
    Runtime::run(cfg_n(kScale), [&] {
      kernels::KmeansParams p;
      p.points_per_place = 2000;
      tp = kernels::kmeans_run(p).seconds;
    });
    bench::row("%-22s %13.4fs %13.4fs %-12s %9.0f%% %9.0f%%", "K-Means", t1,
               tp, "run time", 100.0 * t1 / tp,
               100.0 * core_adjust() * t1 / tp);
  }
  {
    double t1 = 0, tp = 0;
    Runtime::run(cfg_n(1), [&] {
      kernels::SwParams p;
      p.long_per_place = 20000;
      t1 = kernels::smith_waterman_run(p).seconds;
    });
    Runtime::run(cfg_n(kScale), [&] {
      kernels::SwParams p;
      p.long_per_place = 20000;
      tp = kernels::smith_waterman_run(p).seconds;
    });
    bench::row("%-22s %13.4fs %13.4fs %-12s %9.0f%% %9.0f%%",
               "Smith-Waterman", t1, tp, "run time", 100.0 * t1 / tp,
               100.0 * core_adjust() * t1 / tp);
  }

  report("Betweenness Centrality",
         per_place_rate(1,
                        [] {
                          kernels::BcParams p;
                          p.graph.scale = 9;
                          p.sources = 32;
                          return kernels::bc_run(p).medges_per_sec_per_place;
                        }),
         per_place_rate(kScale,
                        [] {
                          kernels::BcParams p;
                          p.graph.scale = 11;  // the paper's instance switch
                          p.sources = 32;
                          return kernels::bc_run(p).medges_per_sec_per_place;
                        }),
         "Medges/s");

  bench::row("(paper's Table 2: HPL 87%%, RandomAccess 100%%, FFT 100%%,"
             " Stream 98%%, UTS 98%%, K-Means 98%%, SW 98%%, BC 45%%)");
  return 0;
}
