// Supporting experiment for the paper's CPU-side locality claims
// (sections 4.4 and 6.2): replay each benchmark's traversal loads through
// an Opteron-like cache hierarchy and report hit rates for sorted vs
// unsorted inputs. Explains (a) why sorting also helps the CPU baseline
// and (b) why Geocity's short clustered traversals make the CPU look so
// strong on that input.
#include <iostream>

#include "bench_algos/pc/point_correlation.h"
#include "bench_algos/knn/knn.h"
#include "bench_common.h"
#include "cpu/cache_profile.h"
#include "data/generators.h"
#include "data/sorting.h"
#include "spatial/kdtree.h"
#include "util/csv.h"

using namespace tt;

int main(int argc, char** argv) {
  Cli cli("cpu_locality: CPU cache behaviour of the traversals, sorted vs "
          "unsorted (sections 4.4 / 6.2)");
  benchx::add_common_flags(cli);
  return benchx::run_main(cli, argc, argv, "cpu_locality", [&]() -> int {
    // CPU-only experiment: no GPU variant rows, but still reject a
    // misspelled --variant instead of silently ignoring it.
    benchx::parse_variant_filter(cli.get_string("variant"));
    const auto n = cli.get_count("points");
    Table table({"Benchmark", "Input", "Order", "L1 hit%", "DRAM%",
                 "Accesses"});

    auto run_pc = [&](InputKind in) {
      for (bool sorted : {true, false}) {
        PointSet pts = in == InputKind::kGeocity
                           ? gen_geocity_like(n, 17)
                           : gen_covtype_like(n, 7, 17);
        pts.permute(sorted ? tree_order(pts, 8) : shuffled_order(n, 17));
        KdTree tree = build_kdtree(pts, 8);
        GpuAddressSpace space;
        float r = pc_pick_radius(pts, cli.get_double("pc-neighbors"), 17);
        PointCorrelationKernel k(tree, pts, r, space);
        CacheStats s = profile_cpu_cache(k, space);
        table.add_row({"PointCorrelation", input_name(in),
                       sorted ? "sorted" : "unsorted",
                       fmt_fixed(100 * s.l1_hit_rate(), 1),
                       fmt_fixed(100 * s.dram_rate(), 2),
                       std::to_string(s.accesses)});
      }
    };
    run_pc(InputKind::kCovtype);
    run_pc(InputKind::kGeocity);

    for (bool sorted : {true, false}) {
      PointSet pts = gen_mnist_like(n, 7, 18);
      pts.permute(sorted ? tree_order(pts, 8) : shuffled_order(n, 18));
      KdTree tree = build_kdtree(pts, 8);
      GpuAddressSpace space;
      KnnKernel k(tree, pts, static_cast<int>(cli.get_count("k")), space);
      CacheStats s = profile_cpu_cache(k, space);
      table.add_row({"kNearestNeighbor", "Mnist",
                     sorted ? "sorted" : "unsorted",
                     fmt_fixed(100 * s.l1_hit_rate(), 1),
                     fmt_fixed(100 * s.dram_rate(), 2),
                     std::to_string(s.accesses)});
    }
    benchx::emit(table, cli.get_flag("csv"));
    obs::RunReport report = benchx::make_report(cli, "cpu_locality");
    report.add_table("cpu_locality", table);
    if (!benchx::maybe_write_report(cli, report)) return 1;
    return 0;
  });
}
