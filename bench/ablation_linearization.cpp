// Ablation of the tree memory layout: the paper's left-biased DFS
// linearization (section 5.2) vs a BFS relayout. Node ids are simulated
// addresses, so the layout alone changes L2 reuse and coalescing; results
// are bit-identical by construction.
#include <iostream>

#include "bench_algos/pc/point_correlation.h"
#include "bench_common.h"
#include "core/gpu_executors.h"
#include "data/generators.h"
#include "data/sorting.h"
#include "spatial/kdtree.h"
#include "spatial/relayout.h"
#include "util/csv.h"

using namespace tt;

int main(int argc, char** argv) {
  Cli cli("ablation_linearization: DFS (paper) vs BFS tree layout");
  benchx::add_common_flags(cli);
  return benchx::run_main(cli, argc, argv, "ablation_linearization", [&]() -> int {
    Table table({"Order", "Variant", "Layout", "Time(ms)", "DRAM txn",
                 "L2 hits"});
    const auto n = cli.get_count("points");
    for (bool sorted : {true, false}) {
      PointSet pts = gen_covtype_like(n, 7, 23);
      pts.permute(sorted ? tree_order(pts, 8) : shuffled_order(n, 23));
      KdTree dfs = build_kdtree(pts, 8);
      KdTree bfs = relayout_kdtree_bfs(dfs);
      float r = pc_pick_radius(pts, cli.get_double("pc-neighbors"), 23);
      DeviceConfig cfg;

      auto run_one = [&](const KdTree& tree, const char* layout,
                         bool lockstep) {
        const Variant v = lockstep ? Variant::kAutoLockstep
                                   : Variant::kAutoNolockstep;
        if (!benchx::variant_enabled(cli, v)) return;
        GpuAddressSpace space;
        PointCorrelationKernel k(tree, pts, r, space);
        auto g = run_gpu_sim(k, space, cfg, GpuMode::from(v));
        table.add_row({sorted ? "sorted" : "unsorted",
                       lockstep ? "L" : "N", layout,
                       fmt_fixed(g.time.total_ms, 3),
                       std::to_string(g.stats.dram_transactions),
                       std::to_string(g.stats.l2_hit_transactions)});
      };
      for (bool lockstep : {true, false}) {
        run_one(dfs, "dfs", lockstep);
        run_one(bfs, "bfs", lockstep);
      }
    }
    benchx::emit(table, cli.get_flag("csv"));
    obs::RunReport report = benchx::make_report(cli, "ablation_linearization");
    report.add_table("ablation_linearization", table);
    if (!benchx::maybe_write_report(cli, report)) return 1;
    return 0;
  });
}
