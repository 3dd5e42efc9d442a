// Ablation of the section-5.2 storage design choices:
//
//  (a) interleaved vs contiguous per-thread rope stacks (non-lockstep):
//      the paper interleaves so that lanes at the same level hit the same
//      128-byte segment; a contiguous per-lane layout destroys that.
//  (b) shared-memory vs global-memory per-warp stack (lockstep): the paper
//      stores the warp stack in shared memory ("use shared memory to
//      maintain the rope stack once per warp").
//
// Reported: modelled time and DRAM transactions per configuration.
#include <iostream>

#include "bench_algos/pc/point_correlation.h"
#include "bench_common.h"
#include "core/gpu_executors.h"
#include "data/generators.h"
#include "data/sorting.h"
#include "spatial/kdtree.h"
#include "util/csv.h"

using namespace tt;

int main(int argc, char** argv) {
  Cli cli("ablation_layout: stack-layout design choices of section 5.2");
  benchx::add_common_flags(cli);
  return benchx::run_main(cli, argc, argv, "ablation_layout", [&]() -> int {
    Table table({"Order", "Variant", "Stack", "Time(ms)", "DRAM txn",
                 "L2 hits"});
    const auto n = static_cast<std::size_t>(cli.get_int("points"));
    for (bool sorted : {true, false}) {
      PointSet pts = gen_covtype_like(n, 7, 42);
      auto perm = sorted ? tree_order(pts, 8) : shuffled_order(n, 42);
      pts.permute(perm);
      KdTree tree = build_kdtree(pts, 8);
      float r = pc_pick_radius(pts, cli.get_double("pc-neighbors"), 42);
      GpuAddressSpace space;
      PointCorrelationKernel k(tree, pts, r, space);
      DeviceConfig cfg;

      struct Cfg {
        const char* variant;
        const char* stack;
        GpuMode mode;
      };
      GpuMode contiguous = GpuMode::from(Variant::kAutoNolockstep);
      contiguous.contiguous_stack = true;
      GpuMode global_stack = GpuMode::from(Variant::kAutoLockstep);
      global_stack.lockstep_stack_global = true;
      GpuMode grid_stride = GpuMode::from(Variant::kAutoLockstep);
      grid_stride.grid_limit = 112;  // 14 SMs x 8 warps: Figure 9b's loop
      const Cfg cfgs[] = {
          {"autoropes-N", "interleaved", GpuMode::from(Variant::kAutoNolockstep)},
          {"autoropes-N", "contiguous", contiguous},
          {"autoropes-L", "shared-mem", GpuMode::from(Variant::kAutoLockstep)},
          {"autoropes-L", "global", global_stack},
          {"autoropes-L", "grid-stride", grid_stride},
      };
      for (const Cfg& c : cfgs) {
        if (!benchx::variant_enabled(cli, c.mode.variant)) continue;
        auto g = run_gpu_sim(k, space, cfg, c.mode);
        table.add_row({sorted ? "sorted" : "unsorted", c.variant, c.stack,
                       fmt_fixed(g.time.total_ms, 3),
                       std::to_string(g.stats.dram_transactions),
                       std::to_string(g.stats.l2_hit_transactions)});
      }
    }
    benchx::emit(table, cli.get_flag("csv"));
    obs::RunReport report = benchx::make_report(cli, "ablation_layout");
    report.add_table("ablation_layout", table);
    if (!benchx::maybe_write_report(cli, report)) return 1;
    return 0;
  });
}
