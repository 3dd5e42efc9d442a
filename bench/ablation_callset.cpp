// Ablation of the section-4.3 dynamic single-call-set reduction: for the
// guided kNN benchmark, compare
//
//   vote     -- lockstep with the per-node warp majority vote (the paper's
//               transformation),
//   static   -- lockstep forced to one statically chosen call set for the
//               whole traversal (what a compiler without the dynamic vote
//               would have to do),
//   none (N) -- non-lockstep, every lane follows its own preferred order.
//
// The paper argues the dynamic vote beats the static choice because
// different warps can adopt different orders; the numbers here quantify
// that via visited nodes and modelled time.
#include <iostream>

#include "bench_algos/knn/knn.h"
#include "bench_common.h"
#include "core/gpu_executors.h"
#include "data/generators.h"
#include "data/sorting.h"
#include "spatial/kdtree.h"
#include "util/csv.h"

using namespace tt;

namespace {

struct StaticOrderKernel : KnnKernel {
  using KnnKernel::KnnKernel;
  [[nodiscard]] int choose_callset(NodeId, const State&) const {
    return 0;  // always left-first, regardless of the query
  }
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli("ablation_callset: majority vote vs static call set (section 4.3)");
  benchx::add_common_flags(cli);
  return benchx::run_main(cli, argc, argv, "ablation_callset", [&]() -> int {
    Table table(
        {"Order", "CallSetPolicy", "Time(ms)", "AvgNodes", "LaneVisits"});
    const auto n = cli.get_count("points");
    const int k_neighbors = static_cast<int>(cli.get_count("k"));
    for (bool sorted : {true, false}) {
      PointSet pts = gen_covtype_like(n, 7, 7);
      auto perm = sorted ? tree_order(pts, 8) : shuffled_order(n, 7);
      pts.permute(perm);
      KdTree tree = build_kdtree(pts, 8);
      GpuAddressSpace space;
      KnnKernel voted(tree, pts, k_neighbors, space);
      StaticOrderKernel fixed(tree, pts, k_neighbors, space);
      DeviceConfig cfg;

      auto emit_row = [&](const char* policy, auto& g) {
        table.add_row({sorted ? "sorted" : "unsorted", policy,
                       fmt_fixed(g.time.total_ms, 3),
                       fmt_fixed(g.avg_nodes(), 0),
                       std::to_string(g.stats.lane_visits)});
      };
      if (benchx::variant_enabled(cli, Variant::kAutoLockstep)) {
        auto gv = run_gpu_sim(voted, space, cfg,
                              GpuMode::from(Variant::kAutoLockstep));
        emit_row("vote (L)", gv);
        auto gs = run_gpu_sim(fixed, space, cfg,
                              GpuMode::from(Variant::kAutoLockstep));
        emit_row("static (L)", gs);
      }
      if (benchx::variant_enabled(cli, Variant::kAutoNolockstep)) {
        auto gn = run_gpu_sim(voted, space, cfg,
                              GpuMode::from(Variant::kAutoNolockstep));
        emit_row("per-lane (N)", gn);
      }
    }
    benchx::emit(table, cli.get_flag("csv"));
    obs::RunReport report = benchx::make_report(cli, "ablation_callset");
    report.add_table("ablation_callset", table);
    if (!benchx::maybe_write_report(cli, report)) return 1;
    return 0;
  });
}
