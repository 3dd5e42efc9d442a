// Extension experiment: ray/BVH traversal (the paper's introductory
// graphics scenario) under coherent (camera) vs incoherent (random) rays.
// Coherence plays the role sorting plays for the point benchmarks: it is
// what makes lockstep ("packet") traversal profitable (cf. Gunther et al.,
// discussed in the paper's related work).
#include <iostream>

#include "bench_algos/ray/ray_bvh.h"
#include "bench_common.h"
#include "core/gpu_executors.h"
#include "util/csv.h"

using namespace tt;

int main(int argc, char** argv) {
  Cli cli("ray_coherence: lockstep vs non-lockstep for coherent and "
          "incoherent rays over a BVH");
  benchx::add_common_flags(cli);
  cli.add_int("tris", 8192, "triangles in the procedural scene");
  cli.add_int("rays", 16384, "rays to trace");
  return benchx::run_main(cli, argc, argv, "ray_coherence", [&]() -> int {
    TriangleMesh mesh = gen_triangle_scene(cli.get_count("tris"), 31);
    Bvh bvh = build_bvh(mesh, 4);
    const std::size_t n_rays = cli.get_count("rays");
    int side = 1;
    while (static_cast<std::size_t>(side) * side < n_rays) ++side;

    Table table({"Rays", "Type", "Time(ms)", "AvgNodes", "DRAM txn",
                 "ActiveLanes%"});
    DeviceConfig cfg;
    for (bool coherent : {true, false}) {
      auto rays = coherent
                      ? gen_camera_rays(side, side, {0.5f, 0.5f, -1.6f},
                                        {0.5f, 0.5f, 0.5f})
                      : gen_random_rays(
                            static_cast<std::size_t>(side) * side, 31);
      GpuAddressSpace space;
      RayBvhKernel k(bvh, mesh, rays, space);
      for (bool lockstep : {true, false}) {
        const Variant v = lockstep ? Variant::kAutoLockstep
                                   : Variant::kAutoNolockstep;
        if (!benchx::variant_enabled(cli, v)) continue;
        auto g = run_gpu_sim(k, space, cfg, GpuMode::from(v));
        table.add_row(
            {coherent ? "camera (coherent)" : "random (incoherent)",
             lockstep ? "L" : "N", fmt_fixed(g.time.total_ms, 3),
             fmt_fixed(g.avg_nodes(), 0),
             std::to_string(g.stats.dram_transactions),
             fmt_fixed(100.0 *
                           static_cast<double>(g.stats.active_lane_sum) /
                           (static_cast<double>(g.stats.warp_steps) * 32.0),
                       1)});
      }
    }
    benchx::emit(table, cli.get_flag("csv"));
    obs::RunReport report = benchx::make_report(cli, "ray_coherence");
    report.add_table("ray_coherence", table);
    if (!benchx::maybe_write_report(cli, report)) return 1;
    return 0;
  });
}
