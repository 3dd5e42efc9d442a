// Reproducibility guarantees: simulations are bit-deterministic for a
// given seed regardless of host parallelism (per-warp L2 slices keep warp
// simulations independent), and the profiler agrees with the executors'
// own visit accounting.
#include <gtest/gtest.h>

#include "bench_algos/pc/point_correlation.h"
#include "bench_algos/vp/vantage_point.h"
#include "core/cpu_executors.h"
#include "core/gpu_executors.h"
#include "core/profiler.h"
#include "data/generators.h"
#include "data/sorting.h"
#include "spatial/kdtree.h"
#include "spatial/vptree.h"

namespace tt {
namespace {

TEST(Determinism, GpuSimStatsRepeatExactly) {
  PointSet pts = gen_covtype_like(1500, 7, 77);
  pts.permute(tree_order(pts, 8));
  KdTree tree = build_kdtree(pts, 8);
  GpuAddressSpace space;
  float r = pc_pick_radius(pts, 16, 77);
  PointCorrelationKernel k(tree, pts, r, space);
  DeviceConfig cfg;
  for (Variant v : kAllVariants) {
    GpuMode mode = GpuMode::from(v);
    auto a = run_gpu_sim(k, space, cfg, mode);
    auto b = run_gpu_sim(k, space, cfg, mode);
    EXPECT_EQ(a.stats.dram_transactions, b.stats.dram_transactions);
    EXPECT_EQ(a.stats.l2_hit_transactions, b.stats.l2_hit_transactions);
    EXPECT_EQ(a.stats.lane_visits, b.stats.lane_visits);
    EXPECT_DOUBLE_EQ(a.stats.instr_cycles, b.stats.instr_cycles);
    EXPECT_DOUBLE_EQ(a.time.total_ms, b.time.total_ms);
    EXPECT_EQ(a.results, b.results);
  }
}

TEST(Determinism, WholePipelineRepeatsFromSeed) {
  auto run_once = [] {
    PointSet pts = gen_mnist_like(800, 7, 5);
    pts.permute(shuffled_order(pts.size(), 5));
    KdTree tree = build_kdtree(pts, 8);
    GpuAddressSpace space;
    PointCorrelationKernel k(tree, pts, 0.5f, space);
    auto g = run_gpu_sim(k, space, DeviceConfig{}, GpuMode::from(Variant::kAutoLockstep));
    return std::make_pair(g.stats.dram_transactions, g.results);
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Determinism, ProfilerMatchesExecutorVisitCounts) {
  PointSet pts = gen_uniform(640, 7, 6);
  KdTree tree = build_kdtree(pts, 8);
  GpuAddressSpace space;
  PointCorrelationKernel k(tree, pts, 0.3f, space);
  auto cpu = run_cpu(k, CpuVariant::kAutoropes, 1, /*keep_per_point=*/true);
  for (std::uint32_t pid : {0u, 13u, 639u}) {
    auto visited = record_traversal(k, pid);
    EXPECT_EQ(visited.size(), cpu.per_point_visits[pid]) << pid;
  }
}

TEST(Determinism, GuidedKernelsRepeatToo) {
  PointSet pts = gen_geocity_like(900, 7);
  VpTree tree = build_vptree(pts, 7);
  GpuAddressSpace space;
  VpKernel k(tree, pts, space);
  DeviceConfig cfg;
  auto a = run_gpu_sim(k, space, cfg, GpuMode::from(Variant::kAutoLockstep));
  auto b = run_gpu_sim(k, space, cfg, GpuMode::from(Variant::kAutoLockstep));
  EXPECT_EQ(a.per_warp_pops, b.per_warp_pops);
  EXPECT_EQ(a.stats.votes, b.stats.votes);
}

}  // namespace
}  // namespace tt
