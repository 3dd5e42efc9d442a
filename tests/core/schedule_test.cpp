#include "core/schedule.h"

#include <gtest/gtest.h>

#include "bench_algos/knn/knn.h"
#include "bench_algos/pc/point_correlation.h"
#include "data/generators.h"
#include "data/sorting.h"
#include "spatial/kdtree.h"

namespace tt {
namespace {

TEST(LaunchShape, WarpCountRoundsUp) {
  DeviceConfig cfg;
  EXPECT_EQ(launch_shape(1, 8, 8, cfg).n_warps, 1u);
  EXPECT_EQ(launch_shape(32, 8, 8, cfg).n_warps, 1u);
  EXPECT_EQ(launch_shape(33, 8, 8, cfg).n_warps, 2u);
}

TEST(LaunchShape, ResidencyBoundedByDevice) {
  DeviceConfig cfg;
  LaunchShape s = launch_shape(1 << 20, 8, 8, cfg);
  EXPECT_EQ(s.resident_warps,
            static_cast<std::size_t>(cfg.max_resident_warps()));
}

TEST(LaunchShape, SharedMemoryLimitsOccupancy) {
  DeviceConfig cfg;
  // A giant per-warp stack squeezes occupancy to 1 warp per SM.
  LaunchShape s = launch_shape(1 << 20, 4096, 16, cfg);
  EXPECT_EQ(s.smem_stack_bytes, 4096u * 16u);
  EXPECT_LE(s.resident_warps, static_cast<std::size_t>(cfg.num_sms));
}

TEST(LaunchShape, OverflowingSmemFlagged) {
  DeviceConfig cfg;
  LaunchShape s = launch_shape(64, 100000, 16, cfg);
  EXPECT_FALSE(s.smem_fits);
}

struct PcFixture {
  PointSet pts;
  KdTree tree;
  GpuAddressSpace space;

  explicit PcFixture(bool sorted) : pts(gen_covtype_like(1500, 7, 29)) {
    auto perm = sorted ? tree_order(pts, 8) : shuffled_order(pts.size(), 29);
    pts.permute(perm);
    tree = build_kdtree(pts, 8);
  }
};

TEST(DecideVariant, UnguidedSortedPicksLockstep) {
  PcFixture s(true);
  float r = pc_pick_radius(s.pts, 20, 29);
  PointCorrelationKernel k(s.tree, s.pts, r, s.space);
  auto d = decide_variant(k, ir::analyze(pc_ir()), false);
  EXPECT_TRUE(d.legal_lockstep);
  EXPECT_TRUE(d.lockstep);
  EXPECT_EQ(d.mode().variant, Variant::kAutoLockstep);
}

TEST(DecideVariant, GuidedWithoutAnnotationNeverLockstep) {
  PcFixture s(true);
  KnnKernel k(s.tree, s.pts, 4, s.space);
  auto d = decide_variant(k, ir::analyze(knn_ir()),
                          /*callsets_annotated_equivalent=*/false);
  EXPECT_FALSE(d.legal_lockstep);
  EXPECT_FALSE(d.lockstep);
}

TEST(DecideVariant, GuidedWithAnnotationMayLockstep) {
  PcFixture s(true);
  KnnKernel k(s.tree, s.pts, 4, s.space);
  auto d = decide_variant(k, ir::analyze(knn_ir()), true);
  EXPECT_TRUE(d.legal_lockstep);
}

}  // namespace
}  // namespace tt
