// Cross-variant semantic equivalence (the heart of sections 3.3/4): for
// every benchmark kernel, the CPU recursion, CPU autoropes, and all four
// simulated GPU variants must compute the same per-point results.
#include <gtest/gtest.h>

#include "bench_algos/bh/barnes_hut.h"
#include "bench_algos/knn/knn.h"
#include "bench_algos/nn/nearest_neighbor.h"
#include "bench_algos/pc/point_correlation.h"
#include "bench_algos/vp/vantage_point.h"
#include "core/cpu_executors.h"
#include "core/gpu_executors.h"
#include "data/generators.h"
#include "spatial/kdtree.h"
#include "spatial/octree.h"
#include "spatial/vptree.h"

namespace tt {
namespace {

constexpr std::size_t kN = 700;  // intentionally not a multiple of 32

template <TraversalKernel K, class Eq>
void expect_all_variants_equal(const K& k, GpuAddressSpace& space, Eq&& eq) {
  DeviceConfig cfg;
  auto cpu_rec = run_cpu(k, CpuVariant::kRecursive, 1);
  auto cpu_auto = run_cpu(k, CpuVariant::kAutoropes, 2);
  auto gaN = run_gpu_sim(k, space, cfg, GpuMode::from(Variant::kAutoNolockstep));
  auto gaL = run_gpu_sim(k, space, cfg, GpuMode::from(Variant::kAutoLockstep));
  auto grN = run_gpu_sim(k, space, cfg, GpuMode::from(Variant::kRecNolockstep));
  auto grL = run_gpu_sim(k, space, cfg, GpuMode::from(Variant::kRecLockstep));

  ASSERT_EQ(cpu_rec.results.size(), k.num_points());
  for (std::size_t i = 0; i < k.num_points(); ++i) {
    EXPECT_TRUE(eq(cpu_rec.results[i], cpu_auto.results[i])) << "cpu_auto " << i;
    EXPECT_TRUE(eq(cpu_rec.results[i], gaN.results[i])) << "autoropes-N " << i;
    EXPECT_TRUE(eq(cpu_rec.results[i], gaL.results[i])) << "autoropes-L " << i;
    EXPECT_TRUE(eq(cpu_rec.results[i], grN.results[i])) << "recursive-N " << i;
    EXPECT_TRUE(eq(cpu_rec.results[i], grL.results[i])) << "recursive-L " << i;
  }
}

bool near(float a, float b, float tol) {
  if (a == b) return true;
  float scale = std::max({1.0f, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= tol * scale;
}

TEST(Equivalence, PointCorrelation) {
  PointSet pts = gen_covtype_like(kN, 7, 31);
  KdTree tree = build_kdtree(pts, 8);
  GpuAddressSpace space;
  float r = pc_pick_radius(pts, 16, 31);
  PointCorrelationKernel k(tree, pts, r, space);
  expect_all_variants_equal(
      k, space, [](std::uint32_t a, std::uint32_t b) { return a == b; });
}

TEST(Equivalence, PointCorrelationMatchesBruteForce) {
  PointSet pts = gen_uniform(400, 3, 32);
  KdTree tree = build_kdtree(pts, 4);
  GpuAddressSpace space;
  PointCorrelationKernel k(tree, pts, 0.2f, space);
  auto run = run_cpu(k, CpuVariant::kRecursive, 1);
  auto brute = pc_brute_force(pts, pts, 0.2f);
  EXPECT_EQ(run.results, brute);
}

TEST(Equivalence, Knn) {
  PointSet pts = gen_mnist_like(kN, 7, 33);
  KdTree tree = build_kdtree(pts, 8);
  GpuAddressSpace space;
  KnnKernel k(tree, pts, 8, space);
  expect_all_variants_equal(k, space, [](const KnnResult& a, const KnnResult& b) {
    return near(a.kth_d2, b.kth_d2, 1e-4f) && near(a.sum_d2, b.sum_d2, 1e-3f);
  });
}

TEST(Equivalence, KnnMatchesBruteForce) {
  PointSet pts = gen_uniform(300, 5, 34);
  KdTree tree = build_kdtree(pts, 8);
  GpuAddressSpace space;
  KnnKernel k(tree, pts, 4, space);
  auto run = run_cpu(k, CpuVariant::kRecursive, 1);
  auto brute = knn_brute_force(pts, pts, 4);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_TRUE(near(run.results[i].kth_d2, brute[i].kth_d2, 1e-4f)) << i;
    EXPECT_TRUE(near(run.results[i].sum_d2, brute[i].sum_d2, 1e-3f)) << i;
  }
}

TEST(Equivalence, NearestNeighbor) {
  PointSet pts = gen_covtype_like(kN, 7, 35);
  KdTreeNN tree = build_kdtree_nn(pts);
  GpuAddressSpace space;
  NnKernel k(tree, pts, space);
  expect_all_variants_equal(k, space, [](const NnResult& a, const NnResult& b) {
    return near(a.best_d2, b.best_d2, 1e-4f);
  });
}

TEST(Equivalence, NearestNeighborMatchesBruteForce) {
  PointSet pts = gen_uniform(350, 4, 36);
  KdTreeNN tree = build_kdtree_nn(pts);
  GpuAddressSpace space;
  NnKernel k(tree, pts, space);
  auto run = run_cpu(k, CpuVariant::kRecursive, 1);
  auto brute = nn_brute_force(pts, pts);
  for (std::size_t i = 0; i < pts.size(); ++i)
    EXPECT_TRUE(near(run.results[i].best_d2, brute[i].best_d2, 1e-4f)) << i;
}

TEST(Equivalence, VantagePoint) {
  PointSet pts = gen_geocity_like(kN, 37);
  VpTree tree = build_vptree(pts, 37);
  GpuAddressSpace space;
  VpKernel k(tree, pts, space);
  expect_all_variants_equal(k, space, [](const VpResult& a, const VpResult& b) {
    return near(a.best_d, b.best_d, 1e-4f);
  });
}

TEST(Equivalence, VantagePointMatchesBruteForce) {
  PointSet pts = gen_uniform(320, 6, 38);
  VpTree tree = build_vptree(pts, 38);
  GpuAddressSpace space;
  VpKernel k(tree, pts, space);
  auto run = run_cpu(k, CpuVariant::kRecursive, 1);
  auto brute = vp_brute_force(pts, pts);
  for (std::size_t i = 0; i < pts.size(); ++i)
    EXPECT_TRUE(near(run.results[i].best_d, brute[i].best_d, 1e-4f)) << i;
}

TEST(Equivalence, BarnesHut) {
  BodySet b = gen_plummer(kN, 39);
  Octree tree = build_octree(b.pos, b.mass);
  GpuAddressSpace space;
  BarnesHutKernel k(tree, b.pos, 0.5f, 1e-4f, space);
  expect_all_variants_equal(k, space, [](const BhForce& x, const BhForce& y) {
    return near(x.ax, y.ax, 1e-4f) && near(x.ay, y.ay, 1e-4f) &&
           near(x.az, y.az, 1e-4f);
  });
}

TEST(Equivalence, BarnesHutApproximatesBruteForce) {
  BodySet b = gen_plummer(500, 40);
  Octree tree = build_octree(b.pos, b.mass);
  GpuAddressSpace space;
  BarnesHutKernel k(tree, b.pos, 0.3f, 1e-4f, space);  // tight theta
  auto run = run_cpu(k, CpuVariant::kRecursive, 1);
  auto brute = bh_brute_force(b.pos, b.mass, 1e-4f);
  // Relative error of the aggregate force magnitude should be small.
  double err = 0, ref = 0;
  for (std::size_t i = 0; i < 500; ++i) {
    double dx = run.results[i].ax - brute[i].ax;
    double dy = run.results[i].ay - brute[i].ay;
    double dz = run.results[i].az - brute[i].az;
    err += std::sqrt(dx * dx + dy * dy + dz * dz);
    ref += std::sqrt(static_cast<double>(brute[i].ax) * brute[i].ax +
                     static_cast<double>(brute[i].ay) * brute[i].ay +
                     static_cast<double>(brute[i].az) * brute[i].az);
  }
  EXPECT_LT(err / ref, 0.05);  // within 5% on aggregate for theta=0.3
}

TEST(Equivalence, StackOverflowDetected) {
  // A kernel lying about its stack bound must be caught, not corrupted.
  PointSet pts = gen_uniform(64, 3, 41);
  KdTree tree = build_kdtree(pts, 1);
  GpuAddressSpace space;
  struct LyingKernel : PointCorrelationKernel {
    using PointCorrelationKernel::PointCorrelationKernel;
    [[nodiscard]] int stack_bound() const { return 1; }
  };
  LyingKernel k(tree, pts, 10.f, space);  // huge radius: full traversal
  DeviceConfig cfg;
  EXPECT_THROW(run_gpu_sim(k, space, cfg, GpuMode::from(Variant::kAutoNolockstep)),
               std::runtime_error);
}

}  // namespace
}  // namespace tt
