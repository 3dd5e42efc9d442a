#include "bench_algos/ray/ray_bvh.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/cpu_executors.h"
#include "core/gpu_executors.h"
#include "core/ir/callset_analysis.h"

namespace tt {
namespace {

struct Scene {
  TriangleMesh mesh;
  Bvh bvh;
  GpuAddressSpace space;

  explicit Scene(std::size_t tris, std::uint64_t seed)
      : mesh(gen_triangle_scene(tris, seed)), bvh(build_bvh(mesh, 4)) {}
};

TEST(RayBvh, ClassifiedGuidedTwoCallSets) {
  auto report = ir::analyze(ray_ir());
  EXPECT_EQ(report.call_sets.size(), 2u);
  EXPECT_EQ(report.cls, ir::TraversalClass::kGuided);
  EXPECT_TRUE(report.pseudo_tail_recursive);
}

TEST(RayBvh, MatchesBruteForceCameraRays) {
  Scene s(400, 1);
  auto rays = gen_camera_rays(16, 16, {0.5f, 0.5f, -2}, {0.5f, 0.5f, 0.5f});
  RayBvhKernel k(s.bvh, s.mesh, rays, s.space);
  auto run = run_cpu(k, CpuVariant::kRecursive, 1);
  auto brute = ray_brute_force(s.mesh, rays);
  ASSERT_EQ(run.results.size(), brute.size());
  for (std::size_t i = 0; i < brute.size(); ++i) {
    if (std::isinf(brute[i].t)) {
      EXPECT_TRUE(std::isinf(run.results[i].t)) << i;
    } else {
      EXPECT_NEAR(run.results[i].t, brute[i].t, 1e-4f) << i;
      EXPECT_EQ(run.results[i].tri, brute[i].tri) << i;
    }
  }
}

TEST(RayBvh, MatchesBruteForceRandomRays) {
  Scene s(300, 2);
  auto rays = gen_random_rays(200, 2);
  RayBvhKernel k(s.bvh, s.mesh, rays, s.space);
  auto run = run_cpu(k, CpuVariant::kAutoropes, 1);
  auto brute = ray_brute_force(s.mesh, rays);
  for (std::size_t i = 0; i < brute.size(); ++i) {
    if (std::isinf(brute[i].t))
      EXPECT_TRUE(std::isinf(run.results[i].t)) << i;
    else
      EXPECT_NEAR(run.results[i].t, brute[i].t, 1e-4f) << i;
  }
}

TEST(RayBvh, AllVariantsAgree) {
  Scene s(500, 3);
  auto rays = gen_camera_rays(20, 16, {0.5f, 0.5f, -2}, {0.5f, 0.5f, 0.5f});
  RayBvhKernel k(s.bvh, s.mesh, rays, s.space);
  auto cpu = run_cpu(k, CpuVariant::kRecursive, 1);
  DeviceConfig cfg;
  for (Variant v : kAllVariants) {
    // Guided two-call-set traversal: the stackless rope walkers don't
    // apply (kernel_variant_eligible is false), only the stack family.
    if (!kernel_variant_eligible<RayBvhKernel>(v)) continue;
    auto gpu = run_gpu_sim(k, s.space, cfg, GpuMode::from(v));
    for (std::size_t i = 0; i < rays.size(); ++i) {
      if (std::isinf(cpu.results[i].t))
        EXPECT_TRUE(std::isinf(gpu.results[i].t)) << i;
      else
        EXPECT_NEAR(gpu.results[i].t, cpu.results[i].t, 1e-4f) << i;
    }
  }
}

TEST(RayBvh, NearFirstOrderPrunesBetter) {
  Scene s(800, 4);
  auto rays = gen_camera_rays(24, 24, {0.5f, 0.5f, -2}, {0.5f, 0.5f, 0.5f});
  struct FarFirst : RayBvhKernel {
    using RayBvhKernel::RayBvhKernel;
    [[nodiscard]] int choose_callset(NodeId n, const State& st) const {
      return 1 - RayBvhKernel::choose_callset(n, st);
    }
  };
  RayBvhKernel good(s.bvh, s.mesh, rays, s.space);
  FarFirst bad(s.bvh, s.mesh, rays, s.space);
  auto rg = run_cpu(good, CpuVariant::kRecursive, 1);
  auto rb = run_cpu(bad, CpuVariant::kRecursive, 1);
  EXPECT_LT(rg.total_visits, rb.total_visits);
}

TEST(RayBvh, CoherentRaysLockstepBeatsIncoherent) {
  // The packet-tracing story: coherent camera rays keep a warp together
  // (low work expansion); random rays do not.
  Scene s(1000, 5);
  auto coherent = gen_camera_rays(32, 32, {0.5f, 0.5f, -2}, {0.5f, 0.5f, 0.5f});
  auto incoherent = gen_random_rays(coherent.size(), 5);
  DeviceConfig cfg;

  auto expansion = [&](const std::vector<Ray>& rays) {
    RayBvhKernel k(s.bvh, s.mesh, rays, s.space);
    auto gn = run_gpu_sim(k, s.space, cfg, GpuMode::from(Variant::kAutoNolockstep));
    auto gl = run_gpu_sim(k, s.space, cfg, GpuMode::from(Variant::kAutoLockstep));
    double total = 0;
    for (std::size_t w = 0; w < gl.per_warp_pops.size(); ++w) {
      std::uint32_t longest = 1;
      for (std::size_t i = w * 32;
           i < std::min<std::size_t>((w + 1) * 32, rays.size()); ++i)
        longest = std::max(longest, gn.per_point_visits[i]);
      total += static_cast<double>(gl.per_warp_pops[w]) / longest;
    }
    return total / static_cast<double>(gl.per_warp_pops.size());
  };
  EXPECT_LT(expansion(coherent), expansion(incoherent));
}

TEST(RayBvh, MissingSceneRaysMiss) {
  Scene s(50, 6);
  // Rays starting beyond the scene pointing away never hit.
  std::vector<Ray> rays{{{5, 5, 5}, {1, 0, 0}}, {{-5, -5, -5}, {0, -1, 0}}};
  RayBvhKernel k(s.bvh, s.mesh, rays, s.space);
  auto run = run_cpu(k, CpuVariant::kRecursive, 1);
  EXPECT_TRUE(std::isinf(run.results[0].t));
  EXPECT_EQ(run.results[0].tri, -1);
  EXPECT_TRUE(std::isinf(run.results[1].t));
}

}  // namespace
}  // namespace tt
