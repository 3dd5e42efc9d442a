#include <optional>

#include "bench_algos/pc/point_correlation.h"
#include "job_impl.h"
#include "point_inputs.h"
#include "spatial/kdtree.h"

namespace pb {

namespace {

struct PcData {
  tt::PointSet pts;
  tt::KdTree tree;
  std::optional<tt::PointCorrelationKernel> k;
};

}  // namespace

std::unique_ptr<Job> make_pc_job(const JobSpec& spec,
                                 const tt::PointSet& pool,
                                 SetupTimes& times, Tracer* tr) {
  auto d = std::make_shared<PcData>();
  d->pts = make_point_input(spec, pool, times, tr);
  d->tree = timed_stage(tr, "spatial.build", times.build_s, [&] {
    return tt::build_kdtree(d->pts, kLeafSize);
  });
  tt::GpuAddressSpace space;
  timed_stage(tr, "bench_algos.construct", times.construct_s, [&] {
    // The radius comes from the fixed dataset, for this job's size: a
    // per-job estimate rests on a handful of sampled pair distances and
    // moved pc work by +-15% between seeds.
    const double target =
        kPcNeighbors * static_cast<double>(pool.size()) /
        static_cast<double>(spec.n);
    const float r = tt::pc_pick_radius(pool, target, kDatasetSeed);
    d->k.emplace(d->tree, d->pts, r, space);
    return 0;
  });
  return make_typed_job(
      spec, *d->k, d, std::move(space), digest_points(d->pts),
      [](std::uint32_t a, std::uint32_t b) { return a == b; });
}

}  // namespace pb
