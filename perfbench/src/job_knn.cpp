#include <optional>

#include "bench_algos/knn/knn.h"
#include "job_impl.h"
#include "point_inputs.h"
#include "spatial/kdtree.h"

namespace pb {

namespace {

struct KnnData {
  tt::PointSet pts;
  tt::KdTree tree;
  std::optional<tt::KnnKernel> k;
};

}  // namespace

std::unique_ptr<Job> make_knn_job(const JobSpec& spec,
                                  const tt::PointSet& pool,
                                  SetupTimes& times, Tracer* tr) {
  auto d = std::make_shared<KnnData>();
  d->pts = make_point_input(spec, pool, times, tr);
  d->tree = timed_stage(tr, "spatial.build", times.build_s, [&] {
    return tt::build_kdtree(d->pts, kLeafSize);
  });
  tt::GpuAddressSpace space;
  timed_stage(tr, "bench_algos.construct", times.construct_s, [&] {
    d->k.emplace(d->tree, d->pts, kKnnK, space);
    return 0;
  });
  return make_typed_job(
      spec, *d->k, d, std::move(space), digest_points(d->pts),
      [](const tt::KnnResult& a, const tt::KnnResult& b) {
        return nearly_equal(a.kth_d2, b.kth_d2, 1e-4f) &&
               nearly_equal(a.sum_d2, b.sum_d2, 1e-3f);
      });
}

}  // namespace pb
