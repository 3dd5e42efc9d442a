#include <optional>

#include "bench_algos/nn/nearest_neighbor.h"
#include "job_impl.h"
#include "point_inputs.h"
#include "spatial/kdtree.h"

namespace pb {

namespace {

struct NnData {
  tt::PointSet pts;
  tt::KdTreeNN tree;
  std::optional<tt::NnKernel> k;
};

}  // namespace

std::unique_ptr<Job> make_nn_job(const JobSpec& spec,
                                 const tt::PointSet& pool,
                                 SetupTimes& times, Tracer* tr) {
  auto d = std::make_shared<NnData>();
  d->pts = make_point_input(spec, pool, times, tr);
  d->tree = timed_stage(tr, "spatial.build", times.build_s,
                        [&] { return tt::build_kdtree_nn(d->pts); });
  tt::GpuAddressSpace space;
  timed_stage(tr, "bench_algos.construct", times.construct_s, [&] {
    d->k.emplace(d->tree, d->pts, space);
    return 0;
  });
  return make_typed_job(spec, *d->k, d, std::move(space),
                        digest_points(d->pts),
                        [](const tt::NnResult& a, const tt::NnResult& b) {
                          return nearly_equal(a.best_d2, b.best_d2, 1e-4f);
                        });
}

}  // namespace pb
