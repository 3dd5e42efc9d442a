#include <optional>
#include <vector>

#include "bench_algos/bh/barnes_hut.h"
#include "data/generators.h"
#include "data/sorting.h"
#include "job_impl.h"
#include "point_inputs.h"
#include "spatial/octree.h"

namespace pb {

namespace {

struct BhData {
  tt::PointSet pos;
  std::vector<float> mass;
  tt::Octree tree;
  std::optional<tt::BarnesHutKernel> k;
};

constexpr float kTheta = 0.5f;
constexpr float kEps2 = 1e-4f;

}  // namespace

std::unique_ptr<Job> make_bh_job(const JobSpec& spec, SetupTimes& times,
                                 Tracer* tr) {
  auto d = std::make_shared<BhData>();
  tt::BodySet bodies = timed_stage(tr, "data.generate", times.generate_s, [&] {
    return tt::gen_plummer(spec.n, spec.seed);
  });
  timed_stage(tr, "data.order", times.order_s, [&] {
    // Morton order when sorted (the repository harness's body ordering);
    // masses follow the position permutation.
    const auto perm =
        spec.sorted ? tt::morton_order(bodies.pos)
                    : tt::shuffled_order(spec.n, spec.seed ^ kShuffleSalt);
    bodies.pos.permute(perm);
    d->mass.resize(spec.n);
    for (std::size_t j = 0; j < spec.n; ++j) d->mass[j] = bodies.mass[perm[j]];
    return 0;
  });
  d->pos = std::move(bodies.pos);
  d->tree = timed_stage(tr, "spatial.build", times.build_s, [&] {
    return tt::build_octree(d->pos, d->mass);
  });
  tt::GpuAddressSpace space;
  timed_stage(tr, "bench_algos.construct", times.construct_s, [&] {
    d->k.emplace(d->tree, d->pos, kTheta, kEps2, space);
    return 0;
  });
  return make_typed_job(
      spec, *d->k, d, std::move(space), digest_points(d->pos),
      [](const tt::BhForce& a, const tt::BhForce& b) {
        return nearly_equal(a.ax, b.ax, 1e-4f) &&
               nearly_equal(a.ay, b.ay, 1e-4f) &&
               nearly_equal(a.az, b.az, 1e-4f);
      });
}

}  // namespace pb
