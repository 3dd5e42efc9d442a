#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "data/generators.h"
#include "data/sorting.h"
#include "job_impl.h"
#include "point_inputs.h"

namespace pb {

std::unique_ptr<Job> make_job(const JobSpec& spec, const tt::PointSet& pool,
                              SetupTimes& times, Tracer* tr) {
  if (spec.kernel == "pc") return make_pc_job(spec, pool, times, tr);
  if (spec.kernel == "knn") return make_knn_job(spec, pool, times, tr);
  if (spec.kernel == "nn") return make_nn_job(spec, pool, times, tr);
  if (spec.kernel == "bh") return make_bh_job(spec, times, tr);
  throw std::invalid_argument("make_job: unknown kernel '" + spec.kernel +
                              "' (valid: bh, knn, nn, pc)");
}

tt::PointSet make_covtype_pool(SetupTimes& times, Tracer* tr) {
  return timed_stage(tr, "data.generate", times.generate_s, [&] {
    return tt::gen_covtype_like(kPoolPoints, kDim, kDatasetSeed);
  });
}

tt::PointSet make_point_input(const JobSpec& spec, const tt::PointSet& pool,
                              SetupTimes& times, Tracer* tr) {
  if (spec.n > pool.size())
    throw std::invalid_argument("make_point_input: more points than the pool");
  tt::PointSet pts = timed_stage(tr, "data.generate", times.generate_s, [&] {
    const auto pick = tt::shuffled_order(pool.size(), spec.seed);
    tt::PointSet s(pool.dim(), spec.n);
    for (int d = 0; d < pool.dim(); ++d)
      for (std::size_t j = 0; j < spec.n; ++j) s.set(j, d, pool.at(pick[j], d));
    return s;
  });
  timed_stage(tr, "data.order", times.order_s, [&] {
    pts.permute(spec.sorted
                    ? tt::tree_order(pts, kLeafSize)
                    : tt::shuffled_order(spec.n, spec.seed ^ kShuffleSalt));
    return 0;
  });
  return pts;
}

bool nearly_equal(float a, float b, float tol) {
  if (a == b) return true;
  if (std::isinf(a) || std::isinf(b)) return a == b;
  const float scale = std::max({1.0f, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= tol * scale;
}

void Digest::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 1099511628211ull;
  }
}

std::uint64_t digest_points(const tt::PointSet& pts) {
  Digest d;
  for (int k = 0; k < pts.dim(); ++k) {
    const auto plane = pts.plane(k);
    d.bytes(plane.data(), plane.size() * sizeof(float));
  }
  return d.get();
}

void digest_launch(Digest& d, const LaunchOutcome& o) {
  d.value(static_cast<int>(o.variant));
  d.value(o.points);
  d.value(o.ok());
  const tt::KernelStats& s = o.stats;
  for (std::uint64_t v :
       {s.load_instructions, s.dram_transactions, s.l2_hit_transactions,
        s.dram_bytes, s.warp_steps, s.lane_visits, s.warp_pops, s.calls,
        s.votes, s.active_lane_sum, s.peak_stack_entries, s.smem_cache_hits,
        s.smem_cache_misses, s.shared_loads_elided})
    d.value(v);
  d.value(s.instr_cycles);
  for (double c : s.cycle_buckets) d.value(c);
  d.value(o.time.compute_ms);
  d.value(o.time.memory_ms);
  d.value(o.time.total_ms);
  d.value(o.time.memory_bound);
  d.value(o.time.imbalance);
  d.value(o.work_expansion);
  // The memory telescope's per-buffer and per-field rows.
  for (const tt::BufferTraffic& r : s.memory.rows()) {
    d.bytes(r.name.data(), r.name.size());
    for (std::uint64_t v :
         {r.load_groups, r.replayed_loads, r.issued_segments, r.ideal_segments,
          r.l2_hit_transactions, r.dram_transactions, r.dram_bytes,
          r.smem_cache_hits, r.smem_cache_misses})
      d.value(v);
    d.value(r.mem_stall_cycles);
    for (const tt::FieldTraffic& f : r.fields) {
      d.bytes(f.name.data(), f.name.size());
      for (double v : {f.transactions, f.l2_hit, f.dram, f.dram_bytes,
                       f.smem_cache_hits, f.mem_stall_cycles})
        d.value(v);
    }
  }
  if (o.selection) {
    d.value(o.selection->mean_similarity);
    d.value(o.selection->baseline_similarity);
    d.value(o.selection->samples);
    d.value(static_cast<int>(o.selection->chosen));
    d.value(o.selection->sampling_cycles);
  }
}

}  // namespace pb
