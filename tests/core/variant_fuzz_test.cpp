// Randomized cross-variant equivalence: fuzzed inputs driven through one
// unguided kernel (point correlation) and one guided kernel (nearest
// neighbor, 2 equivalent call sets) must produce byte-identical Result
// vectors under all four StackPolicy x ConvergencePolicy compositions,
// auto_select must reproduce its chosen composition exactly (plus the
// charged sampling cycles), and the stackless family (escape-index
// ropes / index_walk, eligible kernels only) must match the baseline
// byte-for-byte with zero stack footprint -- with or without the
// shared-memory node cache.
// Alongside equality, checks the work-expansion invariant behind Table 2:
// a lockstep warp's union traversal pops at least as many nodes as the
// longest individual traversal among its member lanes -- and the
// cycle-attribution invariant behind the obs profiler: for every variant,
// the per-bucket split sums to instr_cycles EXACTLY (every charge is an
// integer-valued double), and the profiler's depth histogram reconciles
// with warp_steps / active_lane_sum.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "bench_algos/bh/barnes_hut.h"
#include "bench_algos/nn/nearest_neighbor.h"
#include "bench_algos/pc/point_correlation.h"
#include "bench_algos/pq/point_queries.h"
#include "core/cpu_executors.h"
#include "core/device_group.h"
#include "core/gpu_executors.h"
#include "core/kernel_compose.h"
#include "core/static_ropes.h"
#include "data/generators.h"
#include "obs/profile.h"
#include "spatial/kdtree.h"
#include "spatial/octree.h"

namespace tt {
namespace {

// The memory-attribution invariant (simt/memory_attr.h), exact for every
// variant: the per-buffer rows sum to the aggregate KernelStats counters
// with ==, each row's field shares close exactly (dyadic k/128 shares),
// every row's coalescing efficiency is in (0,1], and the summed per-row
// mem-stall cycles reconstruct the kMemStall cycle bucket -- commit() is
// the single charge site for both.
void check_memory_attribution(const KernelStats& st) {
  std::uint64_t groups = 0, l2hit = 0, dram = 0, bytes = 0, shits = 0,
                smiss = 0;
  double stall = 0;
  for (const BufferTraffic& r : st.memory.rows()) {
    groups += r.load_groups;
    l2hit += r.l2_hit_transactions;
    dram += r.dram_transactions;
    bytes += r.dram_bytes;
    shits += r.smem_cache_hits;
    smiss += r.smem_cache_misses;
    stall += r.mem_stall_cycles;
    EXPECT_LE(r.replayed_loads, r.load_groups) << r.name;
    EXPECT_LE(r.ideal_segments, r.issued_segments) << r.name;
    EXPECT_EQ(r.issued_segments, r.smem_cache_hits + r.l2_hit_transactions +
                                     r.dram_transactions)
        << r.name;
    if (r.issued_segments > 0) {
      EXPECT_GT(r.coalescing_efficiency(), 0.0) << r.name;
      EXPECT_LE(r.coalescing_efficiency(), 1.0) << r.name;
    }
    if (!r.fields.empty()) {
      double ft = 0, fl2 = 0, fdram = 0, fbytes = 0, fsmem = 0, fstall = 0;
      for (const FieldTraffic& f : r.fields) {
        ft += f.transactions;
        fl2 += f.l2_hit;
        fdram += f.dram;
        fbytes += f.dram_bytes;
        fsmem += f.smem_cache_hits;
        fstall += f.mem_stall_cycles;
      }
      EXPECT_EQ(ft, static_cast<double>(r.issued_segments)) << r.name;
      EXPECT_EQ(fl2, static_cast<double>(r.l2_hit_transactions)) << r.name;
      EXPECT_EQ(fdram, static_cast<double>(r.dram_transactions)) << r.name;
      EXPECT_EQ(fbytes, static_cast<double>(r.dram_bytes)) << r.name;
      EXPECT_EQ(fsmem, static_cast<double>(r.smem_cache_hits)) << r.name;
      EXPECT_EQ(fstall, r.mem_stall_cycles) << r.name;
    }
  }
  EXPECT_EQ(groups, st.load_instructions);
  EXPECT_EQ(l2hit, st.l2_hit_transactions);
  EXPECT_EQ(dram, st.dram_transactions);
  EXPECT_EQ(bytes, st.dram_bytes);
  EXPECT_EQ(shits, st.smem_cache_hits);
  EXPECT_EQ(smiss, st.smem_cache_misses);
  EXPECT_EQ(stall,
            st.cycle_buckets[static_cast<std::size_t>(CycleBucket::kMemStall)]);
}

// The attribution invariant, exact for every variant: the CycleBucket
// split reconstructs instr_cycles with ==, and the profiler's per-depth
// histogram accounts for every warp step and active lane.
template <class K>
void check_attribution(const GpuRun<K>& g) {
  ASSERT_TRUE(g.profile.has_value());
  const obs::ProfileReport& p = *g.profile;
  EXPECT_EQ(p.bucket_sum(), g.stats.instr_cycles);
  EXPECT_EQ(p.instr_cycles, g.stats.instr_cycles);
  EXPECT_EQ(p.warp_steps, g.stats.warp_steps);
  EXPECT_EQ(p.active_lane_sum, g.stats.active_lane_sum);
  EXPECT_EQ(p.depth_steps(), g.stats.warp_steps);
  EXPECT_EQ(p.depth_active(), g.stats.active_lane_sum);
  EXPECT_TRUE(p.reconciles());
  // The raw stats honor the same invariant even without a sink attached.
  double raw = 0;
  for (double b : g.stats.cycle_buckets) raw += b;
  EXPECT_EQ(raw, g.stats.instr_cycles);
  check_memory_attribution(g.stats);
}

// Deterministic parameter fuzzer (xorshift64) -- varies input size, shape,
// dimensionality and tree granularity across rounds.
std::uint64_t next(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

// Runs the kernel under all four variants, using auto_nolockstep as the
// baseline: every other composition must reproduce its Result vector
// byte-for-byte, and the lockstep compositions must satisfy the
// work-expansion bound against its per-point visit counts.
template <TraversalKernel K>
void check_all_variants(const K& k, GpuAddressSpace& space) {
  DeviceConfig cfg;
  obs::ProfileSink psink;
  auto base = run_gpu_sim(k, space, cfg,
                          GpuMode::from(Variant::kAutoNolockstep), nullptr,
                          &psink);
  ASSERT_EQ(base.results.size(), k.num_points());
  ASSERT_EQ(base.per_point_visits.size(), k.num_points());
  check_attribution(base);

  for (Variant v : {Variant::kAutoLockstep, Variant::kRecLockstep,
                    Variant::kRecNolockstep}) {
    SCOPED_TRACE(variant_name(v));
    auto g = run_gpu_sim(k, space, cfg, GpuMode::from(v), nullptr, &psink);
    check_attribution(g);
    ASSERT_EQ(g.results.size(), base.results.size());
    EXPECT_EQ(0, std::memcmp(g.results.data(), base.results.data(),
                             sizeof(typename K::Result) * base.results.size()));
    EXPECT_FALSE(g.selection.has_value());

    // Both non-lockstep schedules walk each point's own traversal, so
    // their per-point visit counts must agree exactly.
    if (v == Variant::kRecNolockstep) {
      EXPECT_EQ(g.per_point_visits, base.per_point_visits);
    }

    // Lockstep: the warp's union traversal contains every member lane's
    // traversal, so its pop count bounds each lane's visit count.
    if (!g.per_warp_pops.empty()) {
      const auto warp = static_cast<std::size_t>(cfg.warp_size);
      for (std::size_t w = 0; w < g.per_warp_pops.size(); ++w) {
        std::uint32_t longest = 0;
        const std::size_t begin = w * warp;
        const std::size_t end =
            std::min(base.per_point_visits.size(), begin + warp);
        for (std::size_t i = begin; i < end; ++i)
          longest = std::max(longest, base.per_point_visits[i]);
        EXPECT_GE(g.per_warp_pops[w], longest) << "warp " << w;
      }
    }
  }

  // The stackless family: byte-identical results with zero stack state.
  // PC is fully eligible (unguided, rope-carrying, fanout 2); guided
  // kernels skip the whole block through the eligibility trait.
  for (Variant v : {Variant::kStacklessLockstep, Variant::kStacklessNolockstep,
                    Variant::kIndexWalk}) {
    if (!kernel_variant_eligible<K>(v)) continue;
    SCOPED_TRACE(variant_name(v));
    auto g = run_gpu_sim(k, space, cfg, GpuMode::from(v), nullptr, &psink);
    check_attribution(g);
    ASSERT_EQ(g.results.size(), base.results.size());
    EXPECT_EQ(0, std::memcmp(g.results.data(), base.results.data(),
                             sizeof(typename K::Result) * base.results.size()));
    EXPECT_FALSE(g.selection.has_value());
    // No stack exists: nothing can push, spill, or deepen.
    EXPECT_EQ(g.stats.peak_stack_entries, 0u);
    EXPECT_EQ(
        g.profile->buckets[static_cast<std::size_t>(CycleBucket::kStack)], 0.0);
    // The per-lane stackless schedules walk each point's own traversal.
    if (!variant_is_lockstep(v)) {
      EXPECT_EQ(g.per_point_visits, base.per_point_visits);
    }
    // Disabling the node cache zeroes its counters without changing a
    // byte of the results (the cache is a cost model, not a semantics).
    GpuMode off = GpuMode::from(v);
    off.node_cache_bytes = 0;
    auto g_off = run_gpu_sim(k, space, cfg, off);
    EXPECT_EQ(g_off.stats.smem_cache_hits + g_off.stats.smem_cache_misses, 0u);
    check_memory_attribution(g_off.stats);
    EXPECT_EQ(0,
              std::memcmp(g_off.results.data(), base.results.data(),
                          sizeof(typename K::Result) * base.results.size()));
  }

  // auto_select must be byte-identical to whichever composition its
  // sampler dispatched to, and charge exactly the sampling cost on top.
  {
    SCOPED_TRACE("auto_select");
    GpuMode mode = GpuMode::from(Variant::kAutoSelect);
    auto g = run_gpu_sim(k, space, cfg, mode, nullptr, &psink);
    check_attribution(g);
    ASSERT_TRUE(g.selection.has_value());
    // The sampling charge lands in -- and only in -- the select bucket.
    EXPECT_EQ(g.profile->buckets[static_cast<std::size_t>(
                  CycleBucket::kSelect)],
              g.selection->sampling_cycles);
    const Variant chosen = g.selection->chosen;
    ASSERT_TRUE(chosen == Variant::kAutoLockstep ||
                chosen == Variant::kAutoNolockstep);
    SCOPED_TRACE(std::string("chose ") + variant_name(chosen));
    auto direct = run_gpu_sim(k, space, cfg, GpuMode::from(chosen));
    ASSERT_EQ(g.results.size(), direct.results.size());
    EXPECT_EQ(0, std::memcmp(g.results.data(), direct.results.data(),
                             sizeof(typename K::Result) * g.results.size()));
    EXPECT_EQ(g.per_point_visits, direct.per_point_visits);
    EXPECT_EQ(g.per_warp_pops, direct.per_warp_pops);
    EXPECT_DOUBLE_EQ(g.stats.instr_cycles, direct.stats.instr_cycles +
                                               g.selection->sampling_cycles);
  }
}

// The sharded axis: for every variant x device count, run_sharded's merge
// must be byte-identical to the unsharded auto_nolockstep baseline (the
// cross-variant contract composed with the sharding contract), and the
// per-device visit counters must sum to the merged run's totals -- no
// work invented or lost at the shard boundary.
template <TraversalKernel K>
void check_sharded_axis(const K& k, GpuAddressSpace& space) {
  DeviceConfig cfg;
  auto base = run_gpu_sim(k, space, cfg,
                          GpuMode::from(Variant::kAutoNolockstep));
  for (Variant v : kAllVariants) {
    // Stackless variants shard too, but only on eligible kernels (the
    // guided NN kernel must skip them rather than fail the launch pool).
    if (!kernel_variant_eligible<K>(v)) continue;
    SCOPED_TRACE(variant_name(v));
    for (std::size_t devices :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      SCOPED_TRACE("devices " + std::to_string(devices));
      LaunchSpec spec;
      spec.kernel = make_kernel_handle(k);
      spec.space = &space;
      spec.mode = GpuMode::from(v);
      spec.mode.profile_samples = 8;
      DeviceGroupConfig g;
      g.devices = devices;
      g.policy = BatchPolicy::kWorkStealing;
      g.chunk_points = 128;
      ShardedRun r = run_sharded(spec, 1 << 18, 1 << 14, g);
      // run_sharded already self-checks the merge against its own
      // baseline; ok() failing means the contract broke.
      ASSERT_TRUE(r.merged.ok()) << r.merged.error;
      ASSERT_EQ(r.merged.n_points, base.results.size());
      EXPECT_EQ(0, std::memcmp(r.merged.results.data(), base.results.data(),
                               r.merged.n_points * r.merged.result_stride));
      std::size_t chunks = 0, points = 0;
      std::uint64_t lane_visits = 0, warp_pops = 0;
      for (const DeviceShard& d : r.devices) {
        chunks += d.chunks;
        points += d.points;
        lane_visits += d.stats.lane_visits;
        warp_pops += d.stats.warp_pops;
      }
      EXPECT_EQ(chunks, r.merged.n_warps);
      EXPECT_EQ(points, r.merged.n_points);
      EXPECT_EQ(lane_visits, r.merged.stats.lane_visits);
      EXPECT_EQ(warp_pops, r.merged.stats.warp_pops);
      // The baseline's attribution table must reconcile, every device's
      // must reconcile in isolation, and folding the device tables through
      // the name-keyed MemoryAttribution::merge must preserve every
      // counter exactly (commutative integer / dyadic sums -- device
      // count and merge order cannot skew the table). Note the fold is
      // checked against the summed *device* counters, not the baseline's:
      // DRAM vs L2-hit splits are cache-state dependent and chunked
      // per-device launches legitimately see different L2 histories.
      check_memory_attribution(r.merged.stats);
      MemoryAttribution folded;
      std::uint64_t dev_dram = 0, dev_groups = 0, dev_segs = 0;
      for (const DeviceShard& d : r.devices) {
        check_memory_attribution(d.stats);
        folded.merge(d.stats.memory);
        dev_dram += d.stats.dram_transactions;
        dev_groups += d.stats.load_instructions;
        for (const BufferTraffic& row : d.stats.memory.rows())
          dev_segs += row.issued_segments;
      }
      std::uint64_t fold_dram = 0, fold_groups = 0, fold_segs = 0;
      for (const BufferTraffic& row : folded.rows()) {
        fold_dram += row.dram_transactions;
        fold_groups += row.load_groups;
        fold_segs += row.issued_segments;
      }
      EXPECT_EQ(fold_dram, dev_dram);
      EXPECT_EQ(fold_groups, dev_groups);
      EXPECT_EQ(fold_segs, dev_segs);
    }
  }
}

TEST(VariantFuzz, PointCorrelationUnguided) {
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::size_t n = 64 + next(s) % 700;
    const int dim = 2 + static_cast<int>(next(s) % 6);
    const std::uint64_t seed = next(s);
    PointSet pts = round % 2 == 0 ? gen_uniform(n, dim, seed)
                                  : gen_covtype_like(n, dim, seed);
    KdTree tree =
        build_kdtree(pts, 4 + static_cast<int>(next(s) % 8));
    GpuAddressSpace space;
    float r = pc_pick_radius(pts, 4.0 + static_cast<double>(next(s) % 24),
                             seed);
    PointCorrelationKernel k(tree, pts, r, space);
    check_all_variants(k, space);
  }
}

// Forces a rope-stack overflow and checks the error carries enough
// context to act on: kernel name, variant, warp id and the bound.
struct TinyBoundPc : PointCorrelationKernel {
  using PointCorrelationKernel::PointCorrelationKernel;
  [[nodiscard]] int stack_bound() const { return 1; }
};

TEST(VariantFuzz, OverflowErrorIsContextual) {
  PointSet pts = gen_uniform(200, 3, 99);
  KdTree tree = build_kdtree(pts, 8);
  GpuAddressSpace space;
  float r = pc_pick_radius(pts, 16, 99);
  TinyBoundPc k(tree, pts, r, space);
  DeviceConfig cfg;
  try {
    run_gpu_sim(k, space, cfg, GpuMode::from(Variant::kAutoNolockstep));
    FAIL() << "expected rope stack overflow";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rope stack overflow"), std::string::npos) << msg;
    EXPECT_NE(msg.find("kernel point_correlation"), std::string::npos) << msg;
    EXPECT_NE(msg.find("variant auto_nolockstep"), std::string::npos) << msg;
    EXPECT_NE(msg.find("warp "), std::string::npos) << msg;
    EXPECT_NE(msg.find("stack_bound 1"), std::string::npos) << msg;
  }
}

TEST(VariantFuzz, NearestNeighborGuided) {
  std::uint64_t s = 0xda942042e4dd58b5ull;
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::size_t n = 64 + next(s) % 700;
    const int dim = 2 + static_cast<int>(next(s) % 6);
    const std::uint64_t seed = next(s);
    PointSet pts = round % 2 == 0 ? gen_covtype_like(n, dim, seed)
                                  : gen_mnist_like(n, dim, seed);
    KdTreeNN tree = build_kdtree_nn(pts);
    GpuAddressSpace space;
    NnKernel k(tree, pts, space);
    check_all_variants(k, space);
  }
}

TEST(VariantFuzz, PointCorrelationSharded) {
  std::uint64_t s = 0xa0761d6478bd642full;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::size_t n = 96 + next(s) % 600;
    const int dim = 2 + static_cast<int>(next(s) % 6);
    const std::uint64_t seed = next(s);
    PointSet pts = round % 2 == 0 ? gen_uniform(n, dim, seed)
                                  : gen_covtype_like(n, dim, seed);
    KdTree tree = build_kdtree(pts, 4 + static_cast<int>(next(s) % 8));
    GpuAddressSpace space;
    float r = pc_pick_radius(pts, 4.0 + static_cast<double>(next(s) % 24),
                             seed);
    PointCorrelationKernel k(tree, pts, r, space);
    check_sharded_axis(k, space);
  }
}

TEST(VariantFuzz, NearestNeighborSharded) {
  std::uint64_t s = 0xe7037ed1a0b428dbull;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::size_t n = 96 + next(s) % 600;
    const int dim = 2 + static_cast<int>(next(s) % 6);
    const std::uint64_t seed = next(s);
    PointSet pts = round % 2 == 0 ? gen_covtype_like(n, dim, seed)
                                  : gen_mnist_like(n, dim, seed);
    KdTreeNN tree = build_kdtree_nn(pts);
    GpuAddressSpace space;
    NnKernel k(tree, pts, space);
    check_sharded_axis(k, space);
  }
}

// Fused kernels are first-class citizens of the same sweeps: the
// composition (core/kernel_compose.h) must satisfy every contract the
// constituents do -- all-variant byte identity (including the stackless
// family with the node cache on and off), exact cycle attribution,
// auto_select reproduction, and the sharded {1, 2, 4}-device axis.
TEST(VariantFuzz, FusedPointQueriesAllVariants) {
  std::uint64_t s = 0x8bb84b93962eacc9ull;
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::size_t n = 96 + next(s) % 500;
    const int dim = 2 + static_cast<int>(next(s) % 6);
    const std::uint64_t seed = next(s);
    const int k = 1 + static_cast<int>(next(s) % kPqMaxK);
    PointSet pts = round % 2 == 0 ? gen_uniform(n, dim, seed)
                                  : gen_covtype_like(n, dim, seed);
    KdTree tree = build_kdtree(pts, 4 + static_cast<int>(next(s) % 8));
    GpuAddressSpace space;
    RopeKnnKernel knn(tree, pts, k, space);
    RopeNnKernel nn(tree, pts, space);
    auto fused = fuse(knn, nn);
    check_all_variants(fused, space);
  }
}

TEST(VariantFuzz, FusedPointQueriesSharded) {
  std::uint64_t s = 0x589965cc75374cc3ull;
  const std::size_t n = 96 + next(s) % 500;
  const int dim = 2 + static_cast<int>(next(s) % 6);
  const std::uint64_t seed = next(s);
  PointSet pts = gen_covtype_like(n, dim, seed);
  KdTree tree = build_kdtree(pts, 8);
  GpuAddressSpace space;
  RopeKnnKernel knn(tree, pts, 8, space);
  RopeNnKernel nn(tree, pts, space);
  auto fused = fuse(knn, nn);
  check_sharded_axis(fused, space);
}

TEST(VariantFuzz, FusedBhTimestepPair) {
  std::uint64_t s = 0x1d8e4e27c47d124full;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::size_t n = 128 + next(s) % 400;
    BodySet bodies = gen_plummer(n, next(s));
    Octree tree0 = build_octree(bodies.pos, bodies.mass);
    GpuAddressSpace space;
    BarnesHutKernel a(tree0, bodies.pos, 0.5f, 1e-4f, space);
    auto forces = run_cpu(a, CpuVariant::kRecursive, 1).results;
    PointSet pos1 = bodies.pos;
    std::vector<float> vel = bodies.vel;
    bh_integrate(pos1, vel, forces, 0.0125f);
    Octree tree1 = tree0;
    refit_octree(tree1, pos1, bodies.mass);
    BarnesHutKernel b(tree1, pos1, 0.5f, 1e-4f, space, a);
    auto fused = fuse(a, b);
    check_all_variants(fused, space);
  }
}

}  // namespace
}  // namespace tt
