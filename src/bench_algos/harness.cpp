#include "bench_algos/harness.h"

#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "bench_algos/bh/barnes_hut.h"
#include "bench_algos/knn/knn.h"
#include "bench_algos/nn/nearest_neighbor.h"
#include "bench_algos/pc/point_correlation.h"
#include "bench_algos/vp/vantage_point.h"
#include "core/cpu_executors.h"
#include "core/gpu_executors.h"
#include "core/static_ropes.h"
#include "cpu/parallel.h"
#include "obs/chrome_trace.h"
#include "obs/profile.h"
#include "data/generators.h"
#include "data/sorting.h"
#include "spatial/kdtree.h"
#include "spatial/octree.h"
#include "spatial/vptree.h"

namespace tt {

std::string algo_name(Algo a) {
  switch (a) {
    case Algo::kBH: return "Barnes-Hut";
    case Algo::kPC: return "PointCorrelation";
    case Algo::kKNN: return "kNearestNeighbor";
    case Algo::kNN: return "NearestNeighbor";
    case Algo::kVP: return "VantagePoint";
  }
  return "?";
}

std::string input_name(InputKind i) {
  switch (i) {
    case InputKind::kPlummer: return "Plummer";
    case InputKind::kRandomBodies: return "Random";
    case InputKind::kCovtype: return "Covtype";
    case InputKind::kMnist: return "Mnist";
    case InputKind::kUniform: return "Random";
    case InputKind::kGeocity: return "Geocity";
  }
  return "?";
}

std::vector<InputKind> inputs_for(Algo a) {
  if (a == Algo::kBH)
    return {InputKind::kPlummer, InputKind::kRandomBodies};
  return {InputKind::kCovtype, InputKind::kMnist, InputKind::kUniform,
          InputKind::kGeocity};
}

ir::AnalysisReport analysis_for(Algo a) {
  switch (a) {
    case Algo::kBH: return ir::analyze(bh_ir());
    case Algo::kPC: return ir::analyze(pc_ir());
    case Algo::kKNN: return ir::analyze(knn_ir());
    case Algo::kNN: return ir::analyze(nn_ir());
    case Algo::kVP: return ir::analyze(vp_ir());
  }
  throw std::logic_error("analysis_for: bad algo");
}

namespace {

VariantResult to_variant(const KernelStats& stats, const TimeBreakdown& time,
                         double avg_nodes, double sim_wall_ms) {
  VariantResult v;
  v.stats = stats;
  v.time = time;
  v.time_ms = time.total_ms;
  v.avg_nodes = avg_nodes;
  v.sim_wall_ms = sim_wall_ms;
  return v;
}

// Per-warp work expansion (Table 2): lockstep union size over the longest
// individual traversal in the warp (the non-lockstep completion bound).
Summary work_expansion(const std::vector<std::uint32_t>& per_point_visits,
                       const std::vector<std::uint32_t>& per_warp_pops,
                       int warp_size) {
  RunningStats rs;
  for (std::size_t w = 0; w < per_warp_pops.size(); ++w) {
    std::uint32_t longest = 0;
    std::size_t begin = w * static_cast<std::size_t>(warp_size);
    std::size_t end = std::min(per_point_visits.size(),
                               begin + static_cast<std::size_t>(warp_size));
    for (std::size_t i = begin; i < end; ++i)
      longest = std::max(longest, per_point_visits[i]);
    if (longest == 0) continue;
    rs.add(static_cast<double>(per_warp_pops[w]) / longest);
  }
  return rs.summary();
}

// Runs the CPU baselines and all five GPU variants for one kernel, filling
// the variant columns of `row`. `equal` compares two Result values.
template <TraversalKernel K, class Eq>
void run_all(BenchRow& row, const BenchConfig& cfg, const K& k,
             GpuAddressSpace& space, Eq&& equal) {
  // Copy-in/copy-out accounting (section 5.2): everything registered so
  // far is kernel input (tree + points); the stack arenas the executors
  // add below are device-internal and never cross the bus.
  row.upload_bytes = space.footprint_bytes();
  row.download_bytes =
      static_cast<std::uint64_t>(sizeof(typename K::Result)) * k.num_points();

  // CPU: the original recursive implementation, measured for real.
  auto cpu1 = run_cpu(k, CpuVariant::kRecursive, 1);
  int tmax = cfg.cpu_threads > 0 ? cfg.cpu_threads : hardware_threads();
  auto cpuN = run_cpu(k, CpuVariant::kRecursive, tmax);
  row.cpu_t1_ms = cpu1.wall_ms;
  row.cpu_tmax_ms = cpuN.wall_ms;
  row.cpu_threads_measured = tmax;
  row.cpu_visits = cpu1.total_visits;

  // Simulate the eight GPU variants. A rope-stack overflow (run_gpu_sim
  // throws) fails only that variant: its error string is recorded and the
  // remaining variants still produce measurements. Stackless variants are
  // pre-checked for eligibility (guided kernels have no canonical rope
  // order) and reported as skipped rather than attempted.
  std::array<std::vector<typename K::Result>, kNumVariants> gpu_results;
  std::vector<std::uint32_t> nolockstep_visits;
  std::vector<std::uint32_t> lockstep_pops;
  for (Variant v : kAllVariants) {
    if (!cfg.variants.contains(v)) {
      row.result(v) = VariantResult{};
      row.result(v).error =
          std::string("skipped: excluded by --variant filter (") +
          variant_name(v) + ")";
      continue;
    }
    const std::string why = kernel_variant_ineligible_reason(k, v);
    if (!why.empty()) {
      row.result(v) = VariantResult{};
      row.result(v).error = "skipped: " + why;
      continue;
    }
    try {
      GpuMode mode = GpuMode::from(v);
      mode.profile_samples = cfg.profile_samples;
      mode.profile_seed = cfg.profile_seed;
      obs::TraceSink* tsink = nullptr;
      if (cfg.chrome)
        tsink = &cfg.chrome->begin_launch(
            std::string(kernel_display_name<K>()) + "/" + variant_name(v));
      obs::ProfileSink psink;
      auto g = run_gpu_sim(k, space, cfg.device, mode, tsink,
                           cfg.profile ? &psink : nullptr);
      // Per-buffer counter tracks next to this launch's warp timeline.
      if (tsink) cfg.chrome->set_launch_memory(g.stats.memory);
      row.result(v) =
          to_variant(g.stats, g.time, g.avg_nodes(), g.sim_wall_ms);
      row.result(v).selection = g.selection;
      row.result(v).profile = std::move(g.profile);
      if (v == Variant::kAutoNolockstep)
        nolockstep_visits = std::move(g.per_point_visits);
      else if (v == Variant::kAutoLockstep)
        lockstep_pops = std::move(g.per_warp_pops);
      gpu_results[static_cast<std::size_t>(v)] = std::move(g.results);
    } catch (const std::runtime_error& e) {
      row.result(v) = VariantResult{};
      row.result(v).error = e.what();
    }
  }

  // Table 2 needs both autoropes variants; skip it if either overflowed.
  if (!nolockstep_visits.empty() && !lockstep_pops.empty())
    row.work_expansion = work_expansion(nolockstep_visits, lockstep_pops,
                                        cfg.device.warp_size);

  if (cfg.verify) {
    auto cpu_auto = run_cpu(k, CpuVariant::kAutoropes, 1);
    auto check = [&](const std::vector<typename K::Result>& got,
                     const char* what) {
      for (std::size_t i = 0; i < got.size(); ++i)
        if (!equal(cpu1.results[i], got[i]))
          throw std::runtime_error(std::string("variant mismatch (") + what +
                                   ") at point " + std::to_string(i));
    };
    check(cpu_auto.results, "cpu autoropes");
    for (Variant v : kAllVariants)
      if (row.result(v).ok())
        check(gpu_results[static_cast<std::size_t>(v)], variant_name(v));
  }
}

// Fold another timestep's measurements into the running row: times and
// visit counters add; per-point averages stay averages of the whole run;
// work expansion becomes the running mean over steps.
void accumulate(BenchRow& row, const BenchRow& step, int steps_so_far) {
  double w = 1.0 / steps_so_far;
  auto add_variant = [w](VariantResult& a, const VariantResult& b) {
    // One failed timestep poisons the variant's whole-run measurement.
    if (!b.ok() && a.ok()) a.error = b.error;
    if (!a.ok()) return;
    a.time_ms += b.time_ms;  // total traversal time, like the paper
    a.time.compute_ms += b.time.compute_ms;
    a.time.memory_ms += b.time.memory_ms;
    a.time.total_ms += b.time.total_ms;
    a.time.memory_bound = a.time.memory_ms > a.time.compute_ms;
    a.avg_nodes = a.avg_nodes * (1.0 - w) + b.avg_nodes * w;  // per step
    a.time.imbalance =
        a.time.imbalance * (1.0 - w) + b.time.imbalance * w;  // per step
    a.stats.merge(b.stats);
    a.sim_wall_ms += b.sim_wall_ms;
    if (b.selection) {
      if (!a.selection) {
        a.selection = b.selection;
      } else {
        // Samples and charged cycles add across timesteps; similarity
        // stays a per-sample mean; `chosen` keeps the first dispatch.
        const std::uint64_t total = a.selection->samples + b.selection->samples;
        if (total > 0) {
          const double wa = static_cast<double>(a.selection->samples);
          const double wb = static_cast<double>(b.selection->samples);
          a.selection->mean_similarity =
              (a.selection->mean_similarity * wa +
               b.selection->mean_similarity * wb) /
              static_cast<double>(total);
          a.selection->baseline_similarity =
              (a.selection->baseline_similarity * wa +
               b.selection->baseline_similarity * wb) /
              static_cast<double>(total);
        }
        a.selection->samples = total;
        a.selection->sampling_cycles += b.selection->sampling_cycles;
      }
    }
    if (b.profile) {
      if (!a.profile)
        a.profile = b.profile;
      else
        a.profile->merge(*b.profile);
    }
  };
  for (Variant v : kAllVariants) add_variant(row.result(v), step.result(v));
  row.cpu_t1_ms += step.cpu_t1_ms;
  row.cpu_tmax_ms += step.cpu_tmax_ms;
  row.cpu_visits += step.cpu_visits;
  row.upload_bytes += step.upload_bytes;  // tree re-uploaded per step
  row.download_bytes += step.download_bytes;
  row.launches += step.launches;  // each step is its own kernel launch
  row.work_expansion.mean =
      row.work_expansion.mean * (1.0 - w) + step.work_expansion.mean * w;
  row.work_expansion.stddev =
      row.work_expansion.stddev * (1.0 - w) + step.work_expansion.stddev * w;
}

PointSet make_tree_input(const BenchConfig& cfg) {
  switch (cfg.input) {
    case InputKind::kCovtype:
      return gen_covtype_like(cfg.n, cfg.dim, cfg.seed);
    case InputKind::kMnist:
      return gen_mnist_like(cfg.n, cfg.dim, cfg.seed);
    case InputKind::kUniform:
      return gen_uniform(cfg.n, cfg.dim, cfg.seed);
    case InputKind::kGeocity:
      return gen_geocity_like(cfg.n, cfg.seed);
    default:
      throw std::invalid_argument("make_tree_input: body input for tree algo");
  }
}

void apply_order(PointSet& pts, const BenchConfig& cfg) {
  if (cfg.sorted) {
    // Spatial sort (section 4.4): Morton order in low dimensions, kd-tree
    // leaf order otherwise.
    auto perm = pts.dim() <= 3 ? morton_order(pts)
                               : tree_order(pts, cfg.leaf_size);
    pts.permute(perm);
  } else {
    auto perm = shuffled_order(pts.size(), cfg.seed ^ 0x5bd1e995);
    pts.permute(perm);
  }
}

// Generate + order the Barnes-Hut body set; masses and velocities follow
// the position permutation.
BodySet make_bh_input(const BenchConfig& cfg) {
  if (cfg.input != InputKind::kPlummer && cfg.input != InputKind::kRandomBodies)
    throw std::invalid_argument("run_bench: BH needs a body input");
  BodySet bodies = cfg.input == InputKind::kPlummer
                       ? gen_plummer(cfg.n, cfg.seed)
                       : gen_random_bodies(cfg.n, cfg.seed);
  auto perm = cfg.sorted ? morton_order(bodies.pos)
                         : shuffled_order(cfg.n, cfg.seed ^ 0x5bd1e995);
  bodies.pos.permute(perm);
  {  // masses/velocities follow the position permutation
    std::vector<float> m(cfg.n), v(3 * cfg.n);
    for (std::size_t j = 0; j < cfg.n; ++j) {
      m[j] = bodies.mass[perm[j]];
      for (int d = 0; d < 3; ++d)
        v[static_cast<std::size_t>(d) * cfg.n + j] =
            bodies.vel[static_cast<std::size_t>(d) * cfg.n + perm[j]];
    }
    bodies.mass = std::move(m);
    bodies.vel = std::move(v);
  }
  return bodies;
}

bool nearly_equal(float a, float b, float tol) {
  if (a == b) return true;
  if (std::isinf(a) || std::isinf(b)) return a == b;
  float scale = std::max({1.0f, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= tol * scale;
}

// A kernel together with the input and tree it points into. It lives on
// the heap and is never moved, so the kernel's pointers stay valid; the
// type-erased path parks the whole bundle behind the handle's keep-alive.
template <class Input, class Tree, class K>
struct KernelBundle {
  Input input;
  Tree tree;
  std::optional<K> kernel;
};

using BhBundle = KernelBundle<BodySet, Octree, BarnesHutKernel>;

// One Barnes-Hut timestep's setup: (re)build the octree over the current
// body positions and the kernel over it, registering its buffers in
// `space`. The builder runs it for the first step, run_bench for each
// later one.
void build_bh_step(BhBundle& b, const BenchConfig& cfg,
                   GpuAddressSpace& space) {
  b.kernel.reset();
  b.tree = build_octree(b.input.pos, b.input.mass);
  b.kernel.emplace(b.tree, b.input.pos, cfg.bh_theta, cfg.bh_eps2, space);
}

template <class Tree, class K>
std::shared_ptr<KernelBundle<PointSet, Tree, K>> point_bundle(
    const BenchConfig& cfg) {
  auto b = std::make_shared<KernelBundle<PointSet, Tree, K>>();
  b->input = make_tree_input(cfg);
  apply_order(b->input, cfg);
  return b;
}

// The one place a BenchConfig becomes input data, a tree and a kernel
// (generate -> order -> build tree -> construct the kernel into `space`).
// Returns use(bundle, equal): the built KernelBundle and the check
// run_bench verifies two of the kernel's Result values with.
template <class Use>
auto build_kernel(const BenchConfig& cfg, GpuAddressSpace& space, Use&& use) {
  switch (cfg.algo) {
    case Algo::kBH: {
      auto b = std::make_shared<BhBundle>();
      b->input = make_bh_input(cfg);
      build_bh_step(*b, cfg, space);
      return use(b, [](const BhForce& x, const BhForce& y) {
        return nearly_equal(x.ax, y.ax, 1e-4f) &&
               nearly_equal(x.ay, y.ay, 1e-4f) &&
               nearly_equal(x.az, y.az, 1e-4f);
      });
    }
    case Algo::kPC: {
      auto b = point_bundle<KdTree, PointCorrelationKernel>(cfg);
      b->tree = build_kdtree(b->input, cfg.leaf_size);
      const float r =
          pc_pick_radius(b->input, cfg.pc_target_neighbors, cfg.seed);
      b->kernel.emplace(b->tree, b->input, r, space);
      return use(b, [](std::uint32_t x, std::uint32_t y) { return x == y; });
    }
    case Algo::kKNN: {
      auto b = point_bundle<KdTree, KnnKernel>(cfg);
      b->tree = build_kdtree(b->input, cfg.leaf_size);
      b->kernel.emplace(b->tree, b->input, cfg.k, space);
      return use(b, [](const KnnResult& x, const KnnResult& y) {
        return nearly_equal(x.kth_d2, y.kth_d2, 1e-4f) &&
               nearly_equal(x.sum_d2, y.sum_d2, 1e-3f);
      });
    }
    case Algo::kNN: {
      auto b = point_bundle<KdTreeNN, NnKernel>(cfg);
      b->tree = build_kdtree_nn(b->input);
      b->kernel.emplace(b->tree, b->input, space);
      return use(b, [](const NnResult& x, const NnResult& y) {
        return nearly_equal(x.best_d2, y.best_d2, 1e-4f);
      });
    }
    case Algo::kVP: {
      auto b = point_bundle<VpTree, VpKernel>(cfg);
      b->tree = build_vptree(b->input, cfg.seed ^ 0x7b1fa2);
      b->kernel.emplace(b->tree, b->input, space);
      return use(b, [](const VpResult& x, const VpResult& y) {
        return nearly_equal(x.best_d, y.best_d, 1e-4f);
      });
    }
  }
  throw std::logic_error("build_kernel: bad algo");
}

}  // namespace

BenchRow run_bench(const BenchConfig& cfg) {
  BenchRow row;
  GpuAddressSpace space;
  build_kernel(cfg, space, [&](const auto& b, const auto& equal) {
    run_all(row, cfg, *b->kernel, space, equal);
    if constexpr (std::is_same_v<std::decay_t<decltype(*b)>, BhBundle>) {
      // The paper integrates several timesteps, rebuilding the octree each
      // step; traversal metrics accumulate across steps. Each step
      // advances with the verified CPU result (identical across variants)
      // and is its own launch over a fresh address space.
      for (int step = 1; step < cfg.bh_timesteps; ++step) {
        auto cpu = run_cpu(*b->kernel, CpuVariant::kAutoropes, 2);
        bh_integrate(b->input.pos, b->input.vel, cpu.results, cfg.bh_dt);
        GpuAddressSpace step_space;
        build_bh_step(*b, cfg, step_space);
        BenchRow step_row;
        run_all(step_row, cfg, *b->kernel, step_space, equal);
        accumulate(row, step_row, step + 1);
      }
    }
  });
  row.config = cfg;
  return row;
}

// The batched, served and sharded launches traverse the identical input
// in an identically laid-out address space as the solo row: both come
// from build_kernel.
std::unique_ptr<PreparedKernel> prepare_kernel(const BenchConfig& cfg) {
  auto out = std::make_unique<PreparedKernel>();
  out->handle = build_kernel(cfg, out->space, [](const auto& b, const auto&) {
    return make_kernel_handle(*b->kernel, b);
  });
  // Copy-in/copy-out accounting, as in run_all: everything registered so
  // far (tree + points) crosses the bus; the stack arena the batched
  // executor adds later is device-internal.
  out->upload_bytes = out->space.footprint_bytes();
  out->download_bytes = static_cast<std::uint64_t>(
      out->handle->result_stride() * out->handle->num_points());
  return out;
}

BatchResult run_batch(const BatchConfig& cfg) {
  if (cfg.items.empty())
    throw std::invalid_argument("run_batch: batch has no items");
  BatchResult out;
  out.variant = cfg.variant;
  out.policy = cfg.policy;

  // Closed-batch serving session: everything admitted at t=0, drained as
  // one wave -- byte-identical to the pre-session run_gpu_batch path.
  ServingSession session(
      ServingConfig::closed_batch(cfg.device, cfg.policy, cfg.items.size()));
  std::vector<std::unique_ptr<PreparedKernel>> prepared;
  // Per-launch profiler sinks; unique_ptrs keep the addresses handed to
  // the specs stable while the vector grows.
  std::vector<std::unique_ptr<obs::ProfileSink>> psinks;
  prepared.reserve(cfg.items.size());
  for (const BenchConfig& item : cfg.items) {
    prepared.push_back(prepare_kernel(item));
    PreparedKernel& pl = *prepared.back();
    QuerySet q;
    q.spec.kernel = pl.handle;
    q.spec.space = &pl.space;
    q.spec.mode = GpuMode::from(cfg.variant);
    q.spec.mode.grid_limit = cfg.grid_limit;
    q.spec.mode.profile_samples = item.profile_samples;
    q.spec.mode.profile_seed = item.profile_seed;
    q.upload_bytes = pl.upload_bytes;
    q.download_bytes = pl.download_bytes;
    if (cfg.chrome)
      q.spec.trace = &cfg.chrome->begin_launch(pl.handle->name());
    if (cfg.profile) {
      psinks.push_back(std::make_unique<obs::ProfileSink>());
      q.spec.profile = psinks.back().get();
    }
    session.submit(std::move(q), 0.0);
  }
  session.flush();
  BatchRun run = session.take_closed_run();
  out.residency = run.residency;
  out.total_chunks = run.total_chunks;
  out.rounds = run.rounds;
  out.switches = run.switches;
  out.sim_wall_ms = run.sim_wall_ms;

  out.kernels.reserve(run.launches.size());
  for (std::size_t i = 0; i < run.launches.size(); ++i) {
    const LaunchResult& lr = run.launches[i];
    BatchKernelRow row;
    row.config = cfg.items[i];
    row.kernel_name = lr.kernel_name;
    row.upload_bytes = prepared[i]->upload_bytes;
    row.download_bytes = prepared[i]->download_bytes;
    if (lr.ok()) {
      row.result.stats = lr.stats;
      row.result.time = lr.time;
      row.result.time_ms = lr.time.total_ms;
      row.result.avg_nodes = lr.avg_nodes();
      row.result.selection = lr.selection;
      row.result.profile = lr.profile;
      row.avg_nodes = row.result.avg_nodes;
    } else {
      row.result.error = lr.error;
    }
    out.upload_bytes += row.upload_bytes;
    out.download_bytes += row.download_bytes;
    out.kernels.push_back(std::move(row));
  }
  return out;
}

BatchConfig default_table1_batch() {
  BatchConfig batch;
  for (Algo a : {Algo::kBH, Algo::kPC, Algo::kKNN, Algo::kNN, Algo::kVP}) {
    BenchConfig c;
    c.algo = a;
    c.input = inputs_for(a).front();
    c.sorted = true;
    batch.items.push_back(c);
  }
  return batch;
}

ShardingRunSummary run_sharding(const ShardingConfig& config) {
  if (config.items.empty())
    throw std::invalid_argument("run_sharding: no items to shard");
  ShardingRunSummary out;
  out.devices = std::max<std::size_t>(config.devices, 1);
  out.chunk_points = std::max<std::size_t>(config.chunk_points, 1);
  out.policy = config.policy;
  out.variant = config.variant;
  out.transfer = config.transfer;

  DeviceGroupConfig group;
  group.devices = out.devices;
  group.device = config.device;
  group.transfer = config.transfer;
  group.policy = config.policy;
  group.chunk_points = out.chunk_points;
  group.chrome = config.chrome;

  out.kernels.reserve(config.items.size());
  for (const BenchConfig& item : config.items) {
    std::unique_ptr<PreparedKernel> pl = prepare_kernel(item);
    LaunchSpec spec;
    spec.kernel = pl->handle;
    spec.space = &pl->space;
    spec.mode = GpuMode::from(config.variant);
    spec.mode.grid_limit = config.grid_limit;
    spec.mode.profile_samples = item.profile_samples;
    spec.mode.profile_seed = item.profile_seed;

    ShardedRun r =
        run_sharded(spec, pl->upload_bytes, pl->download_bytes, group);
    ShardingKernelReport rep;
    rep.kernel_name = r.merged.kernel_name.empty() ? pl->handle->name()
                                                   : r.merged.kernel_name;
    rep.n_points = r.merged.n_points;
    rep.n_chunks = r.merged.n_warps;
    rep.variant = r.merged.variant;
    rep.single_device_ms = r.single_device_ms;
    rep.makespan_ms = r.makespan_ms;
    rep.speedup = r.speedup;
    rep.devices = std::move(r.devices);
    rep.error = r.merged.error;
    out.kernels.push_back(std::move(rep));
  }
  return out;
}

std::vector<CpuSweepPoint> cpu_sweep(const BenchRow& row, bool lockstep,
                                     const std::vector<int>& thread_counts) {
  const VariantResult& v = row.result(lockstep ? Variant::kAutoLockstep
                                               : Variant::kAutoNolockstep);
  std::vector<CpuSweepPoint> out;
  out.reserve(thread_counts.size());
  for (int t : thread_counts) {
    CpuSweepPoint p;
    p.threads = t;
    p.cpu_ms = row.cpu_model.time_ms(row.cpu_t1_ms, t);
    p.ratio_vs_gpu = v.time_ms / p.cpu_ms;
    out.push_back(p);
  }
  return out;
}

}  // namespace tt
