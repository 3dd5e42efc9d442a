// GPU-simulated executors: the paper's four fixed variants, each a
// declarative StackPolicy x ConvergencePolicy composition driven by the
// shared WarpEngine core, plus the section-4.4 adaptive variant that
// picks between the two autoropes compositions at launch time:
//
//   variant          stack policy    convergence policy
//   ---------------  --------------  ---------------------------
//   auto_nolockstep  LaneRopeStack   LoopHeadReconvergence
//   auto_lockstep    WarpStack       WarpAndTruncation
//   rec_nolockstep   CallFrames      MaxDepthCallReconvergence
//   rec_lockstep     CallFrames      WarpAndTruncation
//   auto_select      (sample similarity, dispatch to auto_lockstep or
//                     auto_nolockstep; sampling charged to the cost model)
//   stackless_lockstep    StacklessRope  WarpAndTruncation (shared cursor)
//   stackless_nolockstep  StacklessRope  LoopHeadReconvergence
//   index_walk            IndexWalk      LoopHeadReconvergence
//
// The stackless three need a StacklessCompatibleKernel (static_ropes.h)
// and allocate no stack arena; the freed shared memory backs a modelled
// top-of-tree node cache (simt/smem_cache.h).
//
// The WarpEngine (warp_engine.h) owns the per-warp lifecycle, counters and
// the single trace-emission site; stack policies (stack_policy.h) own
// continuation layout and traffic; convergence policies
// (convergence_policy.h) own the warp schedule. Everything else about a
// launch -- auto_select resolution, arena sizing, Figure 9b grid, the
// composition table, the per-slot chunk loop and the final accounting --
// lives in core/launch.h and is shared with the pooled (serving.h) and
// sharded (device_group.h) executors; run_gpu_sim below only fans the
// launch's slots out and hands back typed results.
//
// All variants execute the *same kernel semantics*; only event counts (and
// therefore modelled time) differ. Equivalence across variants is enforced
// by integration tests.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/launch.h"
#include "core/profiler.h"
#include "core/static_ropes.h"
#include "core/traversal_kernel.h"
#include "core/variant.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "simt/address_space.h"
#include "simt/cost_model.h"
#include "simt/device_config.h"
#include "simt/executor.h"
#include "simt/kernel_stats.h"
#include "util/timer.h"

namespace tt {

template <class K>
struct GpuRun {
  std::vector<typename K::Result> results;
  KernelStats stats;
  TimeBreakdown time;
  std::size_t n_warps = 0;
  // Non-lockstep: per-point node visits. Lockstep: per-warp pop counts
  // (every point of the warp shares the warp's union traversal). Table 2's
  // work-expansion metric combines the two.
  std::vector<std::uint32_t> per_point_visits;
  std::vector<std::uint32_t> per_warp_pops;
  double sim_wall_ms = 0;  // host cost of the simulation (diagnostic)
  // Set only by the auto_select variant: what the section-4.4 sampler
  // measured and which composition the launch was dispatched to.
  std::optional<SelectionInfo> selection;
  // Set when a ProfileSink was passed: the launch's cycle-attribution
  // profile (obs/profile.h), with any auto_select sampling charge folded
  // into the kSelect bucket so reconciles() covers the full launch.
  std::optional<obs::ProfileReport> profile;

  // The paper's "Avg. # Nodes" column.
  [[nodiscard]] double avg_nodes() const {
    if (!per_warp_pops.empty()) {
      double s = 0;
      for (auto v : per_warp_pops) s += v;
      return s / static_cast<double>(per_warp_pops.size());
    }
    double s = 0;
    for (auto v : per_point_visits) s += v;
    return per_point_visits.empty() ? 0 : s / static_cast<double>(per_point_visits.size());
  }
};

// ---------------------------------------------------------------------
// Entry point: simulate the kernel under one of the eight GPU variants --
// a typed adapter over the one launch path (core/launch.h): resolve,
// prepare, fan the launch's own grid out over run_warps (one reusable L2
// slice per host thread), finish. Ineligible stackless pairings throw
// std::invalid_argument, a stack overflow std::runtime_error.
// `trace` is optional: when non-null, the engine emits per-step event
// records into it (see obs/trace.h for the determinism contract).
// `profile` is optional: when non-null, the run's cycle-attribution
// profile (obs/profile.h) is built into GpuRun::profile.
// ---------------------------------------------------------------------
template <TraversalKernel K>
GpuRun<K> run_gpu_sim(const K& k, GpuAddressSpace& space,
                      const DeviceConfig& cfg, GpuMode mode,
                      obs::TraceSink* trace = nullptr,
                      obs::ProfileSink* profile = nullptr) {
  const ResolvedMode r = resolve_mode(
      mode, cfg, "run_gpu_sim", [&](std::size_t samples, std::uint64_t seed) {
        return profile_similarity(k, samples, seed);
      });
  const std::string why = kernel_variant_ineligible_reason(k, r.mode.variant);
  if (!why.empty()) throw std::invalid_argument("run_gpu_sim: " + why);

  TypedLaunchRun<K> launch(k, space, cfg, r.mode, trace, profile,
                           kSoloKernel);
  WallTimer timer;
  const std::vector<KernelStats> per_slot = run_warps(
      launch.shape.grid, cfg,
      [&](std::size_t p, KernelStats& stats, L2Cache* l2) {
        launch.run_slot(p, stats, l2);
      });
  GpuRun<K> run;
  run.sim_wall_ms = timer.elapsed_ms();
  LaunchTotals t = finish_launch(launch, per_slot, r.selection, cfg, trace,
                                 profile);
  if (!t.overflow.empty())
    throw std::runtime_error(std::string("run_gpu_sim: rope stack overflow "
                                         "(kernel ") +
                             kernel_display_name<K>() + ", " + t.overflow +
                             ")");
  run.results = launch.take_results();
  run.stats = std::move(t.stats);
  run.time = t.time;
  run.n_warps = launch.shape.n_warps;
  run.per_point_visits = std::move(launch.per_point_visits);
  run.per_warp_pops = std::move(launch.per_warp_pops);
  run.selection = r.selection;
  run.profile = std::move(t.profile);
  return run;
}

}  // namespace tt
