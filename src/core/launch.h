// The one launch path every GPU simulation goes through -- solo
// (run_gpu_sim, gpu_executors.h), batched and served (run_launch_pool,
// serving.h) and sharded (run_sharded, device_group.h) -- plus the
// type-erased handle API over it. A launch takes three steps (DESIGN.md
// section 3.2):
//
//   resolve_mode
//     The one place auto_select is decided: sample traversal similarity,
//     pick the lockstep or non-lockstep autoropes composition and record
//     the decision (SelectionInfo, sampling charge included).
//
//   TypedLaunchRun (prepare)
//     Size the launch (LaunchGeometry: warp counts, Figure 9b grid,
//     stack-arena span), reserve its stack arena or, for the stackless
//     family, its rope array and node cache, and allocate result/counter
//     storage. Every physical warp slot then walks its chunk list through
//     the StackPolicy x ConvergencePolicy composition table (run_chunk).
//     The solo, pooled and sharded fan-outs all run this one slot body,
//     which is what keeps their numbers byte-identical.
//
//   finish_launch
//     Merge the slots' stats, estimate time, charge the sampling, emit the
//     kSelect decision, build the profile and report a stack overflow.
//
// KernelHandle / TypedKernelHandle<K> wrap a NamedTraversalKernel behind
// virtual dispatch so a heterogeneous set of launches (LaunchSpec) can live
// in one container; LaunchResult is the type-erased per-launch
// measurement coming back (raw result bytes + isolated KernelStats /
// TimeBreakdown / SelectionInfo).
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <omp.h>

#include "core/convergence_policy.h"
#include "core/profiler.h"
#include "core/stack_policy.h"
#include "core/static_ropes.h"
#include "core/traversal_kernel.h"
#include "core/variant.h"
#include "core/warp_engine.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "simt/address_space.h"
#include "simt/cost_model.h"
#include "simt/device_config.h"
#include "simt/kernel_stats.h"
#include "simt/l2cache.h"
#include "simt/smem_cache.h"
#include "simt/warp_memory.h"

namespace tt {

// A TraversalKernel that names itself. kernel_display_name()'s
// "unnamed-kernel" fallback is fine for ad-hoc micro kernels running
// through run_gpu_sim, but the type-erased handle API requires the real
// name: batched overflow/error strings are prefixed with it.
template <class K>
concept NamedTraversalKernel =
    TraversalKernel<K> && requires {
      { K::kName } -> std::convertible_to<const char*>;
    };

// ---------------------------------------------------------------------
// Launch geometry shared by the solo and batched executors.
// ---------------------------------------------------------------------

struct LaunchGeometry {
  std::size_t n = 0;        // points
  std::size_t n_warps = 0;  // logical 32-point chunks
  std::size_t grid = 0;     // physical warps (Figure 9b strip-mining)
  int stack_bound = 0;
  std::uint32_t entry_bytes = 0;   // interleaved rope-stack entry
  std::uint64_t per_warp_span = 0; // stack-arena bytes per physical warp
};

template <TraversalKernel K>
[[nodiscard]] LaunchGeometry launch_geometry(const K& k, const DeviceConfig& cfg,
                                       const GpuMode& mode) {
  LaunchGeometry s;
  s.n = k.num_points();
  s.n_warps = (s.n + static_cast<std::size_t>(cfg.warp_size) - 1) /
              static_cast<std::size_t>(cfg.warp_size);
  s.stack_bound = k.stack_bound();
  s.entry_bytes = std::max<std::uint32_t>(
      4, stack_entry_bytes<K>(variant_is_lockstep(mode.variant)));
  // One interleaved stack (or local-memory frame arena) region per warp,
  // plus room for the warp-level entries of the global-lockstep ablation.
  s.per_warp_span =
      static_cast<std::uint64_t>(s.stack_bound + 4) *
      (static_cast<std::uint64_t>(cfg.warp_size) *
           std::max<std::uint32_t>(
               s.entry_bytes, static_cast<std::uint32_t>(cfg.frame_bytes)) +
       12);
  // Figure 9b's strip-mined grid loop: with a finite grid, physical warp p
  // processes chunks p, p + grid, p + 2*grid, ... and keeps its L2 slice
  // (and stack arena) across chunks. Uniform across all compositions.
  s.grid = mode.grid_limit > 0 ? std::min(mode.grid_limit, s.n_warps)
                               : s.n_warps;
  // The stackless family keeps no continuations at all: no arena bytes,
  // and ensure_stack_arena must not be called for these launches.
  if (variant_is_stackless(mode.variant)) s.per_warp_span = 0;
  return s;
}

// The launch's stack arena (idempotent per address space + policy family).
[[nodiscard]] inline BufferId ensure_stack_arena(GpuAddressSpace& space,
                                                 const GpuMode& mode,
                                                 const LaunchGeometry& s) {
  return space.ensure_buffer(
      variant_is_autoropes(mode.variant) ? "rope_stack" : "local_frames",
      1, s.per_warp_span * s.n_warps);
}

// Shared-memory bytes the stackless node cache may occupy: what the
// per-warp lockstep stack records (12 bytes per level, stack_bound + 4
// levels, one stack per resident warp) used to take from the SM, capped
// at the SM's shared memory -- unless mode.node_cache_bytes pins an
// explicit capacity for the ablation sweep.
[[nodiscard]] inline std::size_t stackless_cache_bytes(
    const DeviceConfig& cfg, const LaunchGeometry& s, const GpuMode& mode) {
  if (mode.node_cache_bytes != GpuMode::kNodeCacheFreedStack)
    return mode.node_cache_bytes;
  const std::size_t freed =
      static_cast<std::size_t>(cfg.resident_warps_per_sm) *
      static_cast<std::size_t>(s.stack_bound + 4) * 12;
  return std::min<std::size_t>(freed,
                               static_cast<std::size_t>(cfg.shared_mem_per_sm));
}

// Launch-scope context of a stackless launch: the installed rope array's
// buffer id in the launch's address space (-1 for stack-based launches),
// and the (optional) modelled shared-memory node cache every slot's
// WarpMemory checks before L2.
struct StacklessCtx {
  std::int32_t rope_buf = -1;
  const SmemNodeCache* cache = nullptr;
};

// Stack-policy instances addressing one physical warp's arena slice.
struct WarpArenas {
  LaneRopeStack lane_stack;
  WarpStack warp_stack;
  CallFrames frames;
};

[[nodiscard]] inline WarpArenas make_warp_arenas(const LaunchGeometry& s,
                                                 const DeviceConfig& cfg,
                                                 const GpuMode& mode,
                                                 std::uint64_t base) {
  WarpArenas a;
  a.lane_stack = LaneRopeStack{
      base, s.entry_bytes, static_cast<std::uint32_t>(cfg.warp_size),
      static_cast<std::uint32_t>(s.stack_bound + 4), mode.contiguous_stack};
  a.warp_stack = WarpStack{
      base,
      base + static_cast<std::uint64_t>(s.stack_bound + 4) *
                 static_cast<std::uint64_t>(cfg.warp_size) * s.entry_bytes,
      s.entry_bytes, static_cast<std::uint32_t>(cfg.warp_size),
      mode.lockstep_stack_global};
  a.frames = CallFrames{base, static_cast<std::uint32_t>(cfg.frame_bytes),
                        static_cast<std::uint32_t>(cfg.warp_size)};
  return a;
}

// The composition table: which StackPolicy x ConvergencePolicy pair a
// resolved Variant dispatches one chunk to. auto_select never reaches
// here -- resolve_mode decides it per launch first. The stackless cases
// need the launch's rope buffer and an eligible kernel; TypedLaunchRun
// enforces eligibility up front, so hitting the ineligible path here is a
// composition-table bug.
template <TraversalKernel K>
void run_chunk(WarpEngine<K>& eng, Variant v, const WarpArenas& a,
               const StacklessCtx& sctx) {
  switch (v) {
    case Variant::kAutoNolockstep:
      LoopHeadReconvergence{}.run(eng, a.lane_stack);
      break;
    case Variant::kAutoLockstep:
      WarpAndTruncation{}.run(eng, a.warp_stack);
      break;
    case Variant::kRecNolockstep:
      MaxDepthCallReconvergence{}.run(eng, a.frames);
      break;
    case Variant::kRecLockstep:
      WarpAndTruncation{}.run(eng, a.frames);
      break;
    case Variant::kStacklessLockstep:
    case Variant::kStacklessNolockstep:
      if constexpr (StacklessCompatibleKernel<K>) {
        if (sctx.rope_buf < 0)
          throw std::logic_error(
              "run_chunk: stackless variant launched without a rope buffer");
        const StacklessRope sp{&eng.kernel().ropes(), sctx.rope_buf};
        if (v == Variant::kStacklessLockstep)
          WarpAndTruncation{}.run(eng, sp);
        else
          LoopHeadReconvergence{}.run(eng, sp);
      } else {
        throw std::logic_error(
            "run_chunk: stackless variant on an ineligible kernel");
      }
      break;
    case Variant::kIndexWalk:
      if constexpr (kernel_index_walk_eligible<K>) {
        LoopHeadReconvergence{}.run(eng, IndexWalk{&eng.kernel().ropes()});
      } else {
        throw std::logic_error(
            "run_chunk: index_walk on an ineligible kernel");
      }
      break;
    case Variant::kAutoSelect:
      throw std::logic_error(
          "run_chunk: auto_select reached the composition switch");
  }
}

// ---------------------------------------------------------------------
// Step 1: resolve.
// ---------------------------------------------------------------------

// The section-4.4 sampling charge: every sampled traversal step costs a
// visit plus a step, run serially on one SM before the kernel.
[[nodiscard]] inline double sampling_cycles(std::uint64_t sampled_visits,
                                            const DeviceConfig& cfg) {
  return static_cast<double>(sampled_visits) * (cfg.c_visit + cfg.c_step);
}

// A launch's executed mode (never auto_select) plus, when auto_select was
// resolved, the decision record whose sampling finish_launch charges.
struct ResolvedMode {
  GpuMode mode;
  std::optional<SelectionInfo> selection;
};

// Resolve auto_select: draw `mode.profile_samples` traversal-pair samples
// through `sample(samples, seed) -> ProfileReport` and dispatch to the
// lockstep composition iff the input looks sorted. Every other variant
// passes through unchanged. `who` prefixes the error thrown on
// profile_samples == 0.
template <class Sampler>
[[nodiscard]] ResolvedMode resolve_mode(const GpuMode& mode,
                                        const DeviceConfig& cfg,
                                        const char* who, Sampler&& sample) {
  ResolvedMode r{mode, std::nullopt};
  if (mode.variant != Variant::kAutoSelect) return r;
  if (mode.profile_samples == 0)
    throw std::invalid_argument(std::string(who) +
                                ": auto_select needs profile_samples >= 1");
  const ProfileReport p = sample(mode.profile_samples, mode.profile_seed);
  r.mode.variant =
      p.looks_sorted ? Variant::kAutoLockstep : Variant::kAutoNolockstep;
  SelectionInfo sel;
  sel.mean_similarity = p.mean_similarity;
  sel.baseline_similarity = p.baseline_similarity;
  sel.samples = p.samples;
  sel.threshold = p.threshold;
  sel.chosen = r.mode.variant;
  sel.sampling_cycles = sampling_cycles(p.sampled_visits, cfg);
  r.selection = sel;
  return r;
}

// ---------------------------------------------------------------------
// Step 2: prepare and run.
// ---------------------------------------------------------------------

// Per-launch execution state behind a virtual boundary: typed result
// storage plus the untyped counters / overflow report the fan-outs need.
class LaunchRun {
 public:
  virtual ~LaunchRun() = default;

  GpuMode mode;  // resolved: never auto_select
  LaunchGeometry shape;
  // Non-lockstep: per-point node visits; lockstep: per-warp pop counts
  // (same split as GpuRun).
  std::vector<std::uint32_t> per_point_visits;
  std::vector<std::uint32_t> per_warp_pops;
  OverflowReport overflow;

  // Simulate physical warp slot `p` of a `grid`-slot residency: construct
  // the slot's memory front end, engine and arena policies once, then walk
  // chunks[p], chunks[p + grid], ... through the composition table. Each
  // chunk's traversal depends only on its logical warp index, so results
  // and visit counters land identically in the canonical warp-indexed
  // arrays whatever list the slot walks; only the slot's L2 / stats see
  // the walk order.
  virtual void run_chunk_list(std::span<const std::uint32_t> chunks,
                              std::size_t grid, std::size_t p,
                              KernelStats& stats, L2Cache* l2) = 0;

  // The launch's own residency: slot `p` (< shape.grid) walks the dense
  // Figure 9b order p, p + grid, ...
  void run_slot(std::size_t p, KernelStats& stats, L2Cache* l2) {
    run_chunk_list(all_chunks_, shape.grid, p, stats, l2);
  }

  [[nodiscard]] virtual const void* result_data() const = 0;
  [[nodiscard]] virtual std::size_t result_stride() const = 0;

 protected:
  std::vector<std::uint32_t> all_chunks_;  // 0, 1, ..., n_warps - 1
};

template <TraversalKernel K>
class TypedLaunchRun final : public LaunchRun {
 public:
  // Runs serially before any slot: sizes the launch, registers its stack
  // arena -- or, for the stackless family, the rope array (launch-time
  // scratch like the arena, never part of the kernel's upload bytes) and
  // the node cache built from the freed stack bytes -- and begins the
  // optional trace/profile sinks. Ineligible stackless pairings throw the
  // canonical reason string (core/static_ropes.h) behind "launch: ".
  TypedLaunchRun(const K& k, GpuAddressSpace& space, const DeviceConfig& cfg,
                 const GpuMode& resolved, obs::TraceSink* trace,
                 obs::ProfileSink* profile, std::uint32_t kernel_id)
      : k_(&k),
        space_(&space),
        cfg_(&cfg),
        trace_(trace),
        profile_(profile),
        kernel_id_(kernel_id),
        lockstep_(variant_is_lockstep(resolved.variant)) {
    mode = resolved;
    shape = launch_geometry(k, cfg, mode);
    results_.resize(shape.n);
    if (lockstep_)
      per_warp_pops.assign(shape.n_warps, 0);
    else
      per_point_visits.assign(shape.n, 0);
    all_chunks_.resize(shape.n_warps);
    std::iota(all_chunks_.begin(), all_chunks_.end(), 0u);
    if (variant_is_stackless(mode.variant)) {
      const std::string why = kernel_variant_ineligible_reason(k, mode.variant);
      if (!why.empty()) throw std::invalid_argument("launch: " + why);
      if constexpr (StacklessCompatibleKernel<K>) {
        sctx_.rope_buf = space.ensure_buffer(
            "ropes", 4, static_cast<std::uint64_t>(k.ropes().rope.size()));
        if (mode.node_cache_bytes > 0) {
          cache_ = SmemNodeCache::build(space, k.node_buffers(),
                                        k.ropes().rope.size(),
                                        stackless_cache_bytes(cfg, shape, mode));
          sctx_.cache = &cache_;
        }
      }
    } else {
      stack_base0_ = space.addr(ensure_stack_arena(space, mode, shape), 0);
    }
    if (trace) trace->begin(shape.n_warps, omp_get_max_threads());
    if (profile) profile->begin(omp_get_max_threads());
  }

  void run_chunk_list(std::span<const std::uint32_t> chunks, std::size_t grid,
                      std::size_t p, KernelStats& stats,
                      L2Cache* l2) override {
    const DeviceConfig& cfg = *cfg_;
    WarpMemory mem(*space_, cfg, l2, stats, sctx_.cache);
    // Fused kernels share node records between constituents; serve the
    // duplicate per-lane loads once (core/kernel_compose.h).
    if constexpr (kernel_shares_node_loads<K>)
      mem.set_shared_load_elision(true);
    obs::WarpTracer* tr =
        trace_ ? &trace_->ring(omp_get_thread_num()) : nullptr;
    obs::ProfileCollector* pc =
        profile_ ? &profile_->collector(omp_get_thread_num()) : nullptr;
    WarpEngine<K> eng(*k_, cfg, mem, stats, overflow, shape.stack_bound, tr,
                      pc);
    const WarpArenas arenas = make_warp_arenas(
        shape, cfg, mode, stack_base0_ + shape.per_warp_span * p);

    for (std::size_t i = p; i < chunks.size(); i += grid) {
      const std::uint32_t w = chunks[i];
      if (tr) tr->begin_warp(w);
      WarpRange range;
      range.begin = static_cast<std::uint32_t>(w * cfg.warp_size);
      range.end = static_cast<std::uint32_t>(std::min<std::size_t>(
          shape.n, (static_cast<std::size_t>(w) + 1) * cfg.warp_size));
      eng.begin_chunk(w, range, results_.data() + range.begin,
                      lockstep_ ? nullptr
                                : per_point_visits.data() + range.begin,
                      lockstep_ ? &per_warp_pops[w] : nullptr, kernel_id_);
      run_chunk(eng, mode.variant, arenas, sctx_);
      eng.end_chunk();
      if (tr) trace_->commit(w, *tr);
    }
  }

  [[nodiscard]] const void* result_data() const override {
    return results_.data();
  }
  [[nodiscard]] std::size_t result_stride() const override {
    return sizeof(typename K::Result);
  }
  [[nodiscard]] std::vector<typename K::Result> take_results() {
    return std::move(results_);
  }

 private:
  const K* k_;
  const GpuAddressSpace* space_;
  const DeviceConfig* cfg_;
  obs::TraceSink* trace_;
  obs::ProfileSink* profile_;
  std::uint32_t kernel_id_;
  bool lockstep_;
  std::uint64_t stack_base0_ = 0;
  std::vector<typename K::Result> results_;
  // Stackless launches only: rope buffer id + modelled node cache.
  StacklessCtx sctx_;
  SmemNodeCache cache_;
};

// ---------------------------------------------------------------------
// Step 3: finish.
// ---------------------------------------------------------------------

// One launch's measurement, or the detail of its stack overflow.
struct LaunchTotals {
  // Non-empty when a warp overflowed its stack bound: "variant V, warp W,
  // E entries, stack_bound B". The numbers below are then left zero.
  std::string overflow;
  KernelStats stats;
  TimeBreakdown time;
  std::optional<obs::ProfileReport> profile;
};

// Merge the slots' counters and estimate the launch's time. A resolved
// auto_select's sampling runs serially before the kernel, so it is charged
// to compute time without overlap and recorded as a launch-scope kSelect
// event on `trace` (after the slots ran: TraceSink::begin clears events).
// The profile is built after the charge so reconciles() covers the whole
// launch.
[[nodiscard]] LaunchTotals finish_launch(
    const LaunchRun& run, const std::vector<KernelStats>& per_slot,
    const std::optional<SelectionInfo>& selection, const DeviceConfig& cfg,
    obs::TraceSink* trace, obs::ProfileSink* profile);

// ---------------------------------------------------------------------
// Type-erased launch API.
// ---------------------------------------------------------------------

// Virtual-dispatch wrapper over a NamedTraversalKernel. The handle does
// not own the kernel or its tree/point data by default; pass `keep_alive`
// to make_kernel_handle when the handle should extend their lifetime
// (e.g. the batched harness builds trees per launch and parks them there).
class KernelHandle {
 public:
  virtual ~KernelHandle() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual std::size_t num_points() const = 0;
  [[nodiscard]] virtual int stack_bound() const = 0;
  [[nodiscard]] virtual std::size_t result_stride() const = 0;

  // The canonical ineligibility message for (this kernel, v) -- empty when
  // the pair can run (core/static_ropes.h), so batched admission reports
  // the same string run_gpu_sim would throw.
  [[nodiscard]] virtual std::string variant_ineligible_reason(
      Variant v) const = 0;

  // The section-4.4 similarity sampler (auto_select resolution).
  [[nodiscard]] virtual ProfileReport profile(std::size_t samples,
                                              std::uint64_t seed) const = 0;

  // Prepare a TypedLaunchRun in `space` (same buffer names and addresses
  // as run_gpu_sim). `mode` must be resolved -- throws
  // std::invalid_argument on a mode still carrying auto_select.
  [[nodiscard]] virtual std::unique_ptr<LaunchRun> prepare(
      GpuAddressSpace& space, const DeviceConfig& cfg, const GpuMode& mode,
      obs::TraceSink* trace, obs::ProfileSink* profile,
      std::uint32_t kernel_id) const = 0;
};

template <NamedTraversalKernel K>
class TypedKernelHandle final : public KernelHandle {
 public:
  explicit TypedKernelHandle(const K& k,
                             std::shared_ptr<const void> keep_alive = nullptr)
      : k_(&k), keep_alive_(std::move(keep_alive)) {}

  [[nodiscard]] const char* name() const override { return K::kName; }
  [[nodiscard]] std::size_t num_points() const override {
    return k_->num_points();
  }
  [[nodiscard]] int stack_bound() const override { return k_->stack_bound(); }
  [[nodiscard]] std::size_t result_stride() const override {
    return sizeof(typename K::Result);
  }

  [[nodiscard]] std::string variant_ineligible_reason(Variant v) const override {
    return kernel_variant_ineligible_reason(*k_, v);
  }

  [[nodiscard]] ProfileReport profile(std::size_t samples,
                                      std::uint64_t seed) const override {
    return profile_similarity(*k_, samples, seed);
  }

  [[nodiscard]] std::unique_ptr<LaunchRun> prepare(
      GpuAddressSpace& space, const DeviceConfig& cfg, const GpuMode& mode,
      obs::TraceSink* trace, obs::ProfileSink* profile,
      std::uint32_t kernel_id) const override {
    if (mode.variant == Variant::kAutoSelect)
      throw std::invalid_argument(
          "KernelHandle::prepare: mode still carries auto_select; resolve "
          "the launch decision first (resolve_mode does)");
    return std::make_unique<TypedLaunchRun<K>>(*k_, space, cfg, mode, trace,
                                               profile, kernel_id);
  }

 private:
  const K* k_;
  std::shared_ptr<const void> keep_alive_;  // optional owner of *k_'s data
};

template <NamedTraversalKernel K>
[[nodiscard]] std::shared_ptr<KernelHandle> make_kernel_handle(
    const K& k, std::shared_ptr<const void> keep_alive = nullptr) {
  return std::make_shared<TypedKernelHandle<K>>(k, std::move(keep_alive));
}

// One element of a batched launch.
struct LaunchSpec {
  std::shared_ptr<KernelHandle> kernel;
  // The launch's address space. Must hold the same buffers the kernel's
  // solo run registered (tree + points), so arena addresses -- and
  // therefore every modelled memory event -- match the solo run.
  GpuAddressSpace* space = nullptr;
  // May carry auto_select; run_launch_pool resolves it per launch through
  // KernelHandle::profile with the mode's profile_samples/profile_seed.
  GpuMode mode;
  obs::TraceSink* trace = nullptr;      // optional per-launch trace
  obs::ProfileSink* profile = nullptr;  // optional per-launch profiler
};

// Type-erased per-launch measurement of a batched run. Mirrors GpuRun<K>
// with raw result bytes instead of a typed vector; stats / time /
// selection stay isolated per launch (only transfer accounting is
// batch-level, see batch_scheduler.h).
struct LaunchResult {
  std::string kernel_name;
  std::size_t batch_index = 0;
  Variant variant = Variant::kAutoNolockstep;  // executed composition
  KernelStats stats;
  TimeBreakdown time;
  std::size_t n_points = 0;
  std::size_t n_warps = 0;
  std::vector<std::byte> results;  // n_points * result_stride bytes
  std::size_t result_stride = 0;
  std::vector<std::uint32_t> per_point_visits;
  std::vector<std::uint32_t> per_warp_pops;
  std::optional<SelectionInfo> selection;
  // Set when the spec carried a ProfileSink: the launch's cycle-attribution
  // profile (obs/profile.h), sampling charge included for auto_select.
  std::optional<obs::ProfileReport> profile;
  // Empty on success; "kernel <name> (batch <i>): ..." on failure. A
  // failed launch's numbers are zeroed; sibling launches stay valid.
  std::string error;
  [[nodiscard]] bool ok() const { return error.empty(); }

  // Typed view of the result bytes; null when R does not match the stride.
  template <class R>
  [[nodiscard]] const R* results_as() const {
    if (sizeof(R) != result_stride) return nullptr;
    return reinterpret_cast<const R*>(results.data());
  }

  // The paper's "Avg. # Nodes" column (same split as GpuRun).
  [[nodiscard]] double avg_nodes() const {
    if (!per_warp_pops.empty()) {
      double s = 0;
      for (auto v : per_warp_pops) s += v;
      return s / static_cast<double>(per_warp_pops.size());
    }
    double s = 0;
    for (auto v : per_point_visits) s += v;
    return per_point_visits.empty()
               ? 0
               : s / static_cast<double>(per_point_visits.size());
  }
};

}  // namespace tt
