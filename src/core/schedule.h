// Variant selection and launch-shape helpers: the decision procedure the
// paper's system applies before launching a traversal kernel.
//
//   1. static call-set analysis says unguided (lockstep always legal) or
//      guided (lockstep legal only with the section-4.3 equivalence
//      annotation);
//   2. the runtime profiler says whether the input looks sorted;
//   3. lockstep is chosen iff legal and sorted-looking (section 4.4).
#pragma once

#include <cstddef>

#include "core/gpu_executors.h"
#include "core/ir/callset_analysis.h"
#include "core/profiler.h"
#include "simt/device_config.h"

namespace tt {

struct VariantDecision {
  bool lockstep = false;
  bool legal_lockstep = false;
  double profiled_similarity = 0;
  [[nodiscard]] GpuMode mode() const {
    return GpuMode::from(lockstep ? Variant::kAutoLockstep
                                  : Variant::kAutoNolockstep);
  }
};

// Combine the static analysis of the kernel's IR description with a
// runtime similarity profile of the actual input.
template <TraversalKernel K>
VariantDecision decide_variant(const K& k, const ir::AnalysisReport& report,
                               bool callsets_annotated_equivalent,
                               std::size_t profile_samples = 32,
                               std::uint64_t seed = 1) {
  VariantDecision d;
  d.legal_lockstep =
      report.lockstep_eligible ||
      (report.call_sets.size() > 1 && callsets_annotated_equivalent);
  ProfileReport p = profile_similarity(k, profile_samples, seed);
  d.profiled_similarity = p.mean_similarity;
  d.lockstep = d.legal_lockstep && p.looks_sorted;
  return d;
}

struct LaunchShape {
  std::size_t n_warps = 0;
  std::size_t resident_warps = 0;     // bounded by occupancy
  std::size_t smem_stack_bytes = 0;   // lockstep per-warp stack footprint
  bool smem_fits = true;
};

LaunchShape launch_shape(std::size_t n_points, int stack_bound,
                         std::size_t warp_entry_bytes,
                         const DeviceConfig& cfg);

}  // namespace tt
