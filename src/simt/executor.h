// Warp-parallel simulation driver.
//
// Warps are mutually independent in the machine model (each owns a private
// L2 slice, see l2cache.h), so the host parallelizes across them with
// OpenMP and merges per-warp stats deterministically afterwards. The
// traversal-variant-specific warp loops live in core/gpu_executors.h; this
// header only knows how to fan warps out and collect counters.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include <omp.h>

#include "simt/device_config.h"
#include "simt/kernel_stats.h"
#include "simt/l2cache.h"

namespace tt {

// The L2 slice each of a launch's `n_warps` physical warps owns: the L2
// split across the warps that can be resident at once. Every fan-out
// (solo, pooled, sharded) sizes its slices with this one formula, which
// is part of what keeps their numbers byte-identical.
[[nodiscard]] inline std::size_t l2_slice_bytes(const DeviceConfig& cfg,
                                                std::size_t n_warps) {
  const std::size_t resident =
      std::min<std::size_t>(n_warps == 0 ? 1 : n_warps,
                            static_cast<std::size_t>(cfg.max_resident_warps()));
  return cfg.l2_bytes / resident;
}

// fn(warp_index, stats, l2_slice_or_null) simulates one warp. Returns the
// per-warp stats so cost models can account for inter-warp load imbalance.
template <class WarpFn>
std::vector<KernelStats> run_warps(std::size_t n_warps,
                                   const DeviceConfig& cfg, WarpFn&& fn) {
  std::vector<KernelStats> per_warp(n_warps);
  const std::size_t slice_bytes = l2_slice_bytes(cfg, n_warps);

#pragma omp parallel
  {
    // One reusable slice per host thread; reset between warps.
    L2Cache slice(slice_bytes, cfg.l2_line_bytes, cfg.l2_assoc);
#pragma omp for schedule(dynamic, 8)
    for (std::int64_t w = 0; w < static_cast<std::int64_t>(n_warps); ++w) {
      slice.clear();
      fn(static_cast<std::size_t>(w), per_warp[static_cast<std::size_t>(w)],
         cfg.model_l2 ? &slice : nullptr);
    }
  }
  return per_warp;
}

inline KernelStats merge_stats(const std::vector<KernelStats>& per_warp) {
  KernelStats total;
  for (const KernelStats& s : per_warp) total.merge(s);
  return total;
}

inline std::vector<double> instr_cycles_of(
    const std::vector<KernelStats>& per_warp) {
  std::vector<double> cycles;
  cycles.reserve(per_warp.size());
  for (const KernelStats& s : per_warp) cycles.push_back(s.instr_cycles);
  return cycles;
}

}  // namespace tt
