// Multi-device sharding layer: split one LaunchSpec's point range across N
// simulated devices (ROADMAP "multi-SM / multi-device sharding with async
// transfer overlap"; the runtime-level sibling of Sakka & Kulkarni's
// compiler-level traversal fusion -- one residency's work spread over N
// devices instead of N traversals fused into one residency).
//
// The boundary (DESIGN.md section 3.4):
//
//   - The *canonical measurement* stays single-device: run_sharded first
//     executes the spec through run_launch_pool (which resolves
//     auto_select and charges the sampling), and that launch's results,
//     counters, stats and TimeBreakdown are the baseline every sharded
//     number is compared against (single_device_ms = baseline compute +
//     one synchronous round trip).
//   - Chunks (logical 32-point warps) are assigned to devices by
//     assign_devices (core/batch_scheduler.h) using the baseline's own
//     visit counters as modelled chunk costs -- kWorkStealing's greedy
//     earliest-finish by default.
//   - Each device then re-executes exactly its chunk list through
//     LaunchRun::run_chunk_list with its own result/counter storage, its
//     own L2 slice size (derived from the device's own grid), its own
//     KernelStats and its own modelled clock (per-device TimeBreakdown +
//     PipelinedTransfer). Devices share nothing but the read-only address
//     space.
//   - Results merge back in canonical point order: every logical warp's
//     result bytes and visit counters are copied from its owning device's
//     arrays into the merged LaunchResult, which is byte-identical to the
//     single-device run for every variant and device count (pinned by
//     tests/core/device_group_test.cpp and the variant fuzzer's sharded
//     axis).
//
// Per-device time uses the pipelined transfer mode
// (TransferModel::pipelined_round_trip): the device's share of the upload
// is strip-mined into chunk_points-sized pieces whose copy-in overlaps
// compute, so busy_ms = exposed transfer + compute. The group's makespan
// is the slowest device's busy time; speedup = single_device_ms /
// makespan_ms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/batch_scheduler.h"
#include "simt/transfer_model.h"

namespace tt {

namespace obs {
class ChromeTraceCollector;  // obs/chrome_trace.h
}

struct DeviceGroupConfig {
  std::size_t devices = 1;
  DeviceConfig device;  // every simulated device's model (homogeneous group)
  TransferModel transfer;
  // Chunk -> device assignment policy (assign_devices). kWorkStealing is
  // the greedy earliest-finish default; round_robin / sequential are the
  // home-assignment baselines.
  BatchPolicy policy = BatchPolicy::kWorkStealing;
  // Pipelined upload granularity: points per copy-in chunk. Larger chunks
  // mean fewer, coarser copies (less overlap); <= 1 degenerates to one
  // point per chunk.
  std::size_t chunk_points = 1024;
  // When set, every device opens a Chrome-trace track "dev<d>/<kernel>"
  // carrying its warp activity plus one launch-scope kCopy event per
  // pipelined upload chunk, so copy/compute overlap is visible per device
  // in Perfetto.
  obs::ChromeTraceCollector* chrome = nullptr;
};

// One device's share of a sharded launch.
struct DeviceShard {
  std::size_t device = 0;
  std::size_t chunks = 0;  // logical warps assigned
  std::size_t points = 0;
  std::size_t rounds = 0;  // residency refills: ceil(chunks / grid)
  std::size_t steals = 0;  // chunks taken off their home device
  double cost = 0;         // modelled assignment cost (visit-count units)
  std::uint64_t upload_bytes = 0;    // the device's share of the upload
  std::uint64_t download_bytes = 0;  // ... and of the results coming back
  KernelStats stats;       // isolated per-device counters
  TimeBreakdown time;      // per-device cost-model estimate
  PipelinedTransfer transfer;  // chunked copy-in overlapping compute
  double busy_ms = 0;      // transfer.total_ms (the device's modelled clock)
};

// A sharded run: the merged canonical-order result plus per-device
// accounting. `merged` carries the single-device baseline's stats / time /
// selection (the canonical measurement) with results and visit counters
// assembled from the devices' own arrays -- byte-identical to the
// baseline's by the sharding contract.
struct ShardedRun {
  LaunchResult merged;
  std::vector<DeviceShard> devices;
  std::size_t chunk_points = 0;
  BatchPolicy policy = BatchPolicy::kWorkStealing;
  double single_device_ms = 0;  // baseline compute + synchronous round trip
  double makespan_ms = 0;       // slowest device's busy time
  double speedup = 0;           // single_device_ms / makespan_ms

  [[nodiscard]] double copy_in_ms() const;   // summed over devices
  [[nodiscard]] double overlap_ms() const;   // transfer hidden under compute
  [[nodiscard]] double exposed_ms() const;   // transfer still on the timeline
};

// Shard `spec` across cfg.devices simulated devices. Resolves auto_select
// once (the baseline run), assigns chunks by modelled cost under
// cfg.policy, executes each device's chunk list in isolation
// and merges results in canonical point order. Throws std::invalid_argument
// on a missing kernel/space or cfg.devices == 0. A baseline failure (rope
// stack overflow) reports through merged.error with no device execution.
[[nodiscard]] ShardedRun run_sharded(const LaunchSpec& spec,
                                     std::uint64_t upload_bytes,
                                     std::uint64_t download_bytes,
                                     const DeviceGroupConfig& cfg);

// ---------------------------------------------------------------------
// Report-facing bundle (obs/run_report.h schema-v6 "devices" block).
// ---------------------------------------------------------------------

// One kernel's sharded run, as the report serializes it.
struct ShardingKernelReport {
  std::string kernel_name;
  std::size_t n_points = 0;
  std::size_t n_chunks = 0;  // logical warps
  Variant variant = Variant::kAutoNolockstep;  // executed composition
  double single_device_ms = 0;
  double makespan_ms = 0;
  double speedup = 0;
  std::vector<DeviceShard> devices;
  std::string error;  // empty on success
  [[nodiscard]] bool ok() const { return error.empty(); }
};

// One point of the devices x chunk-size sweep (aggregated over the pool).
struct ShardingSweepPoint {
  std::size_t devices = 0;
  std::size_t chunk_points = 0;
  double single_device_ms = 0;  // summed over the pool
  double makespan_ms = 0;       // summed per-kernel makespans
  double speedup = 0;
  double copy_in_ms = 0;
  double overlap_ms = 0;
  double exposed_ms = 0;
  double overlap_efficiency = 0;  // overlap / copy-in (0 when no copy-in)
};

// Everything the RunReport "devices" block serializes.
struct ShardingRunSummary {
  std::size_t devices = 1;
  std::size_t chunk_points = 0;
  BatchPolicy policy = BatchPolicy::kWorkStealing;
  Variant variant = Variant::kAutoSelect;  // the submitted composition
  TransferModel transfer;
  std::vector<ShardingKernelReport> kernels;
  std::vector<ShardingSweepPoint> sweep;

  [[nodiscard]] double single_device_ms() const;  // summed over kernels
  [[nodiscard]] double makespan_ms() const;
  [[nodiscard]] double speedup() const;
};

}  // namespace tt
