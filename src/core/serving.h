// Admission--dispatch layer over the type-erased launch API: the serving
// redesign of the batching surface (ROADMAP "sustained production
// traffic"; the metalfpga scheduler-VM sketch of "batch phases into one
// launch, minimize sync points" at the workload level).
//
// The one-shot run_gpu_batch(specs) entry point modelled a world where
// every query exists up front. Serving does not: queries arrive over
// time, and the interesting measurements are throughput, per-query
// latency percentiles and queue telemetry under an arrival process. The
// API here splits the old free function into the three pieces that world
// needs (DESIGN.md section 3.3):
//
//   run_launch_pool(specs, cfg)
//     The dispatch layer: the (launch, slot) concurrent-residency pool
//     that used to be run_gpu_batch's body. Resolves auto_select per
//     launch, simulates every slot, returns per-launch isolated
//     LaunchResults plus their shapes. Pure execution -- no policy, no
//     schedule accounting, no timing model.
//
//   ServingSession
//     The admission layer: a session object owning a ring-buffer
//     admission queue. submit(QuerySet, arrival_ms) enqueues work in
//     arrival order; the session drains on a configurable cadence
//     (DrainPolicy: max-batch-size / max-delay), dispatches each drained
//     wave through BatchScheduler + run_launch_pool, and derives
//     per-query completion times from the simulated cost model:
//     queueing delay (dispatch - arrival, including waiting for the
//     device to go idle) + the wave's amortized transfer + the launch's
//     modelled compute. Identical resubmissions of a (kernel, mode) pair
//     replay the first execution's measurements -- exact, because
//     batching is results-neutral by construction -- which is what makes
//     million-query traces affordable.
//
//   run_gpu_batch(specs, cfg, policy)
//     The legacy closed-batch shape, now a thin adapter: one session,
//     everything submitted at t=0, drained as a single wave. Byte-
//     identical to the pre-session implementation (pinned by
//     tests/core/batch_scheduler_test.cpp and the CI determinism job).
//
// All times on this layer are *modelled* milliseconds (cost model +
// TransferModel), so every serving number is deterministic for a given
// seed and byte-identical across OMP_NUM_THREADS settings.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_scheduler.h"
#include "simt/device_config.h"
#include "simt/transfer_model.h"
#include "util/stats.h"

namespace tt {

namespace obs {
class ChromeTraceCollector;  // obs/chrome_trace.h
}

// ---------------------------------------------------------------------
// Dispatch layer: the concurrent-residency slot pool.
// ---------------------------------------------------------------------

// Result of simulating a set of LaunchSpecs as one device residency:
// per-launch isolated measurements (LaunchResult order == spec order)
// plus each launch's geometry, which the caller feeds to BatchScheduler
// for schedule accounting.
struct LaunchPool {
  std::vector<LaunchResult> launches;
  std::vector<LaunchGeometry> shapes;
  double sim_wall_ms = 0;  // host cost of the simulation (diagnostic)
};

// Simulate every spec's slots in one OpenMP pool. auto_select modes are
// resolved per launch (sampling charged to that launch's cost model);
// overflow reports through LaunchResult::error without poisoning sibling
// launches. Throws std::invalid_argument on a spec missing its kernel or
// space, or on auto_select with profile_samples == 0.
[[nodiscard]] LaunchPool run_launch_pool(std::span<const LaunchSpec> specs,
                                         const DeviceConfig& cfg);

// ---------------------------------------------------------------------
// Admission layer.
// ---------------------------------------------------------------------

// One unit of admitted work: a prepared kernel over its own address
// space, plus the bytes it ships across the bus (accounted per drained
// wave: one amortized round trip for the wave, vs one per query solo).
struct QuerySet {
  LaunchSpec spec;
  std::uint64_t upload_bytes = 0;
  std::uint64_t download_bytes = 0;
};

// When a pending wave dispatches: as soon as `max_batch` queries are
// queued, or when the oldest pending query has waited `max_delay_ms` of
// modelled time -- whichever comes first. The knob IS the serving
// trade-off: a longer delay forms bigger waves (fewer launch overheads,
// better transfer amortization) at the price of queueing latency.
struct DrainPolicy {
  std::size_t max_batch = 8;
  double max_delay_ms = 0.25;
};

struct ServingConfig {
  DeviceConfig device;
  // Simulated device count. Each drained wave dispatches to the
  // least-loaded device (earliest free, ties to the lowest index), so
  // open-loop throughput scales with the group size while per-wave
  // batching semantics stay unchanged. 1 keeps the single-device model
  // byte-for-byte.
  std::size_t devices = 1;
  // Pipelined wave uploads: when > 0, each drained wave's copy-in is
  // strip-mined into ceil(wave points / shard_chunk) chunks overlapped
  // with the wave's compute (simt/transfer_model.h pipelined mode), and
  // DrainRecord::transfer_ms records only the *exposed* portion. 0 keeps
  // the synchronous single-shot round trip byte-for-byte.
  std::size_t shard_chunk = 0;
  BatchPolicy policy = BatchPolicy::kRoundRobin;
  DrainPolicy drain;
  TransferModel transfer;
  // Ring-buffer admission queue capacity; a submit that finds the ring
  // full is dropped (counted, never silently).
  std::size_t queue_capacity = 4096;
  // Replay cached measurements for identical (kernel, mode) resubmissions
  // instead of re-simulating. Exact by the results-neutrality contract;
  // queries carrying their own trace/profile sinks always execute.
  bool reuse_identical = true;
  // Keep the drained wave's full BatchRun (results bytes included) for
  // take_closed_run() -- the closed-batch adapter path. Serving traffic
  // leaves this off so million-query runs keep only scalar telemetry.
  bool keep_batch_results = false;
  // When set, each drained wave's executed launches open Chrome-trace
  // tracks named "drain<i>/<kernel>", so admission waves are visible as
  // per-drain process tracks in Perfetto.
  obs::ChromeTraceCollector* chrome = nullptr;
  std::size_t max_drain_tracks = 32;  // cap on traced drains

  // The closed-batch shape: everything admitted up front, one wave.
  [[nodiscard]] static ServingConfig closed_batch(const DeviceConfig& device,
                                                  BatchPolicy policy,
                                                  std::size_t n_specs);
};

// Latency distribution over modelled per-query times.
struct LatencySummary {
  std::size_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
};

// percentile() over one sorted pass; linear interpolation (util/stats.h).
[[nodiscard]] LatencySummary summarize_latency(std::vector<double> xs);

// One drained wave's accounting.
struct DrainRecord {
  double trigger_ms = 0;   // when the size/delay policy fired
  double dispatch_ms = 0;  // max(trigger, chosen device became idle)
  std::size_t device = 0;  // least-loaded device the wave dispatched to
  std::size_t n_queries = 0;
  std::size_t queue_depth_before = 0;  // pending count when fired
  std::size_t cold_launches = 0;       // executed (vs cache-replayed)
  // One amortized round trip for the wave; under pipelined uploads
  // (ServingConfig::shard_chunk > 0) only the exposed, non-overlapped
  // portion -- service_ms = transfer_ms + compute_ms either way.
  double transfer_ms = 0;
  double solo_transfer_ms = 0;  // what the same queries pay one-by-one
  double compute_ms = 0;        // sum of the wave's modelled kernel times
  double service_ms = 0;        // transfer + compute (device busy time)
  // BatchSchedule accounting over the wave under ServingConfig::policy.
  std::size_t residency = 0;
  std::size_t total_chunks = 0;
  std::size_t rounds = 0;
  std::size_t switches = 0;
};

struct ServingReport {
  std::size_t devices = 1;     // simulated devices serving the session
  std::size_t shard_chunk = 0;  // pipelined upload chunk (0 = single-shot)
  std::size_t submitted = 0;
  std::size_t completed = 0;  // admitted and served (failures included)
  std::size_t dropped = 0;    // ring buffer full at submit
  std::size_t failed = 0;     // served but errored (e.g. stack overflow)
  double first_arrival_ms = 0;
  double last_completion_ms = 0;
  double busy_ms = 0;  // total device service time
  std::size_t queue_depth_max = 0;
  Summary queue_depth;  // depth observed after each admit
  LatencySummary latency;      // completion - arrival
  LatencySummary queue_delay;  // dispatch - arrival
  std::vector<DrainRecord> drains;

  [[nodiscard]] double span_ms() const {
    return last_completion_ms > first_arrival_ms
               ? last_completion_ms - first_arrival_ms
               : 0;
  }
  [[nodiscard]] double throughput_qps() const {
    return span_ms() > 0 ? static_cast<double>(completed) / span_ms() * 1e3
                         : 0;
  }
  [[nodiscard]] double occupancy() const {
    // Busy time over the group's total capacity (span x devices).
    return span_ms() > 0
               ? busy_ms / (span_ms() * static_cast<double>(devices))
               : 0;
  }
  [[nodiscard]] double amortized_transfer_ms() const;
  [[nodiscard]] double summed_solo_transfer_ms() const;
};

// The session object. Lifecycle: submit(...) in non-decreasing arrival
// order, then flush() to drain the tail, then report(). Virtual time
// advances with the submitted arrival stamps; drains fire lazily as
// submissions (or flush) move time past their trigger. A wave that is
// size-triggered admits exactly the queries that formed it -- later
// arrivals wait for the next wave even if the device is still busy.
class ServingSession {
 public:
  explicit ServingSession(ServingConfig cfg);

  // Enqueue one query set at `arrival_ms` (modelled). Returns false when
  // the ring buffer is full and the query was dropped. Throws
  // std::invalid_argument on a missing kernel/space or on an arrival
  // stamp earlier than the previous submit.
  bool submit(QuerySet q, double arrival_ms);

  // Drain everything still pending (each residual wave fires at its
  // max-delay deadline, as if the timer expired after the last arrival).
  void flush();

  [[nodiscard]] std::size_t pending() const { return count_; }

  // Aggregate telemetry + percentiles over everything served so far.
  [[nodiscard]] ServingReport report() const;

  // Per-query modelled times, in completion order (tests; also the raw
  // series behind report()'s percentiles).
  [[nodiscard]] const std::vector<double>& latencies_ms() const {
    return latencies_;
  }
  [[nodiscard]] const std::vector<double>& queue_delays_ms() const {
    return queue_delays_;
  }

  // Closed-batch adapter support: the last drained wave's full BatchRun.
  // Only populated under ServingConfig::keep_batch_results; throws
  // std::logic_error otherwise.
  [[nodiscard]] BatchRun take_closed_run();

 private:
  struct Pending {
    QuerySet q;
    double arrival_ms = 0;
  };
  // Replayed measurement for an identical (kernel, mode) resubmission.
  // Holds the handle alive: the cache is keyed by the KernelHandle's
  // address, which is only a sound identity while that object exists --
  // without the keepalive, a recycled allocation could alias a dead
  // handle's key and replay the wrong kernel's measurements.
  struct CachedLaunch {
    std::shared_ptr<KernelHandle> keepalive;
    LaunchGeometry shape;
    Variant variant = Variant::kAutoNolockstep;
    double total_ms = 0;
    bool ok = true;
  };
  // The whole GpuMode: equal modes simulate identically, and any field
  // left out would let two different launches replay each other.
  using CacheKey = std::pair<const KernelHandle*, GpuMode>;
  static CacheKey cache_key(const LaunchSpec& spec);

  void advance_to(double now_ms);
  void fire(double trigger_ms);
  [[nodiscard]] const Pending& front() const { return ring_[head_]; }
  Pending pop_front();

  ServingConfig cfg_;
  std::vector<Pending> ring_;  // fixed-capacity ring buffer
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  double last_arrival_ms_ = 0;
  std::vector<double> device_free_ms_;  // per-device modelled idle time
  bool any_arrival_ = false;

  std::map<CacheKey, CachedLaunch> cache_;

  // Telemetry accumulators (scalars + per-drain records only, so memory
  // stays O(queries served) * 16 bytes even for million-query traces).
  std::size_t submitted_ = 0;
  std::size_t dropped_ = 0;
  std::size_t failed_ = 0;
  double first_arrival_ms_ = 0;
  double last_completion_ms_ = 0;
  double busy_ms_ = 0;
  std::size_t queue_depth_max_ = 0;
  RunningStats queue_depth_stats_;
  std::vector<double> latencies_;
  std::vector<double> queue_delays_;
  std::vector<DrainRecord> drains_;
  std::optional<BatchRun> closed_run_;
};

// ---------------------------------------------------------------------
// Open-loop arrival traces (modelled milliseconds, Pcg32-deterministic).
// ---------------------------------------------------------------------

// Poisson process: exponential inter-arrivals at `rate_qps` (queries per
// modelled second). Throws std::invalid_argument on rate_qps <= 0.
[[nodiscard]] std::vector<double> poisson_trace(std::size_t n,
                                                double rate_qps,
                                                std::uint64_t seed);

// On-off modulated Poisson: arrivals at `on_rate_qps` during `on_ms`
// windows, silence for `off_ms` between them (burst traffic). Throws
// std::invalid_argument on a non-positive rate or window.
[[nodiscard]] std::vector<double> bursty_trace(std::size_t n,
                                               double on_rate_qps,
                                               double on_ms, double off_ms,
                                               std::uint64_t seed);

// ---------------------------------------------------------------------
// Report-facing bundle (obs/run_report.h schema-v5 "serving" block).
// ---------------------------------------------------------------------

// One point of the drain-cadence sweep: the batching-delay vs transfer-
// amortization trade-off at a fixed max_delay_ms.
struct ServingSweepPoint {
  double max_delay_ms = 0;
  std::size_t max_batch = 0;
  std::size_t drains = 0;
  double mean_batch = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double throughput_qps = 0;
  double transfer_saved_ms = 0;  // summed-solo minus amortized transfer
};

// Everything the RunReport "serving" block serializes: the scenario, the
// headline session's report, and the optional cadence sweep.
struct ServingRunSummary {
  std::string arrivals;  // "poisson" | "bursty"
  double rate_qps = 0;
  std::size_t n_queries = 0;
  std::size_t devices = 1;
  std::size_t shard_chunk = 0;
  DrainPolicy drain;
  BatchPolicy policy = BatchPolicy::kRoundRobin;
  Variant variant = Variant::kAutoSelect;
  std::size_t queue_capacity = 0;
  TransferModel transfer;
  ServingReport report;
  std::vector<ServingSweepPoint> sweep;
};

}  // namespace tt
