// Open-loop serving of a job list through one ServingSession.
//
// The query stream (which job each query runs) and several Poisson arrival
// traces for it (offsets at 1 query per modelled second) are fixed by the
// caller. A phase serves the stream once per trace at one rate, the traces
// back to back, each drained before the next, so a percentile rests on
// traces x queries samples; a phase starts after the previous one has
// fully drained. A session first runs the nominal-rate phase, then phases
// at other rates to find the highest rate that meets the p99 limit. Only
// the nominal phase's first trace meets cold query sets; everything after
// it is served by warm replay, which is exact. Arrivals are stamped in modelled time, so
// the generator is never late; the host submits as fast as it can.
#pragma once

#include <cstdint>
#include <vector>

#include "core/serving.h"
#include "jobs.h"
#include "tracer.h"

namespace pb {

// Queries per timed block of the first trace (see PhaseStats).
inline constexpr std::size_t kHostBlock = 50;
// Simulated devices serving every session.
inline constexpr std::size_t kServeDevices = 2;

struct ServeConfig {
  std::size_t shard_chunk = 0;  // pipelined copy-in chunk (points)
  double nominal_qps = 0;
  double p99_limit_ms = 0;
  // Extra servings of the nominal phase's first trace, each in a fresh
  // session, so a short cold trace gives serve_queries_per_s more host
  // samples per pass.
  std::size_t cold_repeats = 0;
};

struct PhaseStats {
  double rate_qps = 0;
  std::size_t queries = 0;  // over all traces
  std::size_t stream = 0;   // queries per trace
  std::size_t dropped = 0;
  std::size_t failed = 0;
  tt::LatencySummary latency;      // completion - arrival
  tt::LatencySummary queue_delay;  // dispatch - arrival
  double span_ms = 0;  // first arrival to last completion
  std::size_t drains = 0;
  std::size_t cold_launches = 0;
  double exposed_transfer_ms = 0;
  double busy_ms = 0;
  // Host seconds of the first trace's submits, per block of
  // kHostBlock queries (cold launches fire inside submit); the last block
  // includes the flush that fires the trace's final waves.
  std::vector<double> block_host_s;
  // No drops or failures, p99 within the limit, and no growing backlog.
  bool meets = false;

  [[nodiscard]] double occupancy() const {
    return span_ms > 0
               ? busy_ms / (span_ms * static_cast<double>(kServeDevices))
               : 0;
  }
};

struct ServeResult {
  PhaseStats nominal;
  std::vector<PhaseStats> search;  // rate-search phases, in run order
  // The nominal first trace served again cold (ServeConfig::cold_repeats):
  // queries, drops, failures and block_host_s only.
  std::vector<PhaseStats> cold_repeats;
  double max_qps = 0;              // highest rate found that meets the limit
  std::uint64_t digest = 0;        // every modelled per-query time
};

// `picks[i]` indexes `jobs`; `traces[t][i]` is query i's arrival at 1 qps
// in trace t (every trace has picks.size() entries).
[[nodiscard]] ServeResult serve(
    const std::vector<const Job*>& jobs, const std::vector<std::size_t>& picks,
    const std::vector<std::vector<double>>& traces, const ServeConfig& cfg,
    Tracer* tr);

}  // namespace pb
