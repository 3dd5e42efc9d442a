#include "core/serving.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>

#include "obs/chrome_trace.h"
#include "simt/executor.h"
#include "simt/l2cache.h"
#include "util/rng.h"
#include "util/timer.h"

namespace tt {

// ---------------------------------------------------------------------
// Dispatch layer (the body that used to be run_gpu_batch).
// ---------------------------------------------------------------------

LaunchPool run_launch_pool(std::span<const LaunchSpec> specs,
                           const DeviceConfig& cfg) {
  LaunchPool out;

  struct Prep {
    ResolvedMode resolved;
    std::unique_ptr<LaunchRun> run;
    std::vector<KernelStats> per_slot;
    std::size_t slice_bytes = 0;
    std::string error;  // admission failure (variant ineligible); run == null
  };
  std::vector<Prep> preps(specs.size());

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const LaunchSpec& spec = specs[i];
    if (!spec.kernel || !spec.space)
      throw std::invalid_argument("run_launch_pool: LaunchSpec " +
                                  std::to_string(i) +
                                  " is missing its kernel or address space");
    Prep& pr = preps[i];
    pr.resolved = resolve_mode(
        spec.mode, cfg, "run_launch_pool",
        [&](std::size_t samples, std::uint64_t seed) {
          return spec.kernel->profile(samples, seed);
        });
    const std::string why =
        spec.kernel->variant_ineligible_reason(pr.resolved.mode.variant);
    if (!why.empty()) {
      // Isolation, like an overflow: this launch fails with a prefixed
      // error and zeroed numbers; sibling launches still execute. The
      // message body is the canonical reason string (core/static_ropes.h),
      // same spelling run_gpu_sim and the harness skip rows use.
      pr.error = std::string("kernel ") + spec.kernel->name() + " (batch " +
                 std::to_string(i) + "): " + why;
      out.shapes.push_back(LaunchGeometry{});
      continue;
    }
    pr.run = spec.kernel->prepare(*spec.space, cfg, pr.resolved.mode,
                                  spec.trace, spec.profile,
                                  static_cast<std::uint32_t>(i));
    pr.per_slot.assign(pr.run->shape.grid, KernelStats{});
    pr.slice_bytes = l2_slice_bytes(cfg, pr.run->shape.grid);
    out.shapes.push_back(pr.run->shape);
  }

  // The concurrent-residency pool: every launch's physical warp slots,
  // simulated in parallel. Slot state is fully launch-private, so OpenMP
  // scheduling (and the caller's issue policy) cannot change any launch's
  // measurements -- only the schedule accounting differs across policies.
  struct Slot {
    std::uint32_t launch = 0;
    std::uint32_t p = 0;
  };
  std::vector<Slot> slots;
  for (std::size_t i = 0; i < preps.size(); ++i)
    for (std::size_t p = 0; preps[i].run && p < preps[i].run->shape.grid; ++p)
      slots.push_back(Slot{static_cast<std::uint32_t>(i),
                           static_cast<std::uint32_t>(p)});

  WallTimer timer;
#pragma omp parallel for schedule(dynamic, 1)
  for (std::int64_t si = 0; si < static_cast<std::int64_t>(slots.size());
       ++si) {
    const Slot sl = slots[static_cast<std::size_t>(si)];
    Prep& pr = preps[sl.launch];
    if (cfg.model_l2) {
      L2Cache slice(pr.slice_bytes, cfg.l2_line_bytes, cfg.l2_assoc);
      pr.run->run_slot(sl.p, pr.per_slot[sl.p], &slice);
    } else {
      pr.run->run_slot(sl.p, pr.per_slot[sl.p], nullptr);
    }
  }
  out.sim_wall_ms = timer.elapsed_ms();

  out.launches.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Prep& pr = preps[i];
    const LaunchSpec& spec = specs[i];
    LaunchResult r;
    r.kernel_name = spec.kernel->name();
    r.batch_index = i;
    r.variant = pr.resolved.mode.variant;
    if (!pr.run) {
      r.result_stride = spec.kernel->result_stride();
      r.error = pr.error;
      out.launches.push_back(std::move(r));
      continue;
    }
    r.n_points = pr.run->shape.n;
    r.n_warps = pr.run->shape.n_warps;
    r.result_stride = pr.run->result_stride();
    LaunchTotals t = finish_launch(*pr.run, pr.per_slot, pr.resolved.selection,
                                   cfg, spec.trace, spec.profile);
    if (!t.overflow.empty()) {
      // Isolation: this launch fails with a name+index-prefixed error and
      // zeroed numbers; sibling launches are untouched.
      r.error = std::string("kernel ") + r.kernel_name + " (batch " +
                std::to_string(i) + "): rope stack overflow (" + t.overflow +
                ")";
      out.launches.push_back(std::move(r));
      continue;
    }
    r.stats = std::move(t.stats);
    r.time = t.time;
    r.selection = pr.resolved.selection;
    r.profile = std::move(t.profile);
    const std::byte* data =
        static_cast<const std::byte*>(pr.run->result_data());
    r.results.assign(data, data + r.n_points * r.result_stride);
    r.per_point_visits = std::move(pr.run->per_point_visits);
    r.per_warp_pops = std::move(pr.run->per_warp_pops);
    out.launches.push_back(std::move(r));
  }
  return out;
}

// ---------------------------------------------------------------------
// Admission layer.
// ---------------------------------------------------------------------

ServingConfig ServingConfig::closed_batch(const DeviceConfig& device,
                                          BatchPolicy policy,
                                          std::size_t n_specs) {
  ServingConfig c;
  c.device = device;
  c.policy = policy;
  c.drain.max_batch = std::numeric_limits<std::size_t>::max();
  c.drain.max_delay_ms = 0;
  c.queue_capacity = std::max<std::size_t>(n_specs, 1);
  c.reuse_identical = false;
  c.keep_batch_results = true;
  return c;
}

LatencySummary summarize_latency(std::vector<double> xs) {
  LatencySummary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  double sum = 0;
  for (double x : xs) sum += x;
  s.mean = sum / static_cast<double>(xs.size());
  // Same linear interpolation as util/stats percentile(), over one sort.
  auto interp = [&](double p) {
    const double rank =
        p / 100.0 * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    if (lo + 1 >= xs.size()) return xs.back();
    const double frac = rank - static_cast<double>(lo);
    return xs[lo] * (1.0 - frac) + xs[lo + 1] * frac;
  };
  s.p50 = interp(50);
  s.p95 = interp(95);
  s.p99 = interp(99);
  s.max = xs.back();
  return s;
}

double ServingReport::amortized_transfer_ms() const {
  double sum = 0;
  for (const DrainRecord& d : drains) sum += d.transfer_ms;
  return sum;
}

double ServingReport::summed_solo_transfer_ms() const {
  double sum = 0;
  for (const DrainRecord& d : drains) sum += d.solo_transfer_ms;
  return sum;
}

ServingSession::ServingSession(ServingConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.drain.max_batch == 0) cfg_.drain.max_batch = 1;
  if (cfg_.drain.max_delay_ms < 0) cfg_.drain.max_delay_ms = 0;
  if (cfg_.devices == 0) cfg_.devices = 1;
  device_free_ms_.assign(cfg_.devices, 0.0);
  ring_.resize(std::max<std::size_t>(cfg_.queue_capacity, 1));
}

ServingSession::CacheKey ServingSession::cache_key(const LaunchSpec& spec) {
  return {spec.kernel.get(), spec.mode};
}

bool ServingSession::submit(QuerySet q, double arrival_ms) {
  if (!q.spec.kernel || !q.spec.space)
    throw std::invalid_argument(
        "ServingSession::submit: QuerySet is missing its kernel or address "
        "space");
  if (any_arrival_ && arrival_ms < last_arrival_ms_)
    throw std::invalid_argument(
        "ServingSession::submit: arrival times must be non-decreasing");
  if (!any_arrival_) {
    first_arrival_ms_ = arrival_ms;
    any_arrival_ = true;
  }
  last_arrival_ms_ = arrival_ms;
  ++submitted_;
  // Fire every wave whose max-delay deadline passed before this arrival.
  advance_to(arrival_ms);
  if (count_ == ring_.size()) {
    ++dropped_;
    return false;
  }
  ring_[(head_ + count_) % ring_.size()] =
      Pending{std::move(q), arrival_ms};
  ++count_;
  queue_depth_max_ = std::max(queue_depth_max_, count_);
  queue_depth_stats_.add(static_cast<double>(count_));
  while (count_ >= cfg_.drain.max_batch) fire(arrival_ms);
  return true;
}

void ServingSession::advance_to(double now_ms) {
  while (count_ > 0) {
    const double deadline = front().arrival_ms + cfg_.drain.max_delay_ms;
    if (deadline >= now_ms) break;
    fire(deadline);
  }
}

void ServingSession::flush() {
  while (count_ > 0) fire(front().arrival_ms + cfg_.drain.max_delay_ms);
}

ServingSession::Pending ServingSession::pop_front() {
  Pending p = std::move(ring_[head_]);
  head_ = (head_ + 1) % ring_.size();
  --count_;
  return p;
}

void ServingSession::fire(double trigger_ms) {
  const std::size_t n = std::min(cfg_.drain.max_batch, count_);
  if (n == 0) return;
  DrainRecord rec;
  rec.trigger_ms = trigger_ms;
  // Route the wave to the least-loaded device (earliest free; ties break
  // to the lowest index so the choice is deterministic). Dispatch times
  // stay non-decreasing across drains: each fire only raises one entry of
  // the free array, so its minimum never moves backwards, and triggers
  // are non-decreasing by the admission contract.
  std::size_t device = 0;
  for (std::size_t d = 1; d < device_free_ms_.size(); ++d)
    if (device_free_ms_[d] < device_free_ms_[device]) device = d;
  rec.device = device;
  rec.dispatch_ms = std::max(trigger_ms, device_free_ms_[device]);
  rec.queue_depth_before = count_;
  rec.n_queries = n;

  std::vector<Pending> wave;
  wave.reserve(n);
  for (std::size_t i = 0; i < n; ++i) wave.push_back(pop_front());

  // Classify cold (execute) vs warm (replay cached measurements). A wave
  // that opens Chrome tracks executes everything cold so the trace shows
  // real warp activity; caching the executed stats is always sound --
  // batching is results-neutral, so they match what solo would measure.
  const std::size_t drain_index = drains_.size();
  const bool tracing = cfg_.chrome && drain_index < cfg_.max_drain_tracks;
  struct Admit {
    bool warm = false;
    CachedLaunch info;
  };
  std::vector<Admit> admits(n);
  std::vector<LaunchSpec> cold;
  std::vector<std::size_t> cold_to_admit;
  for (std::size_t i = 0; i < n; ++i) {
    LaunchSpec spec = wave[i].q.spec;
    const bool own_sinks = spec.trace != nullptr || spec.profile != nullptr;
    if (tracing && !spec.trace)
      spec.trace = &cfg_.chrome->begin_launch(
          "drain" + std::to_string(drain_index) + "/" + spec.kernel->name());
    if (cfg_.reuse_identical && !own_sinks && !tracing) {
      auto it = cache_.find(cache_key(wave[i].q.spec));
      if (it != cache_.end()) {
        admits[i].warm = true;
        admits[i].info = it->second;
        continue;
      }
    }
    cold_to_admit.push_back(i);
    cold.push_back(spec);
  }

  LaunchPool pool;
  if (!cold.empty()) pool = run_launch_pool(cold, cfg_.device);
  rec.cold_launches = cold.size();

  for (std::size_t c = 0; c < cold.size(); ++c) {
    const LaunchResult& r = pool.launches[c];
    CachedLaunch info;
    info.shape = pool.shapes[c];
    info.variant = r.variant;
    info.total_ms = r.ok() ? r.time.total_ms : 0.0;
    info.ok = r.ok();
    admits[cold_to_admit[c]].info = info;
    if (cfg_.reuse_identical) {
      // Pin the handle: the cache key is its address (see CachedLaunch).
      info.keepalive = wave[cold_to_admit[c]].q.spec.kernel;
      cache_.insert_or_assign(cache_key(wave[cold_to_admit[c]].q.spec),
                              std::move(info));
    }
  }

  // Schedule accounting over the whole wave, warm launches included: the
  // modelled device still runs them; only the re-simulation was skipped.
  BatchScheduler sched(cfg_.policy);
  for (const Admit& a : admits) sched.add_launch(a.info.shape);
  const BatchSchedule bs = sched.schedule();
  rec.residency = bs.residency;
  rec.total_chunks = bs.total_chunks;
  rec.rounds = bs.rounds;
  rec.switches = bs.switches;

  // One amortized round trip for the wave vs what solo dispatch would pay.
  std::uint64_t up = 0;
  std::uint64_t down = 0;
  std::size_t wave_points = 0;
  for (std::size_t i = 0; i < n; ++i) {
    up += wave[i].q.upload_bytes;
    down += wave[i].q.download_bytes;
    wave_points += wave[i].q.spec.kernel->num_points();
    rec.solo_transfer_ms += cfg_.transfer.round_trip_ms(
        wave[i].q.upload_bytes, wave[i].q.download_bytes, 1);
  }

  double total_compute = 0;
  for (const Admit& a : admits) total_compute += a.info.total_ms;
  rec.compute_ms = total_compute;
  if (cfg_.shard_chunk > 0) {
    // Pipelined wave upload: copy-in strip-mined into shard_chunk-point
    // copies overlapping the wave's compute; only the exposed portion is
    // charged as the wave's transfer time.
    const std::size_t chunks = std::max<std::size_t>(
        (wave_points + cfg_.shard_chunk - 1) / cfg_.shard_chunk, 1);
    rec.transfer_ms =
        cfg_.transfer.pipelined_round_trip(up, down, total_compute, chunks)
            .exposed_ms;
  } else {
    rec.transfer_ms = cfg_.transfer.round_trip_ms(up, down, 1);
  }
  rec.service_ms = rec.transfer_ms + total_compute;

  // Per-query completion = queueing + wave transfer + compute. Sequential
  // issue retires each launch in admission order (prefix sums of compute);
  // round-robin interleaves waves, so every query retires with the wave.
  double prefix = 0;
  for (std::size_t i = 0; i < n; ++i) {
    prefix += admits[i].info.total_ms;
    const double offset =
        cfg_.policy == BatchPolicy::kSequential ? prefix : total_compute;
    const double completion = rec.dispatch_ms + rec.transfer_ms + offset;
    // Summed as (queueing + transfer + compute) rather than
    // completion - arrival: mathematically identical, but immune to the
    // big-minus-big cancellation that would make a query's latency depend
    // on how far into the trace it arrived.
    const double queued = rec.dispatch_ms - wave[i].arrival_ms;
    latencies_.push_back(queued + rec.transfer_ms + offset);
    queue_delays_.push_back(queued);
    last_completion_ms_ = std::max(last_completion_ms_, completion);
    if (!admits[i].info.ok) ++failed_;
  }
  device_free_ms_[device] = rec.dispatch_ms + rec.service_ms;
  busy_ms_ += rec.service_ms;
  drains_.push_back(rec);

  if (cfg_.keep_batch_results) {
    BatchRun run;
    run.launches = std::move(pool.launches);
    run.policy = cfg_.policy;
    run.residency = bs.residency;
    run.total_chunks = bs.total_chunks;
    run.rounds = bs.rounds;
    run.switches = bs.switches;
    run.sim_wall_ms = pool.sim_wall_ms;
    closed_run_ = std::move(run);
  }
}

ServingReport ServingSession::report() const {
  ServingReport r;
  r.devices = cfg_.devices;
  r.shard_chunk = cfg_.shard_chunk;
  r.submitted = submitted_;
  r.completed = latencies_.size();
  r.dropped = dropped_;
  r.failed = failed_;
  r.first_arrival_ms = first_arrival_ms_;
  r.last_completion_ms = last_completion_ms_;
  r.busy_ms = busy_ms_;
  r.queue_depth_max = queue_depth_max_;
  r.queue_depth = queue_depth_stats_.summary();
  r.latency = summarize_latency(latencies_);
  r.queue_delay = summarize_latency(queue_delays_);
  r.drains = drains_;
  return r;
}

BatchRun ServingSession::take_closed_run() {
  if (!cfg_.keep_batch_results)
    throw std::logic_error(
        "ServingSession::take_closed_run: session was not configured with "
        "keep_batch_results");
  BatchRun run = closed_run_ ? std::move(*closed_run_) : BatchRun{};
  run.policy = cfg_.policy;
  closed_run_.reset();
  return run;
}

// ---------------------------------------------------------------------
// Closed-batch adapter: the legacy one-shot entry point.
// ---------------------------------------------------------------------

BatchRun run_gpu_batch(std::span<const LaunchSpec> specs,
                       const DeviceConfig& cfg, BatchPolicy policy) {
  for (std::size_t i = 0; i < specs.size(); ++i)
    if (!specs[i].kernel || !specs[i].space)
      throw std::invalid_argument("run_gpu_batch: LaunchSpec " +
                                  std::to_string(i) +
                                  " is missing its kernel or address space");
  ServingSession session(
      ServingConfig::closed_batch(cfg, policy, specs.size()));
  for (const LaunchSpec& spec : specs) session.submit(QuerySet{spec}, 0.0);
  session.flush();
  return session.take_closed_run();
}

// ---------------------------------------------------------------------
// Arrival traces.
// ---------------------------------------------------------------------

std::vector<double> poisson_trace(std::size_t n, double rate_qps,
                                  std::uint64_t seed) {
  if (!(rate_qps > 0))
    throw std::invalid_argument("poisson_trace: rate_qps must be > 0");
  Pcg32 rng(seed, 0x5e59c1a7);  // own stream: trace draws stay stable
  std::vector<double> ts(n);
  const double scale = 1e3 / rate_qps;
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.next_double()) * scale;
    ts[i] = t;
  }
  return ts;
}

std::vector<double> bursty_trace(std::size_t n, double on_rate_qps,
                                 double on_ms, double off_ms,
                                 std::uint64_t seed) {
  if (!(on_rate_qps > 0) || !(on_ms > 0) || off_ms < 0)
    throw std::invalid_argument(
        "bursty_trace: need on_rate_qps > 0, on_ms > 0, off_ms >= 0");
  Pcg32 rng(seed, 0xb1257a1e);
  std::vector<double> ts(n);
  const double scale = 1e3 / on_rate_qps;
  const double period = on_ms + off_ms;
  // The Poisson clock only ticks during ON windows; map cumulative ON
  // time to wall time by inserting one OFF gap per completed window.
  double on_elapsed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    on_elapsed += -std::log(1.0 - rng.next_double()) * scale;
    const double k = std::floor(on_elapsed / on_ms);
    ts[i] = k * period + (on_elapsed - k * on_ms);
  }
  return ts;
}

}  // namespace tt
