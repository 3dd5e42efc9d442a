#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>

#include "core/serving.h"
#include "jobs.h"
#include "point_inputs.h"
#include "serve.h"
#include "simt/device_config.h"
#include "tracer.h"
#include "util/rng.h"

namespace pb {

namespace {

// ---------------------------------------------------------------------
// Workload definitions.
// ---------------------------------------------------------------------

// Solo inputs: 16384 points or bodies make every tree + points working set
// 1.5-1.9x the modelled 768 KiB L2, so the memory model sees capacity
// misses, while one pass of the heaviest workload stays near 30 s of
// host time on 4 threads.
constexpr std::size_t kSoloPoints = 16384;
// Small served query sets: 128-512 points, 9-40 KB each, far below L2.
constexpr std::size_t kSmallSizes[] = {128, 256, 384, 512};
// served_small: share of queries that repeat an earlier query set of the
// stream (warm replay serves them), and the solo-checked sample.
constexpr double kRepeatShare = 0.25;
constexpr std::size_t kServedSoloSample = 24;
// Query stream length and arrival traces per serving phase. Pooled over
// the traces, p99 rests on hundreds of samples beyond it; only the first
// trace meets cold query sets, the rest replay, so traces are cheap.
constexpr std::size_t kSoloServeQueries = 2000;
constexpr std::size_t kSoloServeTraces = 16;
constexpr std::size_t kSmallServeQueries = 600;
constexpr std::size_t kSmallServeTraces = 32;
// Minimum set-up repetitions per run; setup_s is their median.
constexpr std::size_t kSetupReps = 11;

struct WorkloadDef {
  std::vector<JobSpec> jobs;
  std::vector<std::size_t> solo;  // jobs launched solo and checked
  std::vector<Variant> variants;  // solo variant family, in launch order
  std::vector<std::size_t> picks;  // served query stream (job indices)
  // Poisson arrival traces of the stream at 1 query per second.
  std::vector<std::vector<double>> traces;
  ServeConfig serve;
};

std::uint64_t mix(std::uint64_t x) {  // splitmix64
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::vector<std::vector<double>> arrival_traces(std::size_t n,
                                                std::size_t count,
                                                std::uint64_t seed) {
  std::vector<std::vector<double>> t;
  for (std::size_t i = 0; i < count; ++i)
    t.push_back(tt::poisson_trace(n, 1.0, mix(seed ^ (0xa771 + i))));
  return t;
}

WorkloadDef define_solo(std::uint64_t seed, bool sorted) {
  WorkloadDef d;
  const char* kernels[] = {"pc", "knn", "bh"};
  for (std::size_t i = 0; i < 3; ++i) {
    d.jobs.push_back({kernels[i], kSoloPoints, mix(seed * 8 + i), sorted});
    d.solo.push_back(i);
  }
  if (sorted) {
    d.variants = {Variant::kAutoLockstep, Variant::kStacklessLockstep,
                  Variant::kRecLockstep, Variant::kAutoSelect};
    d.serve.nominal_qps = 300;
    d.serve.p99_limit_ms = 25;
    // Its cold trace is three launches, about a second of host time: too
    // few samples per pass for a steady serve_queries_per_s.
    d.serve.cold_repeats = 2;
  } else {
    d.variants = {Variant::kAutoNolockstep, Variant::kStacklessNolockstep,
                  Variant::kIndexWalk,      Variant::kRecNolockstep,
                  Variant::kAutoLockstep,   Variant::kAutoSelect};
    d.serve.nominal_qps = 30;
    d.serve.p99_limit_ms = 120;
  }
  d.serve.shard_chunk = 4096;
  // A fixed mix in seeded order: half pc, a quarter each knn and bh. The
  // latencies have one mode per kernel, so p50 must sit inside one mode
  // (pc's) rather than at a boundary, where a random or even mix would
  // move it from one mode to the next between seeds.
  constexpr std::size_t kMix[] = {0, 1, 0, 2};  // pc, knn, pc, bh
  for (std::size_t i = 0; i < kSoloServeQueries; ++i)
    d.picks.push_back(kMix[i % 4]);
  tt::Pcg32 rng(mix(seed ^ 0x5e55), 7);
  for (std::size_t i = d.picks.size(); i > 1; --i)
    std::swap(d.picks[i - 1],
              d.picks[rng.next_below(static_cast<std::uint32_t>(i))]);
  d.traces = arrival_traces(kSoloServeQueries, kSoloServeTraces, seed);
  return d;
}

WorkloadDef define_served_small(std::uint64_t seed) {
  WorkloadDef d;
  tt::Pcg32 rng(mix(seed ^ 0x5e55), 7);
  std::size_t fresh = 0;
  for (std::size_t i = 0; i < kSmallServeQueries; ++i) {
    if (i > 0 && rng.next_double() < kRepeatShare)
      d.picks.push_back(d.picks[rng.next_below(static_cast<std::uint32_t>(i))]);
    else
      d.picks.push_back(fresh++);
  }
  const char* kernels[] = {"pc", "knn", "nn"};
  for (std::size_t i = 0; i < fresh; ++i) {
    const std::size_t size = kSmallSizes[(i / 3) % 4];
    const bool sorted = (i / 12) % 2 == 0;
    d.jobs.push_back({kernels[i % 3], size, mix(seed * 4096 + i), sorted});
  }
  for (std::size_t i = 0; i < std::min(kServedSoloSample, fresh); ++i)
    d.solo.push_back(i);
  d.variants = {Variant::kAutoLockstep, Variant::kAutoNolockstep,
                Variant::kAutoSelect};
  d.traces = arrival_traces(kSmallServeQueries, kSmallServeTraces, seed);
  d.serve.nominal_qps = 8000;
  d.serve.p99_limit_ms = 2;
  d.serve.shard_chunk = 256;
  return d;
}

WorkloadDef define(const std::string& name, std::uint64_t seed) {
  if (name == "sorted_lockstep") return define_solo(seed, true);
  if (name == "shuffled_perlane") return define_solo(seed, false);
  if (name == "served_small") return define_served_small(seed);
  throw std::invalid_argument(
      "unknown workload '" + name +
      "' (valid: sorted_lockstep, shuffled_perlane, served_small)");
}

// ---------------------------------------------------------------------
// Passes.
// ---------------------------------------------------------------------

using Jobs = std::vector<std::unique_ptr<Job>>;

Jobs build_jobs(const WorkloadDef& def, SetupTimes& times, Tracer* tr) {
  SpanGuard span(tr, "setup");
  const tt::PointSet pool = make_covtype_pool(times, tr);
  Jobs jobs;
  jobs.reserve(def.jobs.size());
  for (const JobSpec& s : def.jobs)
    jobs.push_back(make_job(s, pool, times, tr));
  return jobs;
}

std::uint64_t input_digest(const Jobs& jobs) {
  Digest d;
  for (const auto& j : jobs) d.value(j->input_digest());
  return d.get();
}

struct PassResult {
  bool traced = false;
  std::vector<LaunchOutcome> launches;
  std::vector<std::size_t> launch_job;  // job index of each launch
  ServeResult served;
  std::uint64_t digest = 0;
};

PassResult run_pass(const WorkloadDef& def, const Jobs& jobs,
                    const tt::DeviceConfig& cfg, Tracer* tr, int& launch_id,
                    bool corrupt_first) {
  PassResult r;
  r.traced = tr != nullptr;
  SpanGuard span(tr, "pass");
  for (std::size_t j : def.solo)
    for (Variant v : def.variants) {
      if (!jobs[j]->eligible(v)) continue;  // skipped, not attempted
      const bool corrupt = corrupt_first && r.launches.empty();
      r.launches.push_back(jobs[j]->launch(v, cfg, tr, launch_id++, corrupt));
      r.launch_job.push_back(j);
    }
  if (tr) {
    // The section-4.4 sampler's host cost cannot be separated from the
    // auto_select launch that runs it, so the traced pass also calls it
    // on its own, with the launch's sample count and seed.
    const tt::GpuMode m = tt::GpuMode::from(Variant::kAutoSelect);
    for (std::size_t j : def.solo) {
      SpanGuard s(tr, "core.select");
      const tt::ProfileReport p =
          jobs[j]->handle()->profile(m.profile_samples, m.profile_seed);
      s.count("sampled_visits", static_cast<double>(p.sampled_visits));
    }
  }
  std::vector<const Job*> all;
  for (const auto& j : jobs) all.push_back(j.get());
  r.served = serve(all, def.picks, def.traces, def.serve, tr);
  Digest d;
  for (LaunchOutcome& o : r.launches) {
    digest_launch(d, o);
    // Only the digest reads the per-buffer rows; dropping them keeps a
    // run's memory from growing with its pass count.
    o.stats.memory = tt::MemoryAttribution{};
  }
  d.value(r.served.digest);
  r.digest = d.get();
  return r;
}

// ---------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double ratio(double a, double b) { return b != 0 ? a / b : 0; }

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double s = 0;
  for (double x : xs) s += std::log(x);
  return std::exp(s / static_cast<double>(xs.size()));
}

// Host throughput of the solo launches over a set of passes: points per
// second inside run_gpu_sim, each launch timed by its median over the
// passes so a short slow stretch of the machine moves few of them.
double points_per_s(const std::vector<const PassResult*>& ps) {
  if (ps.empty()) return 0;
  double pts = 0;
  double secs = 0;
  for (std::size_t i = 0; i < ps.front()->launches.size(); ++i) {
    std::vector<double> host;
    for (const PassResult* p : ps) host.push_back(p->launches[i].host_s);
    pts += static_cast<double>(ps.front()->launches[i].points);
    secs += median(host);
  }
  return ratio(pts, secs);
}

// Host throughput of the nominal phase's first (cold) trace, submits and
// flush, each block timed by its median over the passes and their cold
// repeats, as for points_per_s.
double serve_queries_per_s(const std::vector<const PassResult*>& ps) {
  if (ps.empty()) return 0;
  const PhaseStats& first = ps.front()->served.nominal;
  double secs = 0;
  for (std::size_t b = 0; b < first.block_host_s.size(); ++b) {
    std::vector<double> host;
    for (const PassResult* p : ps) {
      host.push_back(p->served.nominal.block_host_s[b]);
      for (const PhaseStats& c : p->served.cold_repeats)
        host.push_back(c.block_host_s[b]);
    }
    secs += median(host);
  }
  return ratio(static_cast<double>(first.stream), secs);
}

std::vector<const PassResult*> passes_where(
    const std::vector<PassResult>& passes, bool traced) {
  std::vector<const PassResult*> out;
  for (const PassResult& p : passes)
    if (p.traced == traced) out.push_back(&p);
  return out;
}

// Modelled ms per kernel kind and variant, summed over that kind's jobs.
using KindTimes = std::map<std::string, std::map<Variant, double>>;

KindTimes kind_times(const PassResult& p, const Jobs& jobs) {
  KindTimes t;
  for (std::size_t i = 0; i < p.launches.size(); ++i)
    t[jobs[p.launch_job[i]]->spec().kernel][p.launches[i].variant] +=
        p.launches[i].time.total_ms;
  return t;
}

double best_ms(const KindTimes& t) {
  std::vector<double> per_kind;
  for (const auto& [kind, by_variant] : t) {
    double best = HUGE_VAL;
    for (const auto& [v, ms] : by_variant) best = std::min(best, ms);
    per_kind.push_back(best);
  }
  return geomean(per_kind);
}

double variant_ms(const KindTimes& t, Variant v) {
  std::vector<double> per_kind;
  for (const auto& [kind, by_variant] : t) {
    const auto it = by_variant.find(v);
    if (it != by_variant.end()) per_kind.push_back(it->second);
  }
  return geomean(per_kind);
}

// auto_select's modelled time over the better of the two autoropes
// compositions, min(L, N), geomean over kernel kinds.
double select_regret(const KindTimes& t) {
  std::vector<double> per_kind;
  for (const auto& [kind, by_variant] : t) {
    const auto a = by_variant.find(Variant::kAutoSelect);
    if (a == by_variant.end()) continue;
    double best = HUGE_VAL;
    for (Variant v : {Variant::kAutoLockstep, Variant::kAutoNolockstep}) {
      const auto it = by_variant.find(v);
      if (it != by_variant.end()) best = std::min(best, it->second);
    }
    if (best < HUGE_VAL) per_kind.push_back(a->second / best);
  }
  return geomean(per_kind);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<Metric> end_to_end(const std::vector<PassResult>& passes,
                               const Jobs& jobs,
                               const std::vector<double>& setup_s,
                               double rss_mb) {
  const std::vector<const PassResult*> untraced = passes_where(passes, false);
  const PassResult& first = passes.front();
  const KindTimes kt = kind_times(first, jobs);
  const ServeResult& s = first.served;
  return {
      {"sim_points_per_s", "points/s", points_per_s(untraced)},
      {"gpu_ms_best", "ms", best_ms(kt)},
      {"gpu_ms_auto", "ms", variant_ms(kt, Variant::kAutoSelect)},
      {"serve_p50_ms", "ms", s.nominal.latency.p50},
      {"serve_p99_ms", "ms", s.nominal.latency.p99},
      {"serve_max_qps", "qps", s.max_qps},
      {"serve_queries_per_s", "queries/s", serve_queries_per_s(untraced)},
      {"setup_s", "s", median(setup_s)},
      {"peak_rss_mb", "MB", rss_mb},
  };
}

// `complement` holds the autoropes compositions the workload's variant
// family lacks, run once so core.select.regret sees both L and N.
std::vector<Metric> per_layer(const std::vector<PassResult>& passes,
                              const PassResult& complement, const Jobs& jobs,
                              const Tracer& tr, double reference_s,
                              int traced_setups) {
  const std::map<std::string, double> self = tr.self_seconds();
  auto self_s = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const std::vector<const PassResult*> traced = passes_where(passes, true);
  const std::vector<const PassResult*> untraced = passes_where(passes, false);
  if (traced.empty() || untraced.empty())
    throw std::logic_error("per_layer: needs traced and untraced passes");
  const PassResult* tp = traced.front();
  const double n_traced = static_cast<double>(traced.size());
  const double traced_pps = points_per_s(traced);

  // Modelled counts repeat exactly across passes: take the first traced.
  tt::KernelStats sum;
  double sampling = 0;
  double selections = 0;
  double lockstep_picks = 0;
  double memory_bound = 0;
  double expansion = 0;
  double expansion_n = 0;
  tt::KernelStats stackless;
  for (const LaunchOutcome& o : tp->launches) {
    sum.merge(o.stats);
    if (o.time.memory_bound) ++memory_bound;
    if (o.selection) {
      ++selections;
      sampling += o.selection->sampling_cycles;
      if (tt::variant_is_lockstep(o.selection->chosen)) ++lockstep_picks;
    }
    if (o.variant == Variant::kAutoLockstep && o.work_expansion > 0) {
      expansion += o.work_expansion;
      ++expansion_n;
    }
    if (tt::variant_is_stackless(o.variant)) stackless.merge(o.stats);
  }
  const double segments = static_cast<double>(
      sum.dram_transactions + sum.l2_hit_transactions + sum.smem_cache_hits);
  const double launches = static_cast<double>(tp->launches.size());
  const PhaseStats& nom = tp->served.nominal;
  const double serving_host_s = self_s("core.serving") / n_traced;
  // Each pass's exec spans have no children, so their self time is the
  // run_gpu_sim time; averaged over traced passes.
  double exec_span_s = 0;
  for (Variant v : tt::kAllVariants)
    exec_span_s += self_s(std::string("core.exec.") + tt::variant_name(v));
  exec_span_s /= n_traced;

  std::uint64_t tree_bytes = 0;
  for (const auto& j : jobs) tree_bytes += j->upload_bytes();
  auto bucket = [&](tt::CycleBucket b) { return sum.bucket_cycles(b); };
  const double reps = traced_setups;
  KindTimes select_times = kind_times(*tp, jobs);
  for (const auto& [kind, by_variant] : kind_times(complement, jobs))
    for (const auto& [v, ms] : by_variant) select_times[kind][v] += ms;

  std::vector<Metric> m = {
      {"data.generate_s", "s", self_s("data.generate") / reps},
      {"data.order_s", "s", self_s("data.order") / reps},
      {"spatial.build_s", "s", self_s("spatial.build") / reps},
      {"bench_algos.construct_s", "s", self_s("bench_algos.construct") / reps},
      {"spatial.tree_bytes", "bytes", static_cast<double>(tree_bytes)},
  };
  for (Variant v : tt::kAllVariants) {
    const std::string name = tt::variant_name(v);
    m.push_back({"core.exec.host_s." + name, "s",
                 self_s("core.exec." + name) / n_traced});
  }
  const std::vector<Metric> rest = {
      {"core.exec.lane_visits", "count", static_cast<double>(sum.lane_visits)},
      {"core.exec.warp_steps", "count", static_cast<double>(sum.warp_steps)},
      {"core.exec.simd_util", "ratio",
       ratio(static_cast<double>(sum.active_lane_sum),
             32.0 * static_cast<double>(sum.warp_steps))},
      {"core.exec.work_expansion", "ratio", ratio(expansion, expansion_n)},
      {"core.exec.cycles.visit", "cycles", bucket(tt::CycleBucket::kVisit)},
      {"core.exec.cycles.step", "cycles", bucket(tt::CycleBucket::kStep)},
      {"core.exec.cycles.vote", "cycles", bucket(tt::CycleBucket::kVote)},
      {"core.exec.cycles.call", "cycles", bucket(tt::CycleBucket::kCall)},
      {"core.exec.cycles.stack", "cycles", bucket(tt::CycleBucket::kStack)},
      {"core.select.host_s", "s", self_s("core.select") / n_traced},
      {"core.select.sampling_cycles", "cycles", sampling},
      {"core.select.lockstep_share", "ratio",
       ratio(lockstep_picks, selections)},
      {"core.select.regret", "ratio", select_regret(select_times)},
      {"simt.load_instructions", "count",
       static_cast<double>(sum.load_instructions)},
      {"simt.segments_per_load", "ratio",
       ratio(segments, static_cast<double>(sum.load_instructions))},
      {"simt.host_ns_per_segment", "ns", ratio(exec_span_s * 1e9, segments)},
      {"simt.host_ns_per_visit", "ns",
       ratio(exec_span_s * 1e9, static_cast<double>(sum.lane_visits))},
      {"simt.l2_hit_rate", "ratio",
       ratio(static_cast<double>(sum.l2_hit_transactions),
             static_cast<double>(sum.l2_hit_transactions +
                                 sum.dram_transactions))},
      {"simt.dram_mb", "MB", static_cast<double>(sum.dram_bytes) / 1e6},
      {"simt.cycles.mem_stall", "cycles", bucket(tt::CycleBucket::kMemStall)},
      {"simt.memory_bound_share", "ratio", ratio(memory_bound, launches)},
      {"simt.smem_cache_hit_rate", "ratio",
       ratio(static_cast<double>(stackless.smem_cache_hits),
             static_cast<double>(stackless.smem_cache_hits +
                                 stackless.smem_cache_misses))},
      {"core.serving.host_s", "s", serving_host_s},
      {"core.serving.cold_launches", "count",
       static_cast<double>(nom.cold_launches)},
      {"core.serving.host_ms_per_cold_launch", "ms",
       ratio(serving_host_s * 1e3, static_cast<double>(nom.cold_launches))},
      {"core.serving.replay_share", "ratio",
       1.0 - ratio(static_cast<double>(nom.cold_launches),
                   static_cast<double>(nom.stream))},
      {"core.serving.queue_delay_p99_ms", "ms", nom.queue_delay.p99},
      {"core.serving.mean_wave", "count",
       ratio(static_cast<double>(nom.queries),
             static_cast<double>(nom.drains))},
      {"core.serving.drains", "count", static_cast<double>(nom.drains)},
      {"core.serving.occupancy", "ratio", nom.occupancy()},
      {"simt.transfer.exposed_ms", "ms", nom.exposed_transfer_ms},
      {"cpu.reference_s", "s", reference_s},
      {"trace.sim_points_per_s", "points/s", traced_pps},
      {"trace.overhead_share", "ratio",
       ratio(points_per_s(untraced), traced_pps) - 1.0},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sorted_lockstep", "shuffled_perlane", "served_small"};
  return names;
}

std::uint64_t workload_input_digest(const std::string& workload,
                                    std::uint64_t seed) {
  const WorkloadDef def = define(workload, seed);
  SetupTimes times;
  Digest d;
  d.value(input_digest(build_jobs(def, times, nullptr)));
  for (std::size_t p : def.picks) d.value(p);
  for (const auto& trace : def.traces)
    for (double t : trace) d.value(t);
  return d.get();
}

WorkloadReport run_workload(const Options& opt) {
  const WorkloadDef def = define(opt.workload, opt.seed);
  const tt::DeviceConfig cfg;
  Tracer tracer;
  Tracer* tr = opt.trace ? &tracer : nullptr;
  WorkloadReport rep;

  // Set-up: input generation, ordering, tree build and kernel
  // construction. The first set-up's jobs are measured; further set-ups,
  // one after each pass, are timed and dropped, so set-up samples are
  // spread over the run rather than taken in one stretch.
  std::vector<double> setup_s;
  int traced_setups = 0;
  auto setup = [&](Tracer* t) {
    SetupTimes times;
    Jobs built = build_jobs(def, times, t);
    setup_s.push_back(times.total());
    if (t) ++traced_setups;
    return built;
  };
  const Jobs jobs = setup(tr);
  rep.input_digest = input_digest(jobs);

  // CPU reference for every solo-launched job, outside the timed phase.
  double reference_s = 0;
  for (std::size_t j : def.solo) {
    SpanGuard span(tr, "cpu.reference");
    reference_s += jobs[j]->run_reference(opt.threads);
  }

  std::vector<PassResult> passes;
  double rss_mb = 0;
  int launch_id = 0;
  const std::size_t min_passes = opt.trace ? 2 : 1;
  const auto t0 = std::chrono::steady_clock::now();
  while (passes.size() < min_passes || seconds_since(t0) < opt.seconds) {
    // The traced run alternates untraced and traced passes, so the
    // tracing overhead is measured inside one run.
    Tracer* pass_tr = opt.trace && passes.size() % 2 == 1 ? tr : nullptr;
    passes.push_back(run_pass(def, jobs, cfg, pass_tr, launch_id,
                              opt.inject_mismatch && passes.empty()));
    (void)setup(pass_tr);
    // Every pass repeats the same work; later passes only add allocator
    // fragmentation, so the peak is read once the first pass is done.
    if (passes.size() == 1) rss_mb = peak_rss_mb();
  }
  while (setup_s.size() < kSetupReps) (void)setup(nullptr);
  rep.passes = passes.size();

  // core.select.regret divides by min(L, N): the traced run launches the
  // autoropes composition the variant family lacks once per solo job,
  // untraced and outside the passes.
  PassResult complement;
  const auto runs = [&](Variant v) {
    return std::find(def.variants.begin(), def.variants.end(), v) !=
           def.variants.end();
  };
  if (opt.trace && runs(Variant::kAutoSelect))
    for (Variant v : {Variant::kAutoLockstep, Variant::kAutoNolockstep}) {
      if (runs(v)) continue;
      for (std::size_t j : def.solo) {
        if (!jobs[j]->eligible(v)) continue;
        complement.launches.push_back(
            jobs[j]->launch(v, cfg, nullptr, launch_id++, false));
        complement.launch_job.push_back(j);
      }
    }

  // Correctness and failure accounting.
  auto count_launches = [&](const PassResult& p) {
    for (const LaunchOutcome& o : p.launches) {
      ++rep.attempted;
      if (!o.ok()) {
        ++rep.failed;
        if (rep.errors.size() < 8) rep.errors.push_back(o.error);
      }
    }
  };
  count_launches(complement);
  for (const PassResult& p : passes) {
    count_launches(p);
    auto count_phase = [&](const PhaseStats& ph) {
      rep.attempted += ph.queries;
      rep.failed += ph.dropped + ph.failed;
      if ((ph.dropped || ph.failed) && rep.errors.size() < 8)
        rep.errors.push_back("serving: " + std::to_string(ph.dropped) +
                             " dropped, " + std::to_string(ph.failed) +
                             " failed at " + std::to_string(ph.rate_qps) +
                             " qps");
    };
    count_phase(p.served.nominal);
    for (const PhaseStats& ph : p.served.search) count_phase(ph);
    for (const PhaseStats& ph : p.served.cold_repeats) count_phase(ph);
    if (p.digest != passes.front().digest) {
      rep.correct = false;
      rep.errors.push_back("modelled digest differs between passes");
    }
  }
  if (rep.failed) rep.correct = false;

  const PassResult& first = passes.front();
  {
    Digest d;
    d.value(rep.input_digest);
    d.value(first.digest);
    rep.modelled_digest = d.get();
  }
  for (std::size_t i = 0; i < first.launches.size(); ++i) {
    const LaunchOutcome& o = first.launches[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "%-4s %-20s %12.6f ms visits %10llu loads %10llu dram %9llu "
                  "l2hit %9llu",
                  jobs[first.launch_job[i]]->spec().kernel.c_str(),
                  tt::variant_name(o.variant), o.time.total_ms,
                  static_cast<unsigned long long>(o.stats.lane_visits),
                  static_cast<unsigned long long>(o.stats.load_instructions),
                  static_cast<unsigned long long>(o.stats.dram_transactions),
                  static_cast<unsigned long long>(o.stats.l2_hit_transactions));
    rep.digest_lines.emplace_back(line);
  }
  {
    const ServeResult& s = first.served;
    char line[256];
    std::snprintf(line, sizeof line,
                  "serve nominal %.1f qps: p50 %.6f p99 %.6f ms, %zu drains, "
                  "%zu cold; max %.3f qps over %zu search phases",
                  s.nominal.rate_qps, s.nominal.latency.p50,
                  s.nominal.latency.p99, s.nominal.drains,
                  s.nominal.cold_launches, s.max_qps, s.search.size());
    rep.digest_lines.emplace_back(line);
  }

  rep.metrics = opt.trace ? per_layer(passes, complement, jobs, tracer,
                                      reference_s, traced_setups)
                          : end_to_end(passes, jobs, setup_s, rss_mb);
  if (opt.trace) {
    const std::string path = opt.out_dir + "/spans-" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".json";
    const std::string header =
        "\"workload\": \"" + opt.workload + "\", \"seed\": " +
        std::to_string(opt.seed) + ", \"threads\": " +
        std::to_string(opt.threads) + ", \"passes\": " +
        std::to_string(rep.passes);
    if (!tracer.write_json(path, header))
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
  return rep;
}

}  // namespace pb
