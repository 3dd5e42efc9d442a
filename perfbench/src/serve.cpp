#include "serve.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace pb {

namespace {

// Share of the offered rate a phase must complete per second of its
// span for its backlog to count as not growing.
constexpr double kMinThroughputShare = 0.95;
// Geometric bisection steps of the rate search: the bracket narrows to a
// factor 2^(1/256).
constexpr int kBisectSteps = 8;

}  // namespace

ServeResult serve(const std::vector<const Job*>& jobs,
                  const std::vector<std::size_t>& picks,
                  const std::vector<std::vector<double>>& traces,
                  const ServeConfig& cfg, Tracer* tr) {
  if (picks.empty() || traces.empty())
    throw std::invalid_argument("serve: empty query stream");
  for (const auto& t : traces)
    if (t.size() != picks.size())
      throw std::invalid_argument("serve: trace length != stream length");
  tt::ServingConfig sc;
  sc.devices = kServeDevices;
  sc.shard_chunk = cfg.shard_chunk;
  const tt::GpuMode mode = tt::GpuMode::from(Variant::kAutoSelect);
  // Cold launches add their stack arenas to the query's address space, so
  // each session starts from fresh copies.
  auto fresh_spaces = [&] {
    std::vector<tt::GpuAddressSpace> spaces;
    spaces.reserve(jobs.size());
    for (const Job* j : jobs) spaces.push_back(j->base_space());
    return spaces;
  };

  // Submit one trace at `rate` from modelled time `base`, then flush. With
  // `blocks`, the host seconds of every kHostBlock submits are appended
  // there; the last block includes the flush, which fires the trace's
  // final waves.
  auto serve_trace = [&](tt::ServingSession& session,
                         std::vector<tt::GpuAddressSpace>& spaces,
                         const std::vector<double>& trace, double base,
                         double rate, std::vector<double>* blocks) {
    auto h0 = std::chrono::steady_clock::now();
    auto end_block = [&] {
      const auto h1 = std::chrono::steady_clock::now();
      blocks->push_back(std::chrono::duration<double>(h1 - h0).count());
      h0 = h1;
    };
    for (std::size_t i = 0; i < picks.size(); ++i) {
      const Job& j = *jobs[picks[i]];
      tt::QuerySet q;
      q.spec.kernel = j.handle();
      q.spec.space = &spaces[picks[i]];
      q.spec.mode = mode;
      q.upload_bytes = j.upload_bytes();
      q.download_bytes = j.download_bytes();
      session.submit(std::move(q), base + trace[i] / rate);
      if (blocks && (i + 1) % kHostBlock == 0 && i + 1 < picks.size())
        end_block();
    }
    session.flush();
    if (blocks) end_block();
  };

  tt::ServingSession session(sc);
  std::vector<tt::GpuAddressSpace> spaces = fresh_spaces();
  ServeResult out;
  Digest digest;
  double t0 = 0;
  std::size_t seen_latencies = 0;
  std::size_t seen_drains = 0;
  std::size_t seen_dropped = 0;
  std::size_t seen_failed = 0;

  // The traces of one phase follow each other, each drained by flush()
  // before the next starts; the next phase starts 1 ms after the last
  // completion, on idle devices. serve_queries_per_s times the nominal
  // phase's first trace; the rate-search phases get their own span name.
  auto run_phase = [&](double rate, const char* span_name) {
    PhaseStats p;
    p.rate_qps = rate;
    p.stream = picks.size();
    p.queries = picks.size() * traces.size();
    const double first_arrival = t0 + traces.front().front() / rate;
    {
      SpanGuard span(tr, span_name);
      double base = t0;
      for (std::size_t t = 0; t < traces.size(); ++t) {
        serve_trace(session, spaces, traces[t], base, rate,
                    t == 0 ? &p.block_host_s : nullptr);
        // The next trace starts one mean gap, and no less than the drain
        // delay, after this one's last query, so it arrives after the
        // flushed waves fired.
        base += traces[t].back() / rate +
                std::max(1e3 / rate, sc.drain.max_delay_ms);
      }
      span.count("queries", static_cast<double>(p.queries));
    }
    const tt::ServingReport rep = session.report();
    const auto& lat = session.latencies_ms();
    const auto& qd = session.queue_delays_ms();
    p.latency = tt::summarize_latency(
        {lat.begin() + static_cast<std::ptrdiff_t>(seen_latencies), lat.end()});
    p.queue_delay = tt::summarize_latency(
        {qd.begin() + static_cast<std::ptrdiff_t>(seen_latencies), qd.end()});
    for (std::size_t i = seen_latencies; i < lat.size(); ++i) {
      digest.value(lat[i]);
      digest.value(qd[i]);
    }
    seen_latencies = lat.size();
    for (std::size_t d = seen_drains; d < rep.drains.size(); ++d) {
      const tt::DrainRecord& r = rep.drains[d];
      ++p.drains;
      p.cold_launches += r.cold_launches;
      p.exposed_transfer_ms += r.transfer_ms;
      p.busy_ms += r.service_ms;
    }
    seen_drains = rep.drains.size();
    p.span_ms = rep.last_completion_ms - first_arrival;
    t0 = rep.last_completion_ms + 1.0;
    p.dropped = rep.dropped - seen_dropped;
    p.failed = rep.failed - seen_failed;
    seen_dropped = rep.dropped;
    seen_failed = rep.failed;
    // A growing backlog shows as completions falling behind arrivals.
    p.meets = p.dropped == 0 && p.failed == 0 &&
              p.latency.p99 <= cfg.p99_limit_ms &&
              static_cast<double>(p.queries) / p.span_ms * 1e3 >=
                  kMinThroughputShare * rate;
    digest.value(rate);
    digest.value(p.drains);
    digest.value(p.cold_launches);
    digest.value(p.busy_ms);
    return p;
  };

  out.nominal = run_phase(cfg.nominal_qps, "core.serving");
  // More host samples of the cold trace: the nominal phase's first trace
  // again, each time in a fresh session. Their modelled times repeat the
  // nominal phase's and go into the digest too.
  for (std::size_t r = 0; r < cfg.cold_repeats; ++r) {
    tt::ServingSession cold(sc);
    std::vector<tt::GpuAddressSpace> cold_spaces = fresh_spaces();
    PhaseStats p;
    p.rate_qps = cfg.nominal_qps;
    p.stream = p.queries = picks.size();
    {
      SpanGuard span(tr, "core.serving.cold_repeat");
      serve_trace(cold, cold_spaces, traces.front(), 0, cfg.nominal_qps,
                  &p.block_host_s);
    }
    const tt::ServingReport rep = cold.report();
    p.dropped = rep.dropped;
    p.failed = rep.failed;
    for (double ms : cold.latencies_ms()) digest.value(ms);
    out.cold_repeats.push_back(std::move(p));
  }
  // Bracket the limit by doubling or halving, then bisect geometrically.
  double lo = 0;
  double hi = 0;
  auto probe = [&](double rate) {
    out.search.push_back(run_phase(rate, "core.serving.search"));
    return out.search.back().meets;
  };
  constexpr int kMaxBracketSteps = 8;
  if (out.nominal.meets) {
    lo = cfg.nominal_qps;
    hi = 2 * lo;
    for (int s = 0; s < kMaxBracketSteps && probe(hi); ++s) {
      lo = hi;
      hi *= 2;
    }
  } else {
    hi = cfg.nominal_qps;
    lo = hi / 2;
    int s = 0;
    for (; s < kMaxBracketSteps && !probe(lo); ++s) {
      hi = lo;
      lo /= 2;
    }
    if (s == kMaxBracketSteps) lo = 0;  // nothing met the limit
  }
  if (lo > 0) {
    for (int s = 0; s < kBisectSteps; ++s) {
      const double mid = std::sqrt(lo * hi);
      if (probe(mid))
        lo = mid;
      else
        hi = mid;
    }
  }
  out.max_qps = lo;
  digest.value(out.max_qps);
  out.digest = digest.get();
  return out;
}

}  // namespace pb
