// The admission--dispatch layer (core/serving.h): drain-policy triggers,
// ring-buffer drops, device backpressure, warm-replay exactness, arrival
// trace determinism, and the zero-delay sanity anchor -- a query served
// alone must pay exactly its solo transfer + modelled compute.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bench_algos/knn/knn.h"
#include "bench_algos/nn/nearest_neighbor.h"
#include "bench_algos/pc/point_correlation.h"
#include "core/gpu_executors.h"
#include "core/serving.h"
#include "data/generators.h"
#include "spatial/kdtree.h"

namespace tt {
namespace {

struct ServingFixtures {
  PointSet pc_pts;
  KdTree pc_tree;
  GpuAddressSpace pc_space;
  float pc_radius = 0;
  std::unique_ptr<PointCorrelationKernel> pc;

  PointSet nn_pts;
  KdTreeNN nn_tree;
  GpuAddressSpace nn_space;
  std::unique_ptr<NnKernel> nn;

  ServingFixtures() {
    pc_pts = gen_covtype_like(400, 7, 91);
    pc_tree = build_kdtree(pc_pts, 8);
    pc_radius = pc_pick_radius(pc_pts, 16, 91);
    pc = std::make_unique<PointCorrelationKernel>(pc_tree, pc_pts, pc_radius,
                                                  pc_space);
    nn_pts = gen_uniform(350, 5, 92);
    nn_tree = build_kdtree_nn(nn_pts);
    nn = std::make_unique<NnKernel>(nn_tree, nn_pts, nn_space);
  }

  [[nodiscard]] QuerySet pc_query(std::uint64_t up = 4096,
                                  std::uint64_t down = 1024) {
    QuerySet q;
    q.spec.kernel = make_kernel_handle(*pc);
    q.spec.space = &pc_space;
    q.spec.mode = GpuMode::from(Variant::kAutoNolockstep);
    q.upload_bytes = up;
    q.download_bytes = down;
    return q;
  }

  [[nodiscard]] QuerySet nn_query(std::uint64_t up = 2048,
                                  std::uint64_t down = 512) {
    QuerySet q;
    q.spec.kernel = make_kernel_handle(*nn);
    q.spec.space = &nn_space;
    q.spec.mode = GpuMode::from(Variant::kAutoNolockstep);
    q.upload_bytes = up;
    q.download_bytes = down;
    return q;
  }
};

ServingConfig relaxed_config() {
  ServingConfig cfg;
  cfg.drain.max_batch = 1;
  cfg.drain.max_delay_ms = 0;
  return cfg;
}

// ---------------------------------------------------------------------
// The sanity anchor: a query served alone, with no batching delay and an
// idle device, completes at exactly its solo transfer + modelled compute.
// ---------------------------------------------------------------------

TEST(ServingSession, ZeroDelayMatchesSoloTransferPlusCompute) {
  ServingFixtures f;
  const GpuMode mode = GpuMode::from(Variant::kAutoNolockstep);
  const auto solo = run_gpu_sim(*f.pc, f.pc_space, DeviceConfig{}, mode);

  ServingConfig cfg = relaxed_config();
  ServingSession session(cfg);
  // Arrivals spaced far wider than any service time: every wave finds the
  // device idle, so queueing contributes nothing.
  for (double arrival : {0.0, 100.0, 200.0})
    ASSERT_TRUE(session.submit(f.pc_query(), arrival));
  session.flush();

  const double expect =
      cfg.transfer.round_trip_ms(4096, 1024, 1) + solo.time.total_ms;
  ASSERT_EQ(session.latencies_ms().size(), 3u);
  for (double lat : session.latencies_ms()) EXPECT_EQ(lat, expect);
  for (double qd : session.queue_delays_ms()) EXPECT_EQ(qd, 0.0);

  const ServingReport r = session.report();
  EXPECT_EQ(r.submitted, 3u);
  EXPECT_EQ(r.completed, 3u);
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_EQ(r.failed, 0u);
  ASSERT_EQ(r.drains.size(), 3u);
  for (const DrainRecord& d : r.drains) {
    EXPECT_EQ(d.n_queries, 1u);
    EXPECT_EQ(d.transfer_ms, d.solo_transfer_ms);  // wave of one saves nothing
    EXPECT_EQ(d.dispatch_ms, d.trigger_ms);
  }
  EXPECT_EQ(r.latency.p50, expect);
  EXPECT_EQ(r.latency.max, expect);
}

// ---------------------------------------------------------------------
// Drain-policy triggers.
// ---------------------------------------------------------------------

TEST(ServingSession, SizeTriggeredDrainsAdmitExactWaves) {
  ServingFixtures f;
  ServingConfig cfg;
  cfg.drain.max_batch = 2;
  cfg.drain.max_delay_ms = 100.0;
  ServingSession session(cfg);
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(session.submit(f.pc_query(), 0.0));
  EXPECT_EQ(session.pending(), 0u);  // both waves fired at size 2
  session.flush();
  const ServingReport r = session.report();
  ASSERT_EQ(r.drains.size(), 2u);
  for (const DrainRecord& d : r.drains) {
    EXPECT_EQ(d.n_queries, 2u);
    EXPECT_EQ(d.trigger_ms, 0.0);
  }
}

TEST(ServingSession, DelayTriggeredDrainFiresAtDeadline) {
  ServingFixtures f;
  ServingConfig cfg;
  cfg.drain.max_batch = 100;
  cfg.drain.max_delay_ms = 0.5;
  ServingSession session(cfg);
  ASSERT_TRUE(session.submit(f.pc_query(), 0.0));
  EXPECT_EQ(session.pending(), 1u);
  // This arrival moves virtual time past the first query's deadline, so
  // the first wave fires at exactly arrival + max_delay -- without the
  // second query in it.
  ASSERT_TRUE(session.submit(f.pc_query(), 10.0));
  session.flush();
  const ServingReport r = session.report();
  ASSERT_EQ(r.drains.size(), 2u);
  EXPECT_EQ(r.drains[0].trigger_ms, 0.5);
  EXPECT_EQ(r.drains[0].n_queries, 1u);
  EXPECT_EQ(r.drains[1].trigger_ms, 10.5);
  EXPECT_EQ(r.drains[1].n_queries, 1u);
}

TEST(ServingSession, DeviceBusyDefersDispatchNotTrigger) {
  ServingFixtures f;
  ServingConfig cfg = relaxed_config();
  ServingSession session(cfg);
  // Both arrive at t=0; waves of one. The second wave's policy fires at 0
  // but the device is still serving the first, so dispatch waits.
  ASSERT_TRUE(session.submit(f.pc_query(), 0.0));
  ASSERT_TRUE(session.submit(f.pc_query(), 0.0));
  session.flush();
  const ServingReport r = session.report();
  ASSERT_EQ(r.drains.size(), 2u);
  EXPECT_EQ(r.drains[0].dispatch_ms, 0.0);
  EXPECT_EQ(r.drains[1].trigger_ms, 0.0);
  EXPECT_EQ(r.drains[1].dispatch_ms,
            r.drains[0].dispatch_ms + r.drains[0].service_ms);
  ASSERT_EQ(session.queue_delays_ms().size(), 2u);
  EXPECT_EQ(session.queue_delays_ms()[1], r.drains[0].service_ms);
}

// ---------------------------------------------------------------------
// Admission-queue overflow: full ring drops, counted, never silent.
// ---------------------------------------------------------------------

TEST(ServingSession, FullRingDropsAndCounts) {
  ServingFixtures f;
  ServingConfig cfg;
  cfg.drain.max_batch = 100;
  cfg.drain.max_delay_ms = 10.0;
  cfg.queue_capacity = 2;
  ServingSession session(cfg);
  EXPECT_TRUE(session.submit(f.pc_query(), 0.0));
  EXPECT_TRUE(session.submit(f.pc_query(), 0.0));
  EXPECT_FALSE(session.submit(f.pc_query(), 0.0));
  EXPECT_FALSE(session.submit(f.pc_query(), 0.0));
  session.flush();
  const ServingReport r = session.report();
  EXPECT_EQ(r.submitted, 4u);
  EXPECT_EQ(r.completed, 2u);
  EXPECT_EQ(r.dropped, 2u);
  ASSERT_EQ(r.drains.size(), 1u);
  EXPECT_EQ(r.drains[0].n_queries, 2u);
}

TEST(ServingSession, RejectsDecreasingArrivalsAndMissingKernel) {
  ServingFixtures f;
  ServingSession session(relaxed_config());
  ASSERT_TRUE(session.submit(f.pc_query(), 5.0));
  EXPECT_THROW(session.submit(f.pc_query(), 4.0), std::invalid_argument);
  QuerySet empty;
  EXPECT_THROW(session.submit(std::move(empty), 6.0), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Warm replay: identical resubmissions reuse the first execution's
// measurements exactly; turning reuse off changes nothing but the cold
// launch count. (Exact by the results-neutrality contract.)
// ---------------------------------------------------------------------

TEST(ServingSession, WarmReplayIsExact) {
  ServingFixtures f;
  // Replay requires identity: the same prepared handle resubmitted, as a
  // serving pool does. (A fresh handle per query is always cold.)
  const QuerySet proto = f.pc_query();
  auto run = [&](bool reuse) {
    ServingConfig cfg = relaxed_config();
    cfg.reuse_identical = reuse;
    ServingSession session(cfg);
    for (double arrival : {0.0, 100.0, 200.0, 300.0}) {
      QuerySet q = proto;
      EXPECT_TRUE(session.submit(std::move(q), arrival));
    }
    session.flush();
    return session;
  };
  ServingSession warm = run(true);
  ServingSession cold = run(false);
  ASSERT_EQ(warm.latencies_ms().size(), 4u);
  EXPECT_EQ(warm.latencies_ms(), cold.latencies_ms());

  const ServingReport wr = warm.report();
  const ServingReport cr = cold.report();
  ASSERT_EQ(wr.drains.size(), 4u);
  EXPECT_EQ(wr.drains[0].cold_launches, 1u);
  for (std::size_t i = 1; i < 4; ++i)
    EXPECT_EQ(wr.drains[i].cold_launches, 0u) << "drain " << i;
  for (const DrainRecord& d : cr.drains) EXPECT_EQ(d.cold_launches, 1u);
}

// Replay keys on the whole GpuMode: launches of one handle that differ only
// in variant, or only in a knob, never replay each other's measurements.
// Every drain's compute time with replay on must equal the time with
// replay off, and an ineligible pairing must fail rather than replay an
// eligible sibling's success.
TEST(ServingSession, WarmReplayKeysOnTheWholeMode) {
  ServingFixtures f;
  std::vector<GpuMode> modes;
  for (Variant v : {Variant::kRecLockstep, Variant::kStacklessLockstep,
                    Variant::kRecNolockstep, Variant::kIndexWalk,
                    Variant::kStacklessNolockstep})
    modes.push_back(GpuMode::from(v));
  GpuMode cache_off = GpuMode::from(Variant::kStacklessNolockstep);
  cache_off.node_cache_bytes = 0;
  modes.push_back(cache_off);
  GpuMode narrow_grid = GpuMode::from(Variant::kRecLockstep);
  narrow_grid.grid_limit = 2;
  modes.push_back(narrow_grid);

  auto drains = [&](bool reuse) {
    ServingConfig cfg = relaxed_config();
    cfg.reuse_identical = reuse;
    ServingSession session(cfg);
    QuerySet q = f.pc_query();
    double arrival = 0;
    for (const GpuMode& m : modes) {
      q.spec.mode = m;
      EXPECT_TRUE(session.submit(q, arrival));
      arrival += 100.0;
    }
    session.flush();
    return session.report().drains;
  };
  const std::vector<DrainRecord> warm = drains(true);
  const std::vector<DrainRecord> cold = drains(false);
  ASSERT_EQ(warm.size(), modes.size());
  ASSERT_EQ(cold.size(), modes.size());
  for (std::size_t i = 0; i < modes.size(); ++i) {
    SCOPED_TRACE(variant_name(modes[i].variant));
    EXPECT_EQ(warm[i].cold_launches, 1u) << "drain " << i;
    EXPECT_EQ(warm[i].compute_ms, cold[i].compute_ms) << "drain " << i;
  }

  // kNN is guided, so index_walk is ineligible: it must count as failed,
  // not replay the rec_nolockstep success submitted before it.
  PointSet pts = gen_covtype_like(256, 7, 93);
  KdTree tree = build_kdtree(pts, 8);
  GpuAddressSpace space;
  KnnKernel knn(tree, pts, 4, space);
  ServingSession session(relaxed_config());
  QuerySet q;
  q.spec.kernel = make_kernel_handle(knn);
  q.spec.space = &space;
  q.spec.mode = GpuMode::from(Variant::kRecNolockstep);
  ASSERT_TRUE(session.submit(q, 0.0));
  q.spec.mode = GpuMode::from(Variant::kIndexWalk);
  ASSERT_TRUE(session.submit(q, 100.0));
  session.flush();
  const ServingReport r = session.report();
  EXPECT_EQ(r.completed, 2u);
  EXPECT_EQ(r.failed, 1u);
}

// ---------------------------------------------------------------------
// Determinism: the same trace through two sessions yields byte-identical
// per-query series (the property the CI OMP 1-vs-4 job pins end to end).
// ---------------------------------------------------------------------

TEST(ServingSession, SameTraceSameReport) {
  ServingFixtures f;
  const std::vector<double> trace = poisson_trace(48, 3000.0, 7);
  auto run = [&]() {
    ServingConfig cfg;
    cfg.drain.max_batch = 4;
    cfg.drain.max_delay_ms = 0.25;
    ServingSession session(cfg);
    for (std::size_t i = 0; i < trace.size(); ++i)
      EXPECT_TRUE(
          session.submit(i % 2 ? f.nn_query() : f.pc_query(), trace[i]));
    session.flush();
    return session;
  };
  ServingSession a = run();
  ServingSession b = run();
  EXPECT_EQ(a.latencies_ms(), b.latencies_ms());
  EXPECT_EQ(a.queue_delays_ms(), b.queue_delays_ms());
  const ServingReport ra = a.report();
  const ServingReport rb = b.report();
  ASSERT_EQ(ra.drains.size(), rb.drains.size());
  for (std::size_t i = 0; i < ra.drains.size(); ++i) {
    EXPECT_EQ(ra.drains[i].dispatch_ms, rb.drains[i].dispatch_ms);
    EXPECT_EQ(ra.drains[i].n_queries, rb.drains[i].n_queries);
    EXPECT_EQ(ra.drains[i].service_ms, rb.drains[i].service_ms);
  }
}

// Mixed-kernel waves amortize transfer: one wave of two distinct kernels
// pays one launch overhead instead of two.
TEST(ServingSession, WaveTransferAmortizesLaunchOverhead) {
  ServingFixtures f;
  ServingConfig cfg;
  cfg.drain.max_batch = 2;
  cfg.drain.max_delay_ms = 10.0;
  ServingSession session(cfg);
  ASSERT_TRUE(session.submit(f.pc_query(), 0.0));
  ASSERT_TRUE(session.submit(f.nn_query(), 0.0));
  session.flush();
  const ServingReport r = session.report();
  ASSERT_EQ(r.drains.size(), 1u);
  const DrainRecord& d = r.drains[0];
  EXPECT_EQ(d.n_queries, 2u);
  EXPECT_NEAR(d.solo_transfer_ms - d.transfer_ms,
              cfg.transfer.launch_overhead_ms, 1e-12);
  EXPECT_EQ(r.amortized_transfer_ms(), d.transfer_ms);
  EXPECT_EQ(r.summed_solo_transfer_ms(), d.solo_transfer_ms);
}

// ---------------------------------------------------------------------
// Percentile summary.
// ---------------------------------------------------------------------

TEST(SummarizeLatency, MatchesLinearInterpolation) {
  LatencySummary s = summarize_latency({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.p50, 2.5);   // rank 1.5 between 2 and 3
  EXPECT_DOUBLE_EQ(s.p95, 3.85);  // rank 2.85 between 3 and 4
  EXPECT_DOUBLE_EQ(s.p99, 3.97);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  const LatencySummary empty = summarize_latency({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.p99, 0.0);
}

// ---------------------------------------------------------------------
// Arrival-trace generators.
// ---------------------------------------------------------------------

TEST(ArrivalTraces, PoissonDeterministicMonotoneSeeded) {
  const auto a = poisson_trace(256, 1000.0, 5);
  const auto b = poisson_trace(256, 1000.0, 5);
  const auto c = poisson_trace(256, 1000.0, 6);
  ASSERT_EQ(a.size(), 256u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (std::size_t i = 1; i < a.size(); ++i)
    EXPECT_GE(a[i], a[i - 1]) << "at " << i;
  // Mean inter-arrival should land near 1 ms at 1000 qps (law of large
  // numbers; generous tolerance, this is a smoke bound not a fit).
  EXPECT_NEAR(a.back() / static_cast<double>(a.size()), 1.0, 0.3);
  EXPECT_THROW((void)poisson_trace(8, 0.0, 1), std::invalid_argument);
}

TEST(ArrivalTraces, BurstyArrivalsLandInOnWindows) {
  const double on_ms = 2.0, off_ms = 3.0;
  const auto a = bursty_trace(200, 4000.0, on_ms, off_ms, 11);
  const auto b = bursty_trace(200, 4000.0, on_ms, off_ms, 11);
  EXPECT_EQ(a, b);
  for (std::size_t i = 1; i < a.size(); ++i)
    EXPECT_GE(a[i], a[i - 1]) << "at " << i;
  for (double t : a) {
    const double phase = std::fmod(t, on_ms + off_ms);
    EXPECT_LE(phase, on_ms + 1e-9) << "arrival " << t << " in OFF window";
  }
  EXPECT_THROW((void)bursty_trace(8, -1.0, 2.0, 2.0, 1),
               std::invalid_argument);
  EXPECT_THROW((void)bursty_trace(8, 100.0, 0.0, 2.0, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace tt
