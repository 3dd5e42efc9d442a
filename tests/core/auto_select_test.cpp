// Acceptance test for the section-4.4 adaptive variant: for all five
// Table-1 benchmarks, auto_select must dispatch to lockstep on spatially
// sorted inputs (Morton and kd-tree leaf order) and to non-lockstep on
// shuffled inputs, reproduce the chosen composition's results
// byte-for-byte, and report total cycles = chosen-variant cycles +
// sampling cycles. Kernels are built by the harness's prepare_kernel and
// run through the type-erased batch API (one-launch batches are
// byte-identical to solo runs by the batching contract).
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_algos/harness.h"
#include "core/batch_scheduler.h"
#include "core/profiler.h"
#include "obs/trace.h"

namespace tt {
namespace {

const char* kBenchNames[] = {"bh", "pc", "knn", "nn", "vp"};

Algo algo_of(const std::string& name) {
  if (name == "bh") return Algo::kBH;
  if (name == "pc") return Algo::kPC;
  if (name == "knn") return Algo::kKNN;
  if (name == "nn") return Algo::kNN;
  if (name == "vp") return Algo::kVP;
  throw std::invalid_argument("unknown benchmark: " + name);
}

// The canonical Table-1 input of `name` (plummer for bh, covtype for the
// tree benchmarks) at 2048 points.
BenchConfig config_for(const std::string& name, bool sorted) {
  BenchConfig c;
  c.algo = algo_of(name);
  c.input = inputs_for(c.algo).front();
  c.n = 2048;
  c.seed = 42;
  c.sorted = sorted;
  return c;
}

// Sorted-input cases the selection must classify as lockstep-worthy:
// Morton order applies to <= 3 dimensions (BH bodies; a 3-d uniform input
// for the tree benchmarks), kd-tree leaf order to the 7-dim Table-1
// inputs. Both spatial sorts must make adjacent traversals similar.
std::vector<std::pair<const char*, BenchConfig>> sorted_configs(
    const std::string& name) {
  const BenchConfig base = config_for(name, /*sorted=*/true);
  if (name == "bh") return {{"morton", base}};
  BenchConfig low_dim = base;
  low_dim.input = InputKind::kUniform;
  low_dim.dim = 3;
  return {{"morton", low_dim}, {"tree", base}};
}

// One-launch batch under variant `v`; the LaunchResult carries the same
// isolated measurements a solo run_gpu_sim would produce.
LaunchResult run_one(const std::shared_ptr<KernelHandle>& handle,
                     GpuAddressSpace& space, GpuMode mode,
                     obs::TraceSink* trace = nullptr) {
  LaunchSpec spec;
  spec.kernel = handle;
  spec.space = &space;
  spec.mode = mode;
  spec.trace = trace;
  BatchRun run = run_gpu_batch(std::span<const LaunchSpec>(&spec, 1),
                               DeviceConfig{});
  return std::move(run.launches.front());
}

void expect_selects(const std::shared_ptr<KernelHandle>& handle,
                    GpuAddressSpace& space, bool want_lockstep) {
  const GpuMode mode = GpuMode::from(Variant::kAutoSelect);
  obs::TraceSink trace;
  LaunchResult g = run_one(handle, space, mode, &trace);
  ASSERT_TRUE(g.ok()) << g.error;
  ASSERT_TRUE(g.selection.has_value());
  const SelectionInfo& sel = *g.selection;
  EXPECT_EQ(sel.chosen, want_lockstep ? Variant::kAutoLockstep
                                      : Variant::kAutoNolockstep)
      << "lift " << sel.mean_similarity - sel.baseline_similarity
      << " (mean " << sel.mean_similarity << ", baseline "
      << sel.baseline_similarity << ") vs threshold " << sel.threshold;
  EXPECT_EQ(sel.samples, mode.profile_samples);
  EXPECT_EQ(sel.threshold, kSimilarityLiftThreshold);
  EXPECT_GT(sel.sampling_cycles, 0.0);
  EXPECT_EQ(g.variant, sel.chosen);

  // Byte-identical to the dispatched composition, with exactly the
  // sampling cost charged on top of its cycles.
  LaunchResult direct = run_one(handle, space, GpuMode::from(sel.chosen));
  ASSERT_TRUE(direct.ok()) << direct.error;
  ASSERT_EQ(g.results.size(), direct.results.size());
  EXPECT_EQ(0, std::memcmp(g.results.data(), direct.results.data(),
                           g.results.size()));
  EXPECT_EQ(g.per_point_visits, direct.per_point_visits);
  EXPECT_EQ(g.per_warp_pops, direct.per_warp_pops);
  EXPECT_DOUBLE_EQ(g.stats.instr_cycles,
                   direct.stats.instr_cycles + sel.sampling_cycles);
  EXPECT_GT(g.time.compute_ms, direct.time.compute_ms);

  // The launch decision lands in the trace as a single kSelect event.
  ASSERT_EQ(trace.launch_events().size(), 1u);
  const obs::TraceEvent& e = trace.launch_events().front();
  EXPECT_EQ(e.kind, obs::TraceEventKind::kSelect);
  EXPECT_EQ(e.aux, want_lockstep ? 1u : 0u);
  EXPECT_EQ(e.mask, sel.samples);
  EXPECT_EQ(trace.merged().size(), trace.total_events());
  EXPECT_EQ(trace.merged().back().kind, obs::TraceEventKind::kSelect);
}

class AutoSelectAcceptance
    : public ::testing::TestWithParam<const char*> {};

TEST_P(AutoSelectAcceptance, SortedOrdersPickLockstep) {
  for (const auto& [order, cfg] : sorted_configs(GetParam())) {
    SCOPED_TRACE(order);
    auto pk = prepare_kernel(cfg);
    expect_selects(pk->handle, pk->space, true);
  }
}

TEST_P(AutoSelectAcceptance, ShuffledOrderPicksNonLockstep) {
  auto pk = prepare_kernel(config_for(GetParam(), /*sorted=*/false));
  expect_selects(pk->handle, pk->space, false);
}

TEST(AutoSelect, ZeroSamplesRejected) {
  auto pk = prepare_kernel(config_for("pc", /*sorted=*/true));
  GpuMode mode = GpuMode::from(Variant::kAutoSelect);
  mode.profile_samples = 0;
  LaunchSpec spec;
  spec.kernel = pk->handle;
  spec.space = &pk->space;
  spec.mode = mode;
  EXPECT_THROW(run_gpu_batch(std::span<const LaunchSpec>(&spec, 1),
                             DeviceConfig{}),
               std::invalid_argument);
}

TEST(AutoSelect, DeterministicAcrossRuns) {
  const BenchConfig cfg = config_for("nn", /*sorted=*/false);
  auto pk1 = prepare_kernel(cfg);
  auto pk2 = prepare_kernel(cfg);
  const GpuMode mode = GpuMode::from(Variant::kAutoSelect);
  LaunchResult first = run_one(pk1->handle, pk1->space, mode);
  LaunchResult again = run_one(pk2->handle, pk2->space, mode);
  ASSERT_TRUE(first.selection.has_value());
  ASSERT_TRUE(again.selection.has_value());
  EXPECT_EQ(again.selection->chosen, first.selection->chosen);
  EXPECT_DOUBLE_EQ(again.selection->mean_similarity,
                   first.selection->mean_similarity);
  EXPECT_DOUBLE_EQ(again.selection->sampling_cycles,
                   first.selection->sampling_cycles);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, AutoSelectAcceptance,
                         ::testing::ValuesIn(kBenchNames),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace tt
