// Threshold / sample-count sweep of the section-4.4 auto_select sampler.
//
// For every benchmark x {morton, tree, shuffled} point order, the ground
// truth is whichever autoropes composition the cost model says is faster
// for that cell. The sweep then asks, for each (samples, threshold)
// operating point: how often does the sampler's dispatch disagree with
// that ground truth (mis-selection rate), and how much modelled time does
// the sampling itself cost relative to the dispatched variant's runtime
// (overhead)? Thresholds apply to the similarity *lift* (adjacent-pair
// mean minus random-pair baseline; see core/profiler.h for why raw
// similarity is not comparable across kernels).
//
// The HeuristicFloor column counts cells where even a *perfect* sorted
// detector would disagree with the oracle: sortedness does not fully
// determine the modelled winner (lockstep can win on shuffled inputs when
// work expansion stays low, and vice versa). The sampler's own error is
// Misselects - HeuristicFloor; at the default operating point (32
// samples, lift threshold 0.15) it should be zero, and the sweep shows
// how far samples/threshold can move before that degrades.
//
// Every cell is built by the harness's prepare_kernel (the same builder
// behind run_bench and the batched, served and sharded runs) and runs
// through the type-erased batch API.
#include <array>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/batch_scheduler.h"
#include "core/profiler.h"
#include "util/csv.h"

using namespace tt;

namespace {

struct Cell {
  double mean_similarity = 0;  // per sample count, filled in the sweep
  double baseline_similarity = 0;
  double sampling_cycles = 0;  // auto_select's charge for the samples
  bool order_is_sorted = false;  // cell built with a spatial sort?
  bool best_is_lockstep = false;
  double best_cycles = 0;  // instr cycles of the faster composition
};

// The point orders of section 4.4. The harness sorts a <= 3-d input into
// Morton order and a higher-dimensional one into kd-tree leaf order, so
// the Morton cells of the tree benchmarks use the uniform 3-d input.
struct Order {
  const char* name;
  bool sorted;
  bool low_dim;
};
constexpr Order kOrders[] = {{"morton", true, true},
                             {"tree", true, false},
                             {"shuffled", false, false}};

}  // namespace

int main(int argc, char** argv) {
  Cli cli(
      "selection_sweep: mis-selection rate and sampling overhead of the "
      "section-4.4 auto_select sampler across thresholds and sample "
      "counts, benchmarks x {morton, tree, shuffled} orders");
  benchx::add_common_flags(cli);
  return benchx::run_main(cli, argc, argv, "selection_sweep", [&]() -> int {
    const std::vector<std::size_t> sample_counts{2, 4, 8, 16, 32, 64};
    const std::vector<double> thresholds{0.05, 0.10, 0.15, 0.20, 0.25,
                                         0.30, 0.35, 0.40, 0.45};

    // Per (cell, sample count): the measured mean similarity and visit
    // charge. Thresholding is then arithmetic, so one profile run per
    // sample count covers the whole threshold axis.
    std::vector<std::vector<Cell>> by_samples(sample_counts.size());
    for (Algo a : benchx::parse_algos(cli.get_string("benchmarks"))) {
      for (const Order& order : kOrders) {
        if (a == Algo::kBH && order.sorted && !order.low_dim)
          continue;  // the harness never tree-orders 3-d bodies
        const InputKind input = a == Algo::kBH ? InputKind::kPlummer
                                : order.low_dim ? InputKind::kUniform
                                                : InputKind::kCovtype;
        BenchConfig cfg = benchx::config_from(cli, a, input, order.sorted);
        if (input == InputKind::kUniform) cfg.dim = 3;

        std::unique_ptr<PreparedKernel> pk = prepare_kernel(cfg);
        const DeviceConfig dev;
        // Both autoropes compositions as one batch (isolated per-launch
        // measurements; byte-identical to solo runs by construction).
        std::array<LaunchSpec, 2> specs{
            LaunchSpec{pk->handle, &pk->space,
                       GpuMode::from(Variant::kAutoLockstep)},
            LaunchSpec{pk->handle, &pk->space,
                       GpuMode::from(Variant::kAutoNolockstep)}};
        BatchRun run = run_gpu_batch(specs, dev);
        const LaunchResult& lock = run.launches[0];
        const LaunchResult& nolock = run.launches[1];
        const bool best_lockstep = lock.time.total_ms <= nolock.time.total_ms;
        for (std::size_t si = 0; si < sample_counts.size(); ++si) {
          ProfileReport p =
              pk->handle->profile(sample_counts[si], cfg.profile_seed);
          Cell c;
          c.mean_similarity = p.mean_similarity;
          c.baseline_similarity = p.baseline_similarity;
          c.sampling_cycles = sampling_cycles(p.sampled_visits, dev);
          c.order_is_sorted = order.sorted;
          c.best_is_lockstep = best_lockstep;
          c.best_cycles = best_lockstep ? lock.stats.instr_cycles
                                        : nolock.stats.instr_cycles;
          by_samples[si].push_back(c);
        }
        std::cerr << "# profiled " << pk->handle->name() << "/" << order.name
                  << "\n";
      }
    }

    Table table({"Samples", "Threshold", "MisselectRate", "Misselects",
                 "HeuristicFloor", "Cells", "MeanOverhead%", "MaxOverhead%"});
    for (std::size_t si = 0; si < sample_counts.size(); ++si) {
      const std::vector<Cell>& cells = by_samples[si];
      if (cells.empty()) continue;
      for (double threshold : thresholds) {
        std::size_t miss = 0, floor = 0;
        double overhead_sum = 0, overhead_max = 0;
        for (const Cell& c : cells) {
          const bool picks_lockstep =
              c.mean_similarity - c.baseline_similarity >= threshold;
          if (picks_lockstep != c.best_is_lockstep) ++miss;
          if (c.order_is_sorted != c.best_is_lockstep) ++floor;
          const double overhead =
              c.best_cycles > 0 ? 100.0 * c.sampling_cycles / c.best_cycles
                                : 0;
          overhead_sum += overhead;
          overhead_max = std::max(overhead_max, overhead);
        }
        table.add_row({std::to_string(sample_counts[si]),
                       fmt_fixed(threshold, 2),
                       fmt_fixed(static_cast<double>(miss) /
                                     static_cast<double>(cells.size()),
                                 3),
                       std::to_string(miss), std::to_string(floor),
                       std::to_string(cells.size()),
                       fmt_fixed(overhead_sum /
                                     static_cast<double>(cells.size()),
                                 3),
                       fmt_fixed(overhead_max, 3)});
      }
    }
    benchx::emit(table, cli.get_flag("csv"));

    obs::RunReport report = benchx::make_report(cli, "selection_sweep");
    report.add_table("selection_sweep", table);
    if (!benchx::maybe_write_report(cli, report)) return 1;
    return 0;
  });
}
