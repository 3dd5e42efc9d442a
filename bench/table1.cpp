// Table 1 reproduction: performance summary of the transformed traversals.
//
// For every benchmark x input x {sorted, unsorted} x {lockstep (L),
// non-lockstep (N)} this prints: modelled GPU traversal time, average
// nodes visited per point (per warp for L), speedup vs the 1-thread and
// modelled 32-thread CPU runs, and the improvement of the autoropes GPU
// variant over the equivalent naive recursive GPU variant -- the same
// columns as the paper's Table 1.
//
// Absolute times come from the SIMT machine's cost model (DESIGN.md
// section 2), so only ratios and orderings are comparable to the paper.
#include <iostream>

#include "bench_common.h"
#include "util/csv.h"

using namespace tt;

namespace {

void add_rows(Table& table, const BenchRow& row) {
  auto variant_row = [&](bool lockstep) {
    const VariantResult& v = row.result(lockstep ? Variant::kAutoLockstep
                                                 : Variant::kAutoNolockstep);
    if (!v.ok()) {
      const bool skipped = v.error.rfind("skipped", 0) == 0;
      if (skipped) return;  // --variant filtered this row out entirely
      table.add_row({
          algo_name(row.config.algo),
          input_name(row.config.input),
          row.config.sorted ? "sorted" : "unsorted",
          lockstep ? "L" : "N",
          "FAILED", "-", "-", "-", "-", "-",
      });
      return;
    }
    // vsRecurse needs the matching recursive variant; it may have failed
    // or been excluded by --variant.
    const VariantResult& rec = row.result(lockstep ? Variant::kRecLockstep
                                                   : Variant::kRecNolockstep);
    table.add_row({
        algo_name(row.config.algo),
        input_name(row.config.input),
        row.config.sorted ? "sorted" : "unsorted",
        lockstep ? "L" : "N",
        fmt_fixed(v.time_ms, 3),
        fmt_fixed(v.avg_nodes, 0),
        fmt_fixed(row.speedup_vs_1(v), 2),
        fmt_fixed(row.speedup_vs_32(v), 2),
        rec.ok() ? fmt_percent(row.improvement_vs_recursive(lockstep)) : "-",
        fmt_fixed(row.transfer_ms(), 3),
    });
  };
  variant_row(true);
  variant_row(false);

  // auto_select (section 4.4): Type shows the launch decision -- "A[L]"
  // when the sampler dispatched to lockstep, "A[N]" for non-lockstep --
  // and Time(ms) includes the charged sampling cost, so this row being
  // close to the better of L/N *is* the claim the variant makes.
  const VariantResult& av = row.result(Variant::kAutoSelect);
  if (!av.ok()) {
    if (av.error.rfind("skipped", 0) == 0) return;
    table.add_row({
        algo_name(row.config.algo),
        input_name(row.config.input),
        row.config.sorted ? "sorted" : "unsorted",
        "A[?]",
        "FAILED", "-", "-", "-", "-", "-",
    });
    return;
  }
  const bool chose_lockstep =
      av.selection && av.selection->chosen == Variant::kAutoLockstep;
  const VariantResult& rec = row.result(
      chose_lockstep ? Variant::kRecLockstep : Variant::kRecNolockstep);
  table.add_row({
      algo_name(row.config.algo),
      input_name(row.config.input),
      row.config.sorted ? "sorted" : "unsorted",
      chose_lockstep ? "A[L]" : "A[N]",
      fmt_fixed(av.time_ms, 3),
      fmt_fixed(av.avg_nodes, 0),
      fmt_fixed(row.speedup_vs_1(av), 2),
      fmt_fixed(row.speedup_vs_32(av), 2),
      rec.ok() ? fmt_percent(rec.time_ms / av.time_ms - 1.0) : "-",
      fmt_fixed(row.transfer_ms(), 3),
  });
}

// --batch: the selected benchmarks (first input of each, sorted) as ONE
// batched launch through the closed-batch mode of core/serving.h's
// session API (harness run_batch). Per-kernel numbers are
// byte-identical to the solo rows; what changes is the launch/transfer
// accounting, which the summary lines below the table report.
int run_batched(const Cli& cli, obs::RunReport& report,
                const benchx::ChromeTrace& chrome) {
  BatchConfig bc;
  bc.variant = variant_from_name(cli.get_string("batch-variant"));
  bc.policy = batch_policy_from_name(cli.get_string("batch-policy"));
  const long long grid_limit = cli.get_int("batch-grid-limit");
  if (grid_limit < 0)
    throw std::invalid_argument("--batch-grid-limit must be >= 0");
  bc.grid_limit = static_cast<std::size_t>(grid_limit);
  bc.profile = cli.get_flag("profile");
  bc.chrome = chrome.collector();
  for (Algo a : benchx::parse_algos(cli.get_string("benchmarks")))
    bc.items.push_back(
        benchx::config_from(cli, a, inputs_for(a).front(), /*sorted=*/true));

  BatchResult b = run_batch(bc);
  report.set_batch(b);

  Table table({"Kernel", "Benchmark", "Input", "Type", "Time(ms)", "AvgNodes",
               "SoloXfer(ms)"});
  for (const BatchKernelRow& k : b.kernels) {
    if (!k.result.ok()) {
      table.add_row({k.kernel_name, algo_name(k.config.algo),
                     input_name(k.config.input), "-", "FAILED", "-", "-"});
      continue;
    }
    std::string type = variant_name(bc.variant);
    if (k.result.selection)
      type = k.result.selection->chosen == Variant::kAutoLockstep ? "A[L]"
                                                                  : "A[N]";
    table.add_row({
        k.kernel_name,
        algo_name(k.config.algo),
        input_name(k.config.input),
        type,
        fmt_fixed(k.result.time_ms, 3),
        fmt_fixed(k.avg_nodes, 0),
        fmt_fixed(k.solo_transfer_ms(b.transfer), 3),
    });
  }
  benchx::emit(table, cli.get_flag("csv"));
  report.add_table("table1_batch", table);

  std::cerr << "# batch: " << b.kernels.size() << " kernels, policy "
            << batch_policy_name(b.policy) << ", residency " << b.residency
            << ", " << b.total_chunks << " chunks over " << b.rounds
            << " rounds (" << b.switches << " kernel switches)\n"
            << "# transfer: amortized " << fmt_fixed(b.amortized_transfer_ms(), 3)
            << " ms vs summed solo " << fmt_fixed(b.summed_solo_transfer_ms(), 3)
            << " ms\n";

  int failed = 0;
  for (const BatchKernelRow& k : b.kernels)
    if (!k.result.ok()) {
      std::cerr << "# batch kernel failed: " << k.result.error << "\n";
      ++failed;
    }

  const std::size_t devices = cli.get_count("devices");
  const std::size_t shard_chunk = cli.get_count("shard-chunk");
  if (devices > 1) {
    // Re-run the same items sharded across the device group; the merged
    // results are byte-identical to the batch by the sharding contract,
    // so this only adds the multi-device makespan accounting.
    ShardingConfig sc;
    sc.items = bc.items;
    sc.variant = bc.variant;
    sc.policy = bc.policy;
    sc.devices = devices;
    sc.chunk_points = shard_chunk;
    sc.grid_limit = bc.grid_limit;
    ShardingRunSummary sharded = run_sharding(sc);
    for (const ShardingKernelReport& k : sharded.kernels)
      if (!k.ok()) {
        std::cerr << "# sharded kernel failed: " << k.error << "\n";
        ++failed;
      }
    std::cerr << "# sharded: " << sharded.devices << " devices, solo "
              << fmt_fixed(sharded.single_device_ms(), 3)
              << " ms -> makespan " << fmt_fixed(sharded.makespan_ms(), 3)
              << " ms (" << fmt_fixed(sharded.speedup(), 2) << "x)\n";
    report.set_sharding(sharded);
  }

  if (!benchx::maybe_write_report(cli, report)) return 1;
  if (!chrome.write()) return 1;
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(
      "table1: paper Table 1 -- per-variant traversal time, avg nodes, "
      "speedups vs CPU, improvement vs recursive GPU");
  benchx::add_common_flags(cli);
  cli.add_flag("batch", false,
               "run the selected benchmarks (first input, sorted) as one "
               "batched multi-kernel launch instead of the per-row grid");
  cli.add_string("batch-policy", "round_robin",
                 "batch chunk interleaving: round_robin or sequential "
                 "(accounting only; results are identical)");
  cli.add_string("batch-variant", "auto_select",
                 "the composition every batched launch simulates");
  cli.add_int("batch-grid-limit", 0,
              "Figure 9b strip-mining limit per launch (0 = no limit)");
  cli.add_int("devices", 1,
              "--batch only: also shard each batched kernel across this "
              "many simulated devices (core/device_group.h) and embed the "
              "schema-v6 \"devices\" block in the --json report");
  cli.add_int("shard-chunk", 1024,
              "--batch only: points per pipelined upload chunk for the "
              "--devices sharded run");
  return benchx::run_main(cli, argc, argv, "table1", [&]() -> int {
    benchx::ChromeTrace chrome(cli);
    if (cli.get_flag("batch")) {
      obs::RunReport report = benchx::make_report(cli, "table1");
      return run_batched(cli, report, chrome);
    }
    Table table({"Benchmark", "Input", "Order", "Type", "Time(ms)",
                 "AvgNodes", "vs1T", "vs32T", "vsRecurse", "Xfer(ms)"});
    obs::RunReport report = benchx::make_report(cli, "table1");
    for (Algo a : benchx::parse_algos(cli.get_string("benchmarks"))) {
      auto analysis = analysis_for(a);
      std::cerr << "# " << algo_name(a) << ": "
                << analysis.call_sets.size() << " call set(s), "
                << (analysis.cls == ir::TraversalClass::kUnguided ? "unguided"
                                                                  : "guided")
                << "\n";
      for (InputKind in : inputs_for(a))
        for (bool sorted : {true, false}) {
          BenchRow row = run_bench(
              benchx::config_from(cli, a, in, sorted, chrome.collector()));
          add_rows(table, row);
          report.add_row(row);
          std::cerr << "# done " << algo_name(a) << "/" << input_name(in)
                    << (sorted ? " sorted" : " unsorted")
                    << " (cpu t1 " << fmt_fixed(row.cpu_t1_ms, 1)
                    << " ms)\n";
        }
    }
    benchx::emit(table, cli.get_flag("csv"));
    report.add_table("table1", table, /*volatile_data=*/true);
    if (!benchx::maybe_write_report(cli, report)) return 1;
    if (!chrome.write()) return 1;
    return 0;
  });
}
