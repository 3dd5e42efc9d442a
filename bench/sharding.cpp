// Sharding harness: the Table 1 kernels run across a simulated
// multi-device group (core/device_group.h). Each kernel's point range is
// chunked at warp granularity, chunks are assigned to devices by the
// selected policy (work-stealing by default), and every device overlaps
// its pipelined chunk uploads with compute. Reported: per-kernel
// single-device-vs-makespan comparison, per-device chunk / steal / busy
// accounting with copy/compute overlap attribution, and the devices x
// chunk-size scaling sweep. Sharded results are verified byte-identical
// to the single-device baseline inside run_sharded, so a wrong merge
// fails the run instead of skewing the numbers. All times are modelled
// milliseconds: the whole report is deterministic and byte-identical
// across OMP_NUM_THREADS settings.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/csv.h"

using namespace tt;

namespace {

// "1,2,4" -> {1,2,4}; rejects empties, zeros and junk.
std::vector<std::size_t> parse_device_list(const std::string& spec) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    std::size_t parsed = 0;
    try {
      std::size_t used = 0;
      parsed = static_cast<std::size_t>(std::stoull(tok, &used));
      if (used != tok.size()) parsed = 0;
    } catch (const std::exception&) {
      parsed = 0;
    }
    if (parsed == 0)
      throw std::invalid_argument(
          "--devices wants a comma-separated list of positive device "
          "counts (e.g. 1,2,4); got '" +
          tok + "'");
    out.push_back(parsed);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

// Aggregate one run into a sweep point: summed transfer attribution over
// every kernel's device shards.
ShardingSweepPoint sweep_point(const ShardingRunSummary& s) {
  ShardingSweepPoint p;
  p.devices = s.devices;
  p.chunk_points = s.chunk_points;
  p.single_device_ms = s.single_device_ms();
  p.makespan_ms = s.makespan_ms();
  p.speedup = s.speedup();
  for (const ShardingKernelReport& k : s.kernels)
    for (const DeviceShard& d : k.devices) {
      p.copy_in_ms += d.transfer.copy_in_ms;
      p.overlap_ms += d.transfer.overlap_ms;
      p.exposed_ms += d.transfer.exposed_ms;
    }
  p.overlap_efficiency = p.copy_in_ms > 0 ? p.overlap_ms / p.copy_in_ms : 0.0;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(
      "sharding: the Table 1 kernels across a simulated multi-device "
      "group -- work-stealing chunk assignment, pipelined copy/compute "
      "overlap per device, and the devices x chunk-size scaling sweep");
  benchx::add_common_flags(cli);
  cli.add_string("devices", "1,2,4",
                 "comma-separated device counts to sweep; the largest is "
                 "the headline run");
  cli.add_int("shard-chunk", 1024,
              "points per pipelined upload chunk (smaller = more overlap, "
              "more per-chunk launch overhead)");
  cli.add_string("shard-policy", "work_stealing",
                 "chunk->device assignment: round_robin, sequential or "
                 "work_stealing");
  cli.add_string("shard-variant", "auto_select",
                 "the composition every sharded launch simulates");
  cli.add_flag("sweep", true,
               "also sweep devices x chunk size (--no-sweep to skip)");

  return benchx::run_main(cli, argc, argv, "sharding", [&]() -> int {
    benchx::ChromeTrace chrome(cli);
    const std::vector<std::size_t> device_counts =
        parse_device_list(cli.get_string("devices"));
    const std::size_t headline_devices =
        *std::max_element(device_counts.begin(), device_counts.end());

    ShardingConfig cfg;
    for (Algo a : benchx::parse_algos(cli.get_string("benchmarks")))
      cfg.items.push_back(benchx::config_from(cli, a, inputs_for(a).front(),
                                              /*sorted=*/true));
    cfg.variant = variant_from_name(cli.get_string("shard-variant"));
    cfg.policy = batch_policy_from_name(cli.get_string("shard-policy"));
    cfg.devices = headline_devices;
    cfg.chunk_points = cli.get_count("shard-chunk");
    cfg.chrome = chrome.collector();

    // Headline run at the largest device count (the only traced one).
    ShardingRunSummary summary = run_sharding(cfg);

    Table head({"Kernel", "Points", "Chunks", "Variant", "Solo(ms)",
                "Makespan(ms)", "Speedup"});
    bool any_failed = false;
    for (const ShardingKernelReport& k : summary.kernels) {
      if (!k.ok()) {
        any_failed = true;
        std::cerr << "sharding: " << k.error << "\n";
        head.add_row({k.kernel_name, std::to_string(k.n_points),
                      std::to_string(k.n_chunks), variant_name(k.variant),
                      "error", "error", "error"});
        continue;
      }
      head.add_row({k.kernel_name, std::to_string(k.n_points),
                    std::to_string(k.n_chunks), variant_name(k.variant),
                    fmt_fixed(k.single_device_ms, 3),
                    fmt_fixed(k.makespan_ms, 3), fmt_fixed(k.speedup, 2)});
    }
    head.add_row({"(pool)", "", "", "",
                  fmt_fixed(summary.single_device_ms(), 3),
                  fmt_fixed(summary.makespan_ms(), 3),
                  fmt_fixed(summary.speedup(), 2)});
    benchx::emit(head, cli.get_flag("csv"));

    Table dev_table({"Kernel", "Dev", "Chunks", "Points", "Rounds", "Steals",
                     "Compute(ms)", "CopyIn(ms)", "Overlap(ms)",
                     "Exposed(ms)", "Busy(ms)"});
    for (const ShardingKernelReport& k : summary.kernels) {
      if (!k.ok()) continue;
      for (const DeviceShard& d : k.devices)
        dev_table.add_row(
            {k.kernel_name, std::to_string(d.device),
             std::to_string(d.chunks), std::to_string(d.points),
             std::to_string(d.rounds), std::to_string(d.steals),
             fmt_fixed(d.time.total_ms, 3),
             fmt_fixed(d.transfer.copy_in_ms, 3),
             fmt_fixed(d.transfer.overlap_ms, 3),
             fmt_fixed(d.transfer.exposed_ms, 3), fmt_fixed(d.busy_ms, 3)});
    }
    benchx::emit(dev_table, cli.get_flag("csv"));

    std::cerr << "# sharding: " << summary.devices << " devices, chunk "
              << summary.chunk_points << " pts, pool solo "
              << fmt_fixed(summary.single_device_ms(), 3) << " ms -> makespan "
              << fmt_fixed(summary.makespan_ms(), 3) << " ms ("
              << fmt_fixed(summary.speedup(), 2) << "x)\n";

    obs::RunReport report = benchx::make_report(cli, "sharding");
    report.add_table("sharding", head);
    report.add_table("sharding_devices", dev_table);

    if (cli.get_flag("sweep")) {
      // Scaling curve: every requested device count x chunk size, same
      // workload, no tracing so the headline's trace stays clean.
      Table sweep_table({"Devices", "ChunkPts", "Solo(ms)", "Makespan(ms)",
                         "Speedup", "CopyIn(ms)", "Overlap(ms)",
                         "Exposed(ms)", "OverlapEff"});
      for (std::size_t n : device_counts)
        for (std::size_t chunk : {std::size_t{256}, std::size_t{1024},
                                  std::size_t{4096}}) {
          ShardingConfig sc = cfg;
          sc.devices = n;
          sc.chunk_points = chunk;
          sc.chrome = nullptr;
          const ShardingRunSummary sr = run_sharding(sc);
          for (const ShardingKernelReport& k : sr.kernels)
            if (!k.ok()) {
              any_failed = true;
              std::cerr << "sharding: sweep(" << n << "," << chunk
                        << "): " << k.error << "\n";
            }
          const ShardingSweepPoint p = sweep_point(sr);
          summary.sweep.push_back(p);
          sweep_table.add_row(
              {std::to_string(p.devices), std::to_string(p.chunk_points),
               fmt_fixed(p.single_device_ms, 3), fmt_fixed(p.makespan_ms, 3),
               fmt_fixed(p.speedup, 2), fmt_fixed(p.copy_in_ms, 3),
               fmt_fixed(p.overlap_ms, 3), fmt_fixed(p.exposed_ms, 3),
               fmt_fixed(p.overlap_efficiency, 3)});
        }
      benchx::emit(sweep_table, cli.get_flag("csv"));
      report.add_table("sharding_sweep", sweep_table);
    }

    report.set_sharding(summary);
    if (!benchx::maybe_write_report(cli, report)) return 1;
    if (!chrome.write()) return 1;
    return any_failed ? 1 : 0;
  });
}
