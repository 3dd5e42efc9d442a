// Ablation: statically-installed ropes (prior work, section 3 / Figure 2)
// vs the paper's autoropes, on the two unguided benchmarks (PC, BH).
//
// The static-ropes rows run the stackless variants with the node cache
// off: a walk over the kernel's installed ropes with no stack and no
// shared-memory help, exactly prior work's traversal. The trade the paper
// describes:
//   + ropes traverse with no stack at all (no stack traffic, fewer cycles)
//   - they need a preprocessing pass over the tree (install time reported
//     in its own table: it is host wall-clock, so the JSON report carries
//     it only under --json-volatile)
//   - they only exist for unguided traversals, and any stack-carried
//     argument must be recomputable from the node (BH needs node depths).
//
// The second table sweeps the stackless variant family (escape-index
// ropes and, on fanout-2 trees, Wald-style index arithmetic) against the
// shared-memory node cache that reuses the bytes the per-warp rope stack
// would have occupied: cache off, fixed capacities, and the default
// sizing ("auto", stack-footprint bytes capped by shared_mem_per_sm).
// Each row reports the cache hit rate, the profiler's stack bucket
// (identically zero for stackless compositions -- nothing pushes), and
// the modelled speedup over the same convergence policy running on the
// per-warp shared-memory rope stack.
#include <cstddef>
#include <iostream>

#include "bench_algos/bh/barnes_hut.h"
#include "bench_algos/pc/point_correlation.h"
#include "bench_common.h"
#include "core/gpu_executors.h"
#include "core/static_ropes.h"
#include "data/generators.h"
#include "data/sorting.h"
#include "spatial/kdtree.h"
#include "spatial/octree.h"
#include "util/csv.h"

using namespace tt;

namespace {

template <StacklessCompatibleKernel K>
void compare(const Cli& cli, Table& table, Table& install,
             const std::string& bench, bool sorted, const K& k,
             GpuAddressSpace& space, const LinearTree& topo) {
  DeviceConfig cfg;
  StaticRopes ropes = install_ropes(topo);
  install.add_row({bench, sorted ? "sorted" : "unsorted",
                   fmt_fixed(ropes.install_ms, 3)});
  for (bool lockstep : {true, false}) {
    const Variant v =
        lockstep ? Variant::kAutoLockstep : Variant::kAutoNolockstep;
    if (!benchx::variant_enabled(cli, v)) continue;
    auto ar = run_gpu_sim(k, space, cfg, GpuMode::from(v));
    GpuMode static_ropes = GpuMode::from(
        lockstep ? Variant::kStacklessLockstep : Variant::kStacklessNolockstep);
    static_ropes.node_cache_bytes = 0;
    auto rp = run_gpu_sim(k, space, cfg, static_ropes);
    table.add_row({bench, sorted ? "sorted" : "unsorted",
                   lockstep ? "L" : "N", "autoropes",
                   fmt_fixed(ar.time.total_ms, 3),
                   std::to_string(ar.stats.dram_transactions)});
    table.add_row({bench, sorted ? "sorted" : "unsorted",
                   lockstep ? "L" : "N", "static-ropes",
                   fmt_fixed(rp.time.total_ms, 3),
                   std::to_string(rp.stats.dram_transactions)});
  }
}

// The stackless x cache-capacity sweep. Each eligible stackless variant
// runs with the node cache off, at fixed capacities, and at the default
// sizing; the baseline for the speedup column is the autoropes
// composition with the same convergence policy (per-warp shared-memory
// rope stack). Kernels that cannot carry ropes contribute no rows.
template <RopeCompatibleKernel K>
void stackless_sweep(const Cli& cli, Table& table, const std::string& bench,
                     bool sorted, const K& k, GpuAddressSpace& space) {
  if constexpr (StacklessCompatibleKernel<K>) {
    DeviceConfig cfg;
    struct CachePoint {
      const char* label;  // "Cache(KiB)" cell
      std::size_t bytes;  // GpuMode::node_cache_bytes
    };
    constexpr CachePoint kPoints[] = {{"off", 0},
                                      {"2", 2 * 1024},
                                      {"8", 8 * 1024},
                                      {"32", 32 * 1024},
                                      {"auto", GpuMode::kNodeCacheFreedStack}};
    for (Variant v : {Variant::kStacklessLockstep,
                      Variant::kStacklessNolockstep, Variant::kIndexWalk}) {
      if (!kernel_variant_eligible<K>(v)) continue;
      if (!benchx::variant_enabled(cli, v)) continue;
      const Variant base_v = variant_is_lockstep(v)
                                 ? Variant::kAutoLockstep
                                 : Variant::kAutoNolockstep;
      auto base = run_gpu_sim(k, space, cfg, GpuMode::from(base_v));
      for (const CachePoint& pt : kPoints) {
        GpuMode mode = GpuMode::from(v);
        mode.node_cache_bytes = pt.bytes;
        auto run = run_gpu_sim(k, space, cfg, mode);
        const std::uint64_t lookups =
            run.stats.smem_cache_hits + run.stats.smem_cache_misses;
        const double hit_pct =
            lookups == 0 ? 0.0
                         : 100.0 * static_cast<double>(run.stats.smem_cache_hits) /
                               static_cast<double>(lookups);
        table.add_row(
            {bench, sorted ? "sorted" : "unsorted", variant_name(v), pt.label,
             fmt_fixed(run.time.total_ms, 3),
             std::to_string(run.stats.dram_transactions), fmt_fixed(hit_pct, 1),
             fmt_fixed(run.stats.bucket_cycles(CycleBucket::kStack), 0),
             fmt_fixed(base.time.total_ms / run.time.total_ms, 3)});
      }
    }
  } else {
    (void)cli;
    (void)table;
    (void)bench;
    (void)sorted;
    (void)k;
    (void)space;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("ablation_ropes: prior-work static ropes vs autoropes (section 3)");
  benchx::add_common_flags(cli);
  return benchx::run_main(cli, argc, argv, "ablation_ropes", [&]() -> int {
    Table table({"Benchmark", "Order", "Type", "Technique", "Time(ms)",
                 "DRAM txn"});
    Table install({"Benchmark", "Order", "Install(ms)"});
    Table sweep({"Benchmark", "Order", "Variant", "Cache(KiB)", "Time(ms)",
                 "DRAM txn", "Hit%", "Stack cyc", "Speedup vs stack"});
    const auto n = static_cast<std::size_t>(cli.get_int("points"));
    for (bool sorted : {true, false}) {
      {
        PointSet pts = gen_covtype_like(n, 7, 21);
        pts.permute(sorted ? tree_order(pts, 8) : shuffled_order(n, 21));
        KdTree tree = build_kdtree(pts, 8);
        float r = pc_pick_radius(pts, cli.get_double("pc-neighbors"), 21);
        GpuAddressSpace space;
        PointCorrelationKernel k(tree, pts, r, space);
        compare(cli, table, install, "PointCorrelation", sorted, k, space,
                tree.topo);
        stackless_sweep(cli, sweep, "PointCorrelation", sorted, k, space);
      }
      {
        BodySet b = gen_plummer(n, 22);
        if (sorted) b.pos.permute(morton_order(b.pos));
        Octree tree = build_octree(b.pos, b.mass);
        GpuAddressSpace space;
        BarnesHutKernel k(tree, b.pos,
                          static_cast<float>(cli.get_double("theta")), 1e-4f,
                          space);
        compare(cli, table, install, "Barnes-Hut", sorted, k, space,
                tree.topo);
        stackless_sweep(cli, sweep, "Barnes-Hut", sorted, k, space);
      }
    }
    benchx::emit(table, cli.get_flag("csv"));
    std::cout << "\n";
    benchx::emit(install, cli.get_flag("csv"));
    if (sweep.rows() > 0) {
      std::cout << "\n";
      benchx::emit(sweep, cli.get_flag("csv"));
    }
    obs::RunReport report = benchx::make_report(cli, "ablation_ropes");
    report.add_table("ablation_ropes", table);
    report.add_table("ropes_install", install, /*volatile_data=*/true);
    report.add_table("stackless_cache_sweep", sweep);
    if (!benchx::maybe_write_report(cli, report)) return 1;
    return 0;
  });
}
