// Robustness check for the simulator substitution (DESIGN.md section 6):
// the paper's qualitative conclusions should not hinge on the cost-model
// constants. This sweeps memory bandwidth, per-transaction compute cost
// proxies and the recursion overhead across 0.5x..2x and reports, for a
// representative cell (PC covtype), whether each headline ordering holds:
//
//   O1  sorted lockstep beats sorted non-lockstep
//   O2  autoropes-L beats recursive-L (positive "improvement vs recurse")
//   O3  sorted lockstep beats unsorted lockstep
//   O4  static ropes have fewer DRAM transactions than autoropes-N
//
// Beyond the global sweeps, the cycle-attribution profiler (obs/profile.h)
// lets this probe each *layer* separately: stack traffic (c_smem -> the
// StackPolicy's kStack bucket), step control (c_step -> kStep) and warp
// votes (c_vote -> kVote) are perturbed on their own, and a per-layer
// share table plus a margin analysis report which layer each ordering is
// actually sensitive to -- an ordering can only flip under a layer's
// perturbation in proportion to the bucket-cycle gap between the two
// compositions it compares.
#include <array>
#include <cmath>
#include <iostream>

#include "bench_algos/pc/point_correlation.h"
#include "bench_common.h"
#include "core/gpu_executors.h"
#include "data/generators.h"
#include "data/sorting.h"
#include "spatial/kdtree.h"
#include "util/csv.h"

using namespace tt;

namespace {

// One composition's measurement: modelled time plus the per-layer cycle
// split the attribution invariant guarantees sums to instr_cycles.
struct VariantProbe {
  double time_ms = 0;
  double instr_cycles = 0;
  std::array<double, kNumCycleBuckets> buckets{};
};

struct Probe {
  VariantProbe al_sorted, an_sorted, rl_sorted, al_unsorted;
  std::uint64_t ropes_dram = 0, auto_dram = 0;
};

template <class Run>
VariantProbe variant_probe(const Run& g) {
  VariantProbe v;
  v.time_ms = g.time.total_ms;
  v.instr_cycles = g.stats.instr_cycles;
  v.buckets = g.stats.cycle_buckets;
  return v;
}

// `chrome` non-null only for the baseline probe: its four launches make a
// compact reference timeline; tracing every perturbation would multiply
// the file by the sweep count without adding information.
Probe probe(std::size_t n, const DeviceConfig& cfg,
            obs::ChromeTraceCollector* chrome) {
  Probe p{};
  auto sink = [&](const char* label) -> obs::TraceSink* {
    return chrome ? &chrome->begin_launch(std::string("pc_covtype/") + label)
                  : nullptr;
  };
  for (bool sorted : {true, false}) {
    PointSet pts = gen_covtype_like(n, 7, 42);
    pts.permute(sorted ? tree_order(pts, 8) : shuffled_order(n, 42));
    KdTree tree = build_kdtree(pts, 8);
    float r = pc_pick_radius(pts, 24, 42);
    GpuAddressSpace space;
    PointCorrelationKernel k(tree, pts, r, space);
    if (sorted) {
      auto al = run_gpu_sim(k, space, cfg,
                            GpuMode::from(Variant::kAutoLockstep),
                            sink("auto_lockstep_sorted"));
      auto an = run_gpu_sim(k, space, cfg,
                            GpuMode::from(Variant::kAutoNolockstep),
                            sink("auto_nolockstep_sorted"));
      auto rl = run_gpu_sim(k, space, cfg,
                            GpuMode::from(Variant::kRecLockstep),
                            sink("rec_lockstep_sorted"));
      // Static ropes: the stackless per-lane walk with the node cache off.
      GpuMode static_ropes = GpuMode::from(Variant::kStacklessNolockstep);
      static_ropes.node_cache_bytes = 0;
      auto rp = run_gpu_sim(k, space, cfg, static_ropes);
      p.al_sorted = variant_probe(al);
      p.an_sorted = variant_probe(an);
      p.rl_sorted = variant_probe(rl);
      p.ropes_dram = rp.stats.dram_transactions;
      p.auto_dram = an.stats.dram_transactions;
    } else {
      auto al = run_gpu_sim(k, space, cfg,
                            GpuMode::from(Variant::kAutoLockstep),
                            sink("auto_lockstep_unsorted"));
      p.al_unsorted = variant_probe(al);
    }
  }
  return p;
}

double share(const VariantProbe& v, CycleBucket b) {
  return v.instr_cycles == 0
             ? 0.0
             : v.buckets[static_cast<std::size_t>(b)] / v.instr_cycles;
}

// Which layer an ordering is sensitive to: the bucket with the largest
// cycle gap between the compared compositions. Scaling that bucket's
// constant by s moves the instruction-cycle margin by (s - 1) * gap, so
// the largest gap is the lever that flips the ordering first.
struct LayerSensitivity {
  CycleBucket bucket = CycleBucket::kVisit;
  double gap = 0;       // bucket_b - bucket_a, cycles
  double margin = 0;    // instr_b - instr_a, cycles (positive: a wins)
};

LayerSensitivity most_sensitive_layer(const VariantProbe& a,
                                      const VariantProbe& b) {
  LayerSensitivity s;
  s.margin = b.instr_cycles - a.instr_cycles;
  double best = -1;
  for (std::size_t i = 0; i < kNumCycleBuckets; ++i) {
    const double gap = b.buckets[i] - a.buckets[i];
    if (std::abs(gap) > best) {
      best = std::abs(gap);
      s.bucket = static_cast<CycleBucket>(i);
      s.gap = gap;
    }
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("model_sensitivity: do the headline orderings survive 0.5x..2x "
          "perturbations of the cost-model constants -- globally and per "
          "executor layer (stack / step / vote)?");
  benchx::add_common_flags(cli);
  return benchx::run_main(cli, argc, argv, "model_sensitivity", [&]() -> int {
    // The headline orderings compare across variants, so a --variant
    // filter that removes any of them would make the check meaningless.
    benchx::require_variants(cli, {Variant::kAutoLockstep,
                                   Variant::kAutoNolockstep,
                                   Variant::kRecLockstep});
    benchx::ChromeTrace chrome(cli);
    const auto n = static_cast<std::size_t>(cli.get_int("points"));
    Table table({"Perturbation", "Scale", "O1 L<N", "O2 auto<rec",
                 "O3 sorted<unsorted", "O4 ropes<auto"});
    int violations = 0;
    Probe baseline{};

    auto emit = [&](const char* name, double scale, const DeviceConfig& cfg,
                    bool is_baseline = false) {
      Probe p = probe(n, cfg, is_baseline ? chrome.collector() : nullptr);
      if (is_baseline) baseline = p;
      bool o1 = p.al_sorted.time_ms < p.an_sorted.time_ms;
      bool o2 = p.al_sorted.time_ms < p.rl_sorted.time_ms;
      bool o3 = p.al_sorted.time_ms < p.al_unsorted.time_ms;
      bool o4 = p.ropes_dram < p.auto_dram;
      violations += !o1 + !o2 + !o3 + !o4;
      auto yn = [](bool b) { return std::string(b ? "yes" : "NO"); };
      table.add_row({name, fmt_fixed(scale, 2), yn(o1), yn(o2), yn(o3),
                     yn(o4)});
    };

    emit("baseline", 1.0, DeviceConfig{}, /*is_baseline=*/true);
    for (double s : {0.5, 2.0}) {
      DeviceConfig cfg;
      cfg.mem_bandwidth_gbps *= s;
      emit("mem_bandwidth", s, cfg);
    }
    for (double s : {0.5, 2.0}) {
      DeviceConfig cfg;
      cfg.c_visit *= s;
      cfg.c_step *= s;
      emit("compute_costs", s, cfg);
    }
    for (double s : {0.5, 2.0}) {
      DeviceConfig cfg;
      cfg.c_call *= s;
      cfg.frame_bytes = static_cast<int>(cfg.frame_bytes * s);
      emit("recursion_overhead", s, cfg);
    }
    for (double s : {0.5, 2.0}) {
      DeviceConfig cfg;
      cfg.l2_bytes = static_cast<std::size_t>(cfg.l2_bytes * s);
      emit("l2_capacity", s, cfg);
    }
    // Per-layer sweeps: each perturbs ONE executor layer's constant --
    // the charge sites are exclusive to that layer (kernel_stats.h), so
    // any ordering flip here is attributable to that layer alone.
    for (double s : {0.5, 2.0}) {
      DeviceConfig cfg;
      cfg.c_smem *= s;
      emit("stack_layer(c_smem)", s, cfg);
    }
    for (double s : {0.5, 2.0}) {
      DeviceConfig cfg;
      cfg.c_step *= s;
      emit("step_layer(c_step)", s, cfg);
    }
    for (double s : {0.5, 2.0}) {
      DeviceConfig cfg;
      cfg.c_vote *= s;
      emit("vote_layer(c_vote)", s, cfg);
    }
    benchx::emit(table, cli.get_flag("csv"));

    // Where each composition spends its instruction cycles at baseline:
    // one row per StackPolicy x ConvergencePolicy cell of the probe, one
    // column per CycleBucket share. This is the evidence behind the
    // per-layer sweep results -- a layer with a negligible share cannot
    // flip an ordering at 0.5x..2x.
    Table layers({"Cell", "visit%", "step%", "vote%", "call%", "stack%",
                  "mem_stall%", "InstrCycles"});
    auto layer_row = [&](const char* cell, const VariantProbe& v) {
      auto pct = [&](CycleBucket b) {
        return fmt_fixed(share(v, b) * 100.0, 1);
      };
      layers.add_row({cell, pct(CycleBucket::kVisit), pct(CycleBucket::kStep),
                      pct(CycleBucket::kVote), pct(CycleBucket::kCall),
                      pct(CycleBucket::kStack), pct(CycleBucket::kMemStall),
                      fmt_fixed(v.instr_cycles, 0)});
    };
    layer_row("auto_lockstep/sorted", baseline.al_sorted);
    layer_row("auto_nolockstep/sorted", baseline.an_sorted);
    layer_row("rec_lockstep/sorted", baseline.rl_sorted);
    layer_row("auto_lockstep/unsorted", baseline.al_unsorted);
    std::cerr << "# baseline per-layer cycle shares (attribution: buckets "
                 "sum to instr_cycles exactly)\n";
    benchx::emit(layers, cli.get_flag("csv"));

    // Margin analysis: the layer whose bucket-cycle gap between the two
    // compared compositions is largest is the one the ordering is most
    // sensitive to.
    auto describe = [&](const char* ord, const VariantProbe& a,
                        const VariantProbe& b) {
      LayerSensitivity s = most_sensitive_layer(a, b);
      std::cerr << "# " << ord << ": instr margin "
                << fmt_fixed(s.margin, 0) << " cycles; most sensitive layer "
                << cycle_bucket_name(s.bucket) << " (gap "
                << fmt_fixed(s.gap, 0) << " cycles)\n";
    };
    describe("O1 L<N", baseline.al_sorted, baseline.an_sorted);
    describe("O2 auto<rec", baseline.al_sorted, baseline.rl_sorted);
    describe("O3 sorted<unsorted", baseline.al_sorted, baseline.al_unsorted);
    std::cerr << "# O4 ropes<auto compares DRAM transactions; instruction-"
                 "layer constants cannot affect it\n";

    obs::RunReport report = benchx::make_report(cli, "model_sensitivity");
    report.add_table("model_sensitivity", table);
    report.add_table("model_sensitivity_layers", layers);
    if (!benchx::maybe_write_report(cli, report)) return 1;
    if (!chrome.write()) return 1;
    std::cerr << "# ordering violations: " << violations << "\n";
    return violations == 0 ? 0 : 2;
  });
}
