#include "core/launch.h"

#include "simt/executor.h"

namespace tt {

LaunchTotals finish_launch(const LaunchRun& run,
                           const std::vector<KernelStats>& per_slot,
                           const std::optional<SelectionInfo>& selection,
                           const DeviceConfig& cfg, obs::TraceSink* trace,
                           obs::ProfileSink* profile) {
  LaunchTotals t;
  if (run.overflow.overflowed()) {
    t.overflow = std::string("variant ") + variant_name(run.mode.variant) +
                 ", warp " + std::to_string(run.overflow.warp()) + ", " +
                 std::to_string(run.overflow.entries()) +
                 " entries, stack_bound " +
                 std::to_string(run.shape.stack_bound);
    return t;
  }
  t.stats = merge_stats(per_slot);
  t.time = estimate_time_balanced(instr_cycles_of(per_slot), t.stats, cfg);
  if (selection) {
    t.stats.note_sampling_cycles(selection->sampling_cycles);
    const double cycles_per_ms = cfg.clock_ghz * 1e6;
    t.time.compute_ms += selection->sampling_cycles / cycles_per_ms;
    t.time.total_ms = std::max(t.time.compute_ms, t.time.memory_ms);
    t.time.memory_bound = t.time.memory_ms > t.time.compute_ms;
    if (trace)
      trace->record_launch(
          obs::TraceEventKind::kSelect, 0xffffffffu,
          static_cast<std::uint32_t>(selection->samples), 0,
          selection->chosen == Variant::kAutoLockstep ? 1u : 0u);
  }
  if (profile) {
    const obs::ProfileCollector merged = profile->merged();
    t.profile = obs::make_profile_report(t.stats, cfg, &merged);
  }
  return t;
}

}  // namespace tt
