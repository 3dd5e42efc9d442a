// TypedJob: the Job interface over one concrete kernel type. Included only
// by the per-kernel job_*.cpp files, so each kernel's run_gpu_sim
// instantiations compile in their own translation unit.
#pragma once

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/cpu_executors.h"
#include "core/gpu_executors.h"
#include "core/static_ropes.h"
#include "jobs.h"
#include "spatial/point_set.h"

namespace pb {

// `keep` owns the data, tree and kernel `k` refers to; `space` is the
// address space the kernel's constructor registered its buffers in.
template <tt::NamedTraversalKernel K, class Eq>
class TypedJob final : public Job {
 public:
  using Result = typename K::Result;
  static_assert(std::is_trivially_copyable_v<Result> && sizeof(Result) >= 4);

  TypedJob(JobSpec spec, const K& k, std::shared_ptr<const void> keep,
           tt::GpuAddressSpace space, std::uint64_t input_digest, Eq eq)
      : spec_(std::move(spec)),
        k_(&k),
        space_(std::move(space)),
        upload_bytes_(space_.footprint_bytes()),
        input_digest_(input_digest),
        eq_(eq),
        handle_(tt::make_kernel_handle(k, std::move(keep))) {}

  [[nodiscard]] const JobSpec& spec() const override { return spec_; }
  [[nodiscard]] std::size_t points() const override {
    return k_->num_points();
  }
  [[nodiscard]] std::uint64_t upload_bytes() const override {
    return upload_bytes_;
  }
  [[nodiscard]] std::uint64_t download_bytes() const override {
    return static_cast<std::uint64_t>(sizeof(Result)) * k_->num_points();
  }
  [[nodiscard]] std::uint64_t input_digest() const override {
    return input_digest_;
  }
  [[nodiscard]] bool eligible(Variant v) const override {
    return tt::kernel_variant_ineligible_reason(*k_, v).empty();
  }

  double run_reference(int threads) override {
    auto run = tt::run_cpu(*k_, tt::CpuVariant::kRecursive, threads,
                           /*keep_per_point=*/true);
    ref_ = std::move(run.results);
    ref_visits_ = std::move(run.per_point_visits);
    return run.wall_ms / 1e3;
  }

  [[nodiscard]] LaunchOutcome launch(Variant v, const tt::DeviceConfig& cfg,
                                     Tracer* tr, int launch_id,
                                     bool corrupt) const override {
    if (ref_.empty())
      throw std::logic_error("TypedJob::launch: reference not run");
    LaunchOutcome o;
    o.variant = v;
    o.points = k_->num_points();
    tt::GpuAddressSpace space = space_;
    const tt::GpuMode mode = tt::GpuMode::from(v);
    std::optional<tt::GpuRun<K>> run;
    {
      SpanGuard span(tr, std::string("core.exec.") + tt::variant_name(v),
                     launch_id);
      const auto t0 = std::chrono::steady_clock::now();
      try {
        run.emplace(tt::run_gpu_sim(*k_, space, cfg, mode));
      } catch (const std::exception& e) {
        o.error = e.what();
      }
      o.host_s = seconds_since(t0);
      span.count("points", static_cast<double>(o.points));
      if (run) {
        span.count("lane_visits",
                   static_cast<double>(run->stats.lane_visits));
        span.count("load_instructions",
                   static_cast<double>(run->stats.load_instructions));
        span.count("segments",
                   static_cast<double>(run->stats.dram_transactions +
                                       run->stats.l2_hit_transactions +
                                       run->stats.smem_cache_hits));
        span.count("modelled_ms", run->time.total_ms);
      }
    }
    if (!run) return o;
    o.stats = run->stats;
    o.time = run->time;
    o.selection = run->selection;
    if (corrupt && !run->results.empty()) {
      // Every result type starts with a 4-byte field; flipping its top
      // exponent / high bit moves it far outside any tolerance.
      auto* b = reinterpret_cast<unsigned char*>(&run->results[0]);
      b[3] ^= 0x40;
    }
    const std::size_t bad = first_mismatch(ref_, run->results, eq_);
    if (bad != std::string::npos) {
      o.error = std::string("reference mismatch: ") + K::kName + " " +
                tt::variant_name(v) + " at point " + std::to_string(bad);
    }
    o.work_expansion = work_expansion(run->per_warp_pops, cfg.warp_size);
    return o;
  }

  [[nodiscard]] std::shared_ptr<tt::KernelHandle> handle() const override {
    return handle_;
  }
  [[nodiscard]] const tt::GpuAddressSpace& base_space() const override {
    return space_;
  }

 private:
  [[nodiscard]] double work_expansion(const std::vector<std::uint32_t>& pops,
                                      int warp_size) const {
    if (pops.empty()) return 0;
    double sum = 0;
    std::size_t warps = 0;
    const auto ws = static_cast<std::size_t>(warp_size);
    for (std::size_t w = 0; w < pops.size(); ++w) {
      std::uint32_t longest = 0;
      const std::size_t end = std::min(ref_visits_.size(), (w + 1) * ws);
      for (std::size_t i = w * ws; i < end; ++i)
        longest = std::max(longest, ref_visits_[i]);
      if (longest == 0) continue;
      sum += static_cast<double>(pops[w]) / longest;
      ++warps;
    }
    return warps ? sum / static_cast<double>(warps) : 0;
  }

  JobSpec spec_;
  const K* k_;
  tt::GpuAddressSpace space_;
  std::uint64_t upload_bytes_;
  std::uint64_t input_digest_;
  Eq eq_;
  std::shared_ptr<tt::KernelHandle> handle_;
  std::vector<Result> ref_;
  std::vector<std::uint32_t> ref_visits_;
};

template <tt::NamedTraversalKernel K, class Eq>
std::unique_ptr<Job> make_typed_job(JobSpec spec, const K& k,
                                    std::shared_ptr<const void> keep,
                                    tt::GpuAddressSpace space,
                                    std::uint64_t input_digest, Eq eq) {
  return std::make_unique<TypedJob<K, Eq>>(std::move(spec), k, std::move(keep),
                                           std::move(space), input_digest, eq);
}

// Times one set-up stage into `slot` and records it as a span.
template <class F>
auto timed_stage(Tracer* tr, const char* name, double& slot, F&& f) {
  SpanGuard span(tr, name);
  const auto t0 = std::chrono::steady_clock::now();
  auto out = f();
  slot += seconds_since(t0);
  return out;
}

// Index of the first result that differs from the reference under `eq`
// (or the shorter length when the sizes differ); npos when all match.
template <class R, class Eq>
[[nodiscard]] std::size_t first_mismatch(const std::vector<R>& ref,
                                         const std::vector<R>& got, Eq eq) {
  const std::size_t n = std::min(ref.size(), got.size());
  for (std::size_t i = 0; i < n; ++i)
    if (!eq(ref[i], got[i])) return i;
  return ref.size() == got.size() ? std::string::npos : n;
}

// The tolerance the repository harness (run_bench) applies to float
// results: relative to max(1, |a|, |b|).
[[nodiscard]] bool nearly_equal(float a, float b, float tol);

[[nodiscard]] std::uint64_t digest_points(const tt::PointSet& pts);

}  // namespace pb
