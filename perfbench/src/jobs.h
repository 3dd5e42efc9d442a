// A job is one generated input, its tree and its kernel, built through
// the public data / spatial / kernel constructors, behind one type-erased
// interface so a workload can hold pc, knn, nn and bh inputs in one list.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/launch.h"
#include "core/variant.h"
#include "simt/address_space.h"
#include "simt/cost_model.h"
#include "simt/device_config.h"
#include "simt/kernel_stats.h"
#include "spatial/point_set.h"
#include "tracer.h"

namespace pb {

using tt::Variant;

struct JobSpec {
  std::string kernel;  // "pc", "knn", "nn" (Covtype-like points) or "bh"
  std::size_t n = 0;   // points or bodies
  std::uint64_t seed = 0;
  bool sorted = true;  // tree/Morton order, else shuffled
};

// Host seconds of the four set-up stages, summed over the jobs built.
struct SetupTimes {
  double generate_s = 0;
  double order_s = 0;
  double build_s = 0;
  double construct_s = 0;
  [[nodiscard]] double total() const {
    return generate_s + order_s + build_s + construct_s;
  }
};

// One solo run_gpu_sim launch, checked against the CPU reference.
struct LaunchOutcome {
  Variant variant = Variant::kAutoSelect;
  std::size_t points = 0;
  std::string error;  // launch error or reference mismatch; empty when ok
  tt::KernelStats stats;
  tt::TimeBreakdown time;
  std::optional<tt::SelectionInfo> selection;
  double host_s = 0;  // inside run_gpu_sim
  // Lockstep launches: mean over warps of (warp pops / longest lane's
  // reference visits), Table 2's work expansion. 0 otherwise.
  double work_expansion = 0;
  [[nodiscard]] bool ok() const { return error.empty(); }
};

class Job {
 public:
  virtual ~Job() = default;

  [[nodiscard]] virtual const JobSpec& spec() const = 0;
  [[nodiscard]] virtual std::size_t points() const = 0;
  // Tree + points registered in the kernel's address space (the bytes a
  // launch ships to the device) and the result bytes coming back.
  [[nodiscard]] virtual std::uint64_t upload_bytes() const = 0;
  [[nodiscard]] virtual std::uint64_t download_bytes() const = 0;
  // FNV-1a over the generated, ordered input coordinates.
  [[nodiscard]] virtual std::uint64_t input_digest() const = 0;
  [[nodiscard]] virtual bool eligible(Variant v) const = 0;

  // run_cpu(kRecursive) with per-point visits kept; returns host seconds.
  virtual double run_reference(int threads) = 0;

  // One run_gpu_sim launch on a fresh copy of the kernel's address space
  // (so every launch sees the same addresses whatever ran before), timed
  // and then checked against the reference, which must have been run.
  // `corrupt` damages the first result before the check (the benchmark's
  // own test that a wrong result is caught).
  [[nodiscard]] virtual LaunchOutcome launch(Variant v,
                                             const tt::DeviceConfig& cfg,
                                             Tracer* tr, int launch_id,
                                             bool corrupt) const = 0;

  // For the serving path and the section-4.4 sampler.
  [[nodiscard]] virtual std::shared_ptr<tt::KernelHandle> handle() const = 0;
  [[nodiscard]] virtual const tt::GpuAddressSpace& base_space() const = 0;
};

// Build one job, adding each stage's host time to `times` and recording a
// span per stage. Point jobs (pc, knn, nn) sample `pool`
// (make_covtype_pool in point_inputs.h); bh generates its own bodies.
[[nodiscard]] std::unique_ptr<Job> make_job(const JobSpec& spec,
                                            const tt::PointSet& pool,
                                            SetupTimes& times, Tracer* tr);

// Per-kernel builders behind make_job (one translation unit each).
std::unique_ptr<Job> make_pc_job(const JobSpec&, const tt::PointSet&,
                                 SetupTimes&, Tracer*);
std::unique_ptr<Job> make_knn_job(const JobSpec&, const tt::PointSet&,
                                  SetupTimes&, Tracer*);
std::unique_ptr<Job> make_nn_job(const JobSpec&, const tt::PointSet&,
                                 SetupTimes&, Tracer*);
std::unique_ptr<Job> make_bh_job(const JobSpec&, SetupTimes&, Tracer*);

// 64-bit FNV-1a, used for the input and modelled-counter digests.
class Digest {
 public:
  void bytes(const void* p, std::size_t n);
  template <class T>
  void value(const T& v) {
    bytes(&v, sizeof v);
  }
  [[nodiscard]] std::uint64_t get() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// Every modelled field of one launch (counters, buckets, memory-telescope
// rows, time split, selection) folded into `d`.
void digest_launch(Digest& d, const LaunchOutcome& o);

}  // namespace pb
