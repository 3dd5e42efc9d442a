// Input parameters shared by the job builders; they follow the
// repository's Table-1 defaults (BenchConfig / KernelRequest).
#pragma once

#include <cstdint>

#include "jobs.h"
#include "spatial/point_set.h"

namespace pb {

inline constexpr int kDim = 7;  // projected Covtype-like dimensionality
inline constexpr int kLeafSize = 8;
inline constexpr double kPcNeighbors = 32;
inline constexpr int kKnnK = 8;
inline constexpr std::uint64_t kShuffleSalt = 0x5bd1e995;

// The Covtype-like dataset the point jobs sample: one fixed synthetic
// dataset, as the paper's Covtype is one fixed dataset, so the workload
// seed changes which points a job draws but not the data's cluster
// structure (which would otherwise move kNN work by +-13% between seeds).
inline constexpr std::size_t kPoolPoints = 65536;
inline constexpr std::uint64_t kDatasetSeed = 42;

// Generate the dataset, timed into `times` as input generation.
[[nodiscard]] tt::PointSet make_covtype_pool(SetupTimes& times, Tracer* tr);

// spec.n points drawn from `pool` without replacement (seeded by
// spec.seed), then put in kd-tree leaf order (sorted) or shuffled, each
// stage timed into `times`.
[[nodiscard]] tt::PointSet make_point_input(const JobSpec& spec,
                                            const tt::PointSet& pool,
                                            SetupTimes& times, Tracer* tr);

}  // namespace pb
