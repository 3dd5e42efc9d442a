// The benchmark's workloads and the metrics computed from them. See
// perfbench/README.md for why each workload exists and what each metric
// should move.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  // measured time; at least one pass always runs
  bool trace = false;   // per-layer metrics instead of end-to-end ones
  int threads = 1;      // OpenMP threads of the simulator and the reference
  std::string out_dir = ".bench_out";  // span and digest files
  // Test only: damage one result of the first launch, which must make the
  // run fail its reference check.
  bool inject_mismatch = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct WorkloadReport {
  // End-to-end metrics (trace off) or per-layer metrics (trace on).
  std::vector<Metric> metrics;
  std::size_t attempted = 0;  // solo launches + served queries
  std::size_t failed = 0;     // launch errors, mismatches, dropped/failed
  // False on any failure, or when a repeated pass's modelled digest
  // differs from the first pass's.
  bool correct = true;
  std::vector<std::string> errors;  // the first few failure messages
  std::size_t passes = 0;
  std::uint64_t input_digest = 0;
  std::uint64_t modelled_digest = 0;
  std::vector<std::string> digest_lines;  // per-launch modelled counters
};

[[nodiscard]] const std::vector<std::string>& workload_names();

// Throws std::invalid_argument on an unknown workload name.
[[nodiscard]] WorkloadReport run_workload(const Options& opt);

// Set up a workload's inputs once and return their digest (no passes).
[[nodiscard]] std::uint64_t workload_input_digest(const std::string& workload,
                                                  std::uint64_t seed);

}  // namespace pb
