// perfbench: runs one workload from a seed and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--input-digest] [--inject-mismatch]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A human-readable summary and the modelled-counter digest
// go to standard error. Exit status: 0 when every launch and query
// succeeded and matched the reference, 1 otherwise, 2 on bad usage.
// --input-digest only builds the inputs and prints their digest;
// --inject-mismatch damages one launch result (a test of the check).
#include <omp.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <sorted_lockstep|"
               "shuffled_perlane|served_small> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>] [--input-digest] "
               "[--inject-mismatch]\n";
  std::exit(2);
}

std::string hex64(std::uint64_t v) {
  std::ostringstream s;
  s << std::hex << std::setw(16) << std::setfill('0') << v;
  return s.str();
}

long parse_long(const std::string& flag, const std::string& v, long lo,
                long hi) {
  char* end = nullptr;
  const long x = std::strtol(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || x < lo || x > hi)
    usage(flag + " must be an integer in [" + std::to_string(lo) + ", " +
          std::to_string(hi) + "], got '" + v + "'");
  return x;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  opt.threads = std::min(4, omp_get_num_procs());
  bool have_workload = false;
  bool input_digest_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--input-digest") {
      input_digest_only = true;
      continue;
    }
    if (a == "--inject-mismatch") {
      opt.inject_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = static_cast<std::uint64_t>(
          parse_long(a, v, 0, 1L << 40));
    } else if (a == "--seconds") {
      opt.seconds = static_cast<double>(parse_long(a, v, 0, 3600));
    } else if (a == "--trace") {
      opt.trace = parse_long(a, v, 0, 1) == 1;
    } else if (a == "--out") {
      opt.out_dir = v;
    } else {
      usage("unknown flag " + a);
    }
  }
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const std::string& w : pb::workload_names()) known |= w == opt.workload;
  if (!known) usage("unknown workload '" + opt.workload + "'");

  // One process; OpenMP pinned to a fixed thread count.
  omp_set_dynamic(0);
  omp_set_num_threads(opt.threads);

  if (input_digest_only) {
    std::cout << hex64(pb::workload_input_digest(opt.workload, opt.seed))
              << "\n";
    return 0;
  }

  pb::WorkloadReport rep;
  try {
    std::filesystem::create_directories(opt.out_dir);
    rep = pb::run_workload(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }

  std::ostringstream summary;
  summary << "# perfbench " << opt.workload << " seed " << opt.seed
          << " threads " << opt.threads << " passes " << rep.passes
          << " trace " << opt.trace << "\n";
  summary << "# digest inputs " << hex64(rep.input_digest) << " modelled "
          << hex64(rep.modelled_digest) << "\n";
  for (const std::string& l : rep.digest_lines) summary << "#   " << l << "\n";
  for (const pb::Metric& m : rep.metrics)
    summary << "  " << std::left << std::setw(40) << m.name << " "
            << std::setprecision(6) << m.value << " " << m.unit << "\n";
  summary << "  " << std::left << std::setw(40) << "failed_share" << " "
          << (rep.attempted ? static_cast<double>(rep.failed) /
                                  static_cast<double>(rep.attempted)
                            : 0.0)
          << " ratio (" << rep.failed << " of " << rep.attempted
          << " attempted)\n";
  for (const std::string& e : rep.errors) summary << "! " << e << "\n";
  std::cerr << summary.str();
  {
    std::ofstream f(opt.out_dir + "/digest-" + opt.workload + "-seed" +
                    std::to_string(opt.seed) + "-trace" +
                    std::to_string(opt.trace) + ".txt");
    f << summary.str();
  }

  std::ostringstream js;
  js << std::setprecision(17) << "{\"correct\": "
     << (rep.correct ? "true" : "false") << ", \"attempted\": "
     << rep.attempted << ", \"failed\": " << rep.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const pb::Metric& m = rep.metrics[i];
    js << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << m.value
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return rep.correct ? 0 : 1;
}
